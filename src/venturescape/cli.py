"""Command-line entry point: ``venturescape <stage> --config FILE`` runs one
stage of pipeline.STAGES, and ``venturescape run-all`` runs them in order.

Each failure prints one stderr line and exits with the code declared on its
config.Failure subclass; the README's exit-code table lists every code. A
usage error prints a usage line and exits 64, and Ctrl-C prints
"interrupted" and exits 130.
Progress lines go to stderr unless VENTURESCAPE_LOG is WARNING or above.
BLAS thread counts come from the environment, set before the process
starts; output trees are byte-identical for a fixed BLAS thread count.

A process loads only what its invocation uses. The CLI parses its
arguments before any other package module runs: --help, <stage> --help and
every usage error run this module and argparse alone. A stage then runs
config, which loads PyYAML to read the config, and pipeline; a no-op stage
stops there, and a clean one runs the compute modules it uses, with numpy.
The subcommands are venturescape.STAGE_NAMES, then run-all.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import STAGE_NAMES, _lazy

# Every package module is registered lazily and runs only when a parsed
# command first reads one of its attributes. The compute modules are
# registered here too, so that importing cli puts every package module in
# sys.modules, where bench/tracer.py finds the functions it wraps.
config = _lazy("config")
pipeline = _lazy("pipeline")
for _name in ("atoms", "axes", "corpus", "embedding", "measures", "panel",
              "storage"):
    _lazy(_name)

EXIT_USAGE = 64  # EX_USAGE in sysexits.h; argparse's own default is 2


def _load(config_path, seed, out):
    overrides = {}
    if seed is not None:
        overrides.setdefault("train", {})["seed"] = seed
        overrides.setdefault("atoms", {})["seed"] = seed
    if out is not None:
        # a relative --out names a path under the working directory, while
        # the config file's own paths are relative to the config file; an
        # empty one stays empty, for load_config to refuse
        overrides["out"] = out and os.path.realpath(out)
    return config.load_config(config_path, overrides)


def _run(stage, config_path, seed, out, force):
    try:
        cfg = _load(config_path, seed, out)
        with pipeline.output_lock(cfg.out_dir):
            if stage == "run-all":
                pipeline.run_all(cfg, force=force)
            else:
                pipeline.run_stage(stage, cfg, force=force)
    except config.Failure as exc:
        _fail(f"{exc.label}: {exc}" if exc.label else str(exc), exc.code)
    except FileNotFoundError as exc:
        _fail(f"missing input: {exc}", config.ConfigError.code)
    except KeyboardInterrupt:  # run_stage has removed the stage's tmp dir
        _fail("interrupted", 130)  # 128 + SIGINT, as a shell reports it


def _fail(message, code):
    print(message, file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_USAGE; its
    subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parser(prog: str = "venturescape") -> argparse.ArgumentParser:
    """The CLI's parser: one subcommand per stage, then run-all."""
    top = _Parser(prog=prog, allow_abbrev=False, description=(
        "Temporal word-embedding pipeline for venture description "
        "measures."))
    commands = top.add_subparsers(dest="command", metavar="COMMAND",
                                  required=True)
    for name in (*STAGE_NAMES, "run-all"):
        about = f"Run the {name} stage." if name != "run-all" else \
            "Run every stage in order."
        cmd = commands.add_parser(name, allow_abbrev=False, help=about,
                                  description=about)
        cmd.add_argument("--config", required=True,
                         help="Pipeline config file.")
        cmd.add_argument("--seed", type=int,
                         help="Override the config RNG seed.")
        cmd.add_argument("--out", help="Override the output directory.")
        cmd.add_argument("--force", action="store_true",
                         help="Rerun even when artifacts are up to date.")
    return top


def main(args=None, prog_name=None):
    """Run the command in args (sys.argv[1:] by default) and exit with its
    code; a finished command exits 0."""
    opts = parser(prog_name or "venturescape").parse_args(args)
    _run(opts.command, opts.config, opts.seed, opts.out, opts.force)
    sys.exit(0)


if __name__ == "__main__":
    main()

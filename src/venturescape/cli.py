"""Command-line entry point: ``venturescape <stage> --config FILE`` runs one
stage of pipeline.STAGES, and ``venturescape run-all`` runs them in order.

Each failure prints one stderr line and exits with the code declared on its
config.Failure subclass; the README's exit-code table lists every code. A
usage error prints a usage line and exits 64.
Progress lines go to stderr unless VENTURESCAPE_LOG is WARNING or above.
BLAS threads come from OMP_NUM_THREADS and OPENBLAS_NUM_THREADS, which must
be set in the environment before the process starts.

A process loads only what its invocation uses: --help loads neither PyYAML
nor numpy, a stage loads PyYAML to read its config, and numpy only once it
computes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, Failure, load_config
from .pipeline import STAGES, output_lock, run_all, run_stage

EXIT_USAGE = 64  # EX_USAGE in sysexits.h; argparse's own default is 2


def _load(config_path, seed, out):
    overrides = {}
    if seed is not None:
        overrides.setdefault("train", {})["seed"] = seed
        overrides.setdefault("atoms", {})["seed"] = seed
    if out is not None:
        # a relative --out names a path under the working directory, while
        # the config file's own paths are relative to the config file
        overrides["out"] = str(Path(out).resolve())
    return load_config(config_path, overrides)


def _run(stage, config_path, seed, out, force):
    try:
        cfg = _load(config_path, seed, out)
        with output_lock(Path(cfg.out_dir)):
            if stage == "run-all":
                run_all(cfg, force=force)
            else:
                run_stage(stage, cfg, force=force)
    except Failure as exc:
        _fail(f"{exc.label}: {exc}" if exc.label else str(exc), exc.code)
    except FileNotFoundError as exc:
        _fail(f"missing input: {exc}", ConfigError.code)


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
    for name in (*STAGES, "run-all"):
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

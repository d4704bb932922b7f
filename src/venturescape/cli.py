"""Command-line entry point.

Each failure prints one stderr line and exits with the code declared on its
config.Failure subclass; the README's exit-code table lists every code.
Log verbosity comes from the VENTURESCAPE_LOG env var (DEBUG/INFO/WARNING).
BLAS threads come from OMP_NUM_THREADS and OPENBLAS_NUM_THREADS, which must
be set in the environment before the process starts.
"""

from __future__ import annotations

import logging
import os
import sys
from pathlib import Path

import click

from .config import ConfigError, Failure, load_config
from .pipeline import STAGES, output_lock, run_all, run_stage

EXIT_USAGE = 64  # EX_USAGE in sysexits.h; click's own default is 2


def _setup_logging():
    level = os.environ.get("VENTURESCAPE_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


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
    _setup_logging()
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
    click.echo(message, err=True)
    sys.exit(code)


def _stage_command(name):
    @click.command(name=name)
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="Pipeline config file.")
    @click.option("--seed", type=int, default=None,
                  help="Override the config RNG seed.")
    @click.option("--out", type=click.Path(), default=None,
                  help="Override the output directory.")
    @click.option("--force", is_flag=True,
                  help="Rerun even when artifacts are up to date.")
    def cmd(config_path, seed, out, force):
        _run(name, config_path, seed, out, force)

    cmd.help = f"Run the {name} stage." if name != "run-all" else \
        "Run every stage in order."
    return cmd


class _Group(click.Group):
    """A click group whose usage errors exit EXIT_USAGE. Options of the
    group itself are parsed in make_context; the subcommand name and its
    options are resolved in invoke."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_USAGE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_USAGE
            raise


@click.group(cls=_Group)
def main():
    """Temporal word-embedding pipeline for venture description measures."""


for _name in (*STAGES, "run-all"):
    main.add_command(_stage_command(_name))


if __name__ == "__main__":
    main()

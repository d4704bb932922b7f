"""Command-line entry point.

Exit codes: 0 success, 2 validation failure, 3 stale inputs, 4 config error,
5 output directory locked by a live run, 64 usage error (unknown command or
option, missing --config), 65 bad input data (a malformed line of the
companies JSONL or CPI CSV, reported as file:line, a CPI table without its
base year, or an acquisition year missing from the CPI table).
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

from .config import ConfigError, load_config
from .panel import PanelInputError
from .pipeline import (STAGES, PipelineLockError, StaleInputError,
                       ValidationFailure, output_lock, run_all, run_stage)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STALE = 3
EXIT_CONFIG = 4
EXIT_LOCKED = 5
EXIT_USAGE = 64  # EX_USAGE in sysexits.h; click's own default is 2
EXIT_DATA = 65  # EX_DATAERR in sysexits.h


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
        overrides["out"] = out
    return load_config(config_path, overrides)


def _run(stage, config_path, seed, out, force):
    _setup_logging()
    try:
        cfg = _load(config_path, seed, out)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        with output_lock(Path(cfg.out_dir)):
            if stage == "run-all":
                run_all(cfg, force=force)
            else:
                run_stage(stage, cfg, force=force)
    except StaleInputError as exc:
        click.echo(f"stale inputs: {exc}", err=True)
        sys.exit(EXIT_STALE)
    except ValidationFailure as exc:
        click.echo(f"validation failure: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except PipelineLockError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_LOCKED)
    except FileNotFoundError as exc:
        click.echo(f"missing input: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except PanelInputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    sys.exit(EXIT_OK)


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

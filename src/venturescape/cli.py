"""Command-line entry point.

Exit codes: 0 success, 2 validation failure, 3 stale inputs, 4 config error
(a key that names no setting, a value of the wrong type, such as a string
where a list of words belongs, or outside its range, such as a bigram that
is not a pair, or an atoms.count larger than the vocabulary), 5 output
directory locked by a live run (an exclusive flock on the directory, which
the kernel drops when its holder exits or dies), 64 usage error (unknown
command or option, missing --config), 65 bad input data (a malformed line of
the corpus or companies JSONL or of the CPI or lexicon frequency CSV,
reported as file:line, no token reaching vocab.min_count, a PPMI matrix
empty in every slice, a CPI table without its base year, or an acquisition
year missing from the CPI table), 70 solver failure (a singular or
non-finite slice system, or a diverged objective).
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
from .pipeline import (STAGES, PipelineLockError, StaleInputError,
                       ValidationFailure, corpus, embedding, output_lock,
                       run_all, run_stage)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STALE = 3
EXIT_CONFIG = 4
EXIT_LOCKED = 5
EXIT_USAGE = 64  # EX_USAGE in sysexits.h; click's own default is 2
EXIT_DATA = 65  # EX_DATAERR in sysexits.h
EXIT_SOFTWARE = 70  # EX_SOFTWARE in sysexits.h


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
    except ConfigError as exc:
        _fail(f"config error: {exc}", EXIT_CONFIG)
    except StaleInputError as exc:
        _fail(f"stale inputs: {exc}", EXIT_STALE)
    except ValidationFailure as exc:
        _fail(f"validation failure: {exc}", EXIT_VALIDATION)
    except PipelineLockError as exc:
        _fail(str(exc), EXIT_LOCKED)
    except FileNotFoundError as exc:
        _fail(f"missing input: {exc}", EXIT_CONFIG)
    # a lazy module loads only when an exception reaches its clause
    except corpus.InputError as exc:
        _fail(f"input error: {exc}", EXIT_DATA)
    except embedding.SolverError as exc:
        _fail(f"solver failure: {exc}", EXIT_SOFTWARE)
    sys.exit(EXIT_OK)


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

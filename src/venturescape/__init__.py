"""Corpus-to-measures engine: temporal embeddings, discourse atoms, and
venture recombination measures."""

import importlib.util
import sys

__version__ = "0.1.0"

# The pipeline's stages in run order, the CLI's subcommands. pipeline.STAGES
# declares each one, in this order; the names live here so that the CLI can
# parse its arguments without loading pipeline.
STAGE_NAMES = ("ingest", "train", "atoms", "measure", "validate", "report")


def _lazy(name: str):
    """The module venturescape.<name>, registered in sys.modules but run
    only when its first attribute is read, so that --help loads no pipeline
    code and no-op reruns load no numpy. A module that is already imported
    is returned as it is."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return sys.modules[fullname]

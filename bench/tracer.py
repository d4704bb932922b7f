"""Per-layer tracer for the venturescape benchmark.

Runs one CLI invocation with every layer entry point wrapped:

    python3 bench/tracer.py --spans FILE --parent ID -- <venturescape CLI args>

Each function named in LAYERS is replaced in its defining module and at every
other binding of it in the package (``from ... import`` names such as
``pipeline.train_embeddings`` for ``embedding.train``), so a call through any
name is counted; installing fails if a module-level container still holds an
unwrapped original. Entry points record one span per call with its parent
span; hot inner functions (AGGREGATE) record only their call count and time.
A call's self time is its time minus the time of the traced calls made inside
it. The spans and per-function totals are written to FILE as JSON when the
invocation ends, with span ids prefixed by ID.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

SPAN, AGGREGATE = "span", "aggregate"


def _ppmi_nnz(extra, args, result):
    extra["nnz"] = extra.get("nnz", 0) + int(result.matrix.nnz)


def _written_bytes(extra, args, result):
    extra["bytes"] = extra.get("bytes", 0) + os.path.getsize(args[1])


def _read_bytes(extra, args, result):
    extra["bytes"] = extra.get("bytes", 0) + os.path.getsize(args[0])


def _objective(extra, args, result):
    T, n = args[1].shape[:2]
    extra["last_value"] = float(result)
    # splitting_objective densifies every slice: T dense n x n float64 arrays
    extra["dense_bytes"] = extra.get("dense_bytes", 0) + T * n * n * 8


def _ksvd(extra, args, result):
    extra["last_value"] = (float(result.error_trace[-1])
                           if result.error_trace else math.nan)


def _panel(extra, args, result):
    rows, rejected = result
    extra["rows"] = extra.get("rows", 0) + len(rows)
    extra["rejected"] = extra.get("rejected", 0) + len(rejected)


# (module, public function, span or aggregate, hook on the result)
LAYERS = (
    ("config", "load_config", SPAN, None),
    ("corpus", "read_documents", SPAN, None),
    ("corpus", "tokenize", AGGREGATE, None),
    ("corpus", "build_vocab", SPAN, None),
    ("corpus", "count_cooccurrence", SPAN, None),
    ("corpus", "build_ppmi", SPAN, _ppmi_nnz),
    ("storage", "write_vocab", SPAN, None),
    ("storage", "read_vocab", SPAN, None),
    ("storage", "write_ppmi", SPAN, _written_bytes),
    ("storage", "read_ppmi", SPAN, None),
    ("storage", "write_embeddings", SPAN, None),
    ("storage", "read_embeddings", SPAN, None),
    ("storage", "write_atoms_tsv", SPAN, None),
    ("storage", "write_atom_matrix", SPAN, None),
    ("storage", "read_atoms", SPAN, None),
    ("embedding", "train", SPAN, None),
    ("embedding", "solve_slice", AGGREGATE, None),
    ("embedding", "splitting_objective", SPAN, _objective),
    ("atoms", "ksvd_train", SPAN, _ksvd),
    ("atoms", "omp_code", AGGREGATE, None),
    ("atoms", "assign_words", SPAN, None),
    ("measures", "cosine_distance", AGGREGATE, None),
    ("measures", "local_distance", AGGREGATE, None),
    ("measures", "global_distance", AGGREGATE, None),
    ("measures", "tech_app_local_distance", AGGREGATE, None),
    ("measures", "centroid_spread", AGGREGATE, None),
    ("measures", "classify_tech_app", AGGREGATE, None),
    ("measures", "text_controls", AGGREGATE, None),
    ("panel", "read_companies", SPAN, None),
    ("panel", "build_panel", SPAN, _panel),
    ("panel", "write_panel_csv", SPAN, None),
    ("axes", "drift_trace", SPAN, None),
    ("axes", "analogy_query", SPAN, None),
    ("pipeline", "sha256_file", AGGREGATE, _read_bytes),
    ("pipeline", "run_stage", SPAN, None),
)

# run_stage is counted per stage, as pipeline.<stage>
_KEYED_BY_STAGE = "pipeline.run_stage"


class Tracer:
    """Spans and per-function totals of one process, kept in memory."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.stats = {}
        self.spans = []  # [id, parent, name, start, end, self_s]
        self._stack = []  # frames: [child_time, span_id or None]
        self._next_id = 0

    def _stat(self, key):
        return self.stats.setdefault(key, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})

    def wrap(self, key, fn, kind, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"pipeline.{args[0]}" if key == _KEYED_BY_STAGE else key
            sid = None
            if kind == SPAN:
                self._next_id += 1
                sid = f"{self.prefix}.{self._next_id}"
            frame = [0.0, sid]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat = self._stat(name)
                stat["calls"] += 1
                stat["total_s"] += dur
                stat["self_s"] += dur - frame[0]
                if sid is not None:
                    parent = next((f[1] for f in reversed(stack)
                                   if f[1] is not None), self.prefix)
                    self.spans.append([sid, parent, name, t0, t1,
                                       dur - frame[0]])
            if hook is not None:
                hook(self._stat(name), args, result)
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function at each of its package bindings."""
        import venturescape.cli  # noqa: F401  imports every module

        mods = [m for name, m in sorted(sys.modules.items())
                if name == "venturescape" or name.startswith("venturescape.")]
        originals = set()
        for module, fn_name, kind, hook in LAYERS:
            mod = sys.modules[f"venturescape.{module}"]
            orig = getattr(mod, fn_name)
            key = f"{module}.{fn_name}"
            wrapped = self.wrap(key, orig, kind, hook)
            originals.add(id(orig))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
        for m in mods:
            for attr, val in vars(m).items():
                if isinstance(val, dict):
                    val = list(val.values())
                if isinstance(val, (list, tuple)) and any(
                        id(v) in originals for v in val):
                    raise RuntimeError(
                        f"{m.__name__}.{attr} holds an untraced layer function")

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)


_ALIASES = {"pipeline.sha256_file": "pipeline.sha256"}


def merge_stats(per_process: list) -> dict:
    """Sum per-function totals over processes; ``last_*`` values keep the
    value of the latest process that recorded one."""
    out = {}
    for stats in per_process:
        for key, stat in stats.items():
            acc = out.setdefault(key, {})
            for field, val in stat.items():
                if field.startswith("last_"):
                    acc[field] = val
                else:
                    acc[field] = acc.get(field, 0) + val
    return out


def missing_layers(stats: dict, stages) -> list:
    """LAYERS functions, and run_stage per stage, that recorded no call."""
    keys = [f"{module}.{fn_name}" for module, fn_name, _, _ in LAYERS]
    keys.remove(_KEYED_BY_STAGE)
    keys += [f"pipeline.{stage}" for stage in stages]
    return [k for k in keys if stats.get(k, {}).get("calls", 0) == 0]


def layer_metrics(stats: dict, stages) -> dict:
    """Per-layer metric values from merged per-function totals."""
    def get(key, field="total_s"):
        return stats.get(key, {}).get(field, 0)

    m = {}
    for module, fn_name, _, _ in LAYERS:
        key = f"{module}.{fn_name}"
        name = _ALIASES.get(key, key)
        m[f"{name}_s"] = get(key)
        m[f"{name}_calls"] = get(key, "calls")
    for stage in stages:
        m[f"pipeline.{stage}.self_s"] = get(f"pipeline.{stage}", "self_s")
    m["corpus.ppmi_nnz"] = get("corpus.build_ppmi", "nnz")
    m["storage.ppmi_bytes"] = get("storage.write_ppmi", "bytes")
    m["storage.write_atoms_s"] = (get("storage.write_atoms_tsv")
                                  + get("storage.write_atom_matrix"))
    m["storage.read_atoms_s"] = get("storage.read_atoms")
    m["embedding.sweeps"] = (get("embedding.splitting_objective", "calls")
                             - get("embedding.train", "calls"))
    m["embedding.final_objective"] = get("embedding.splitting_objective",
                                         "last_value")
    m["embedding.dense_bytes"] = get("embedding.splitting_objective",
                                     "dense_bytes")
    m["atoms.ksvd_self_s"] = get("atoms.ksvd_train", "self_s")
    m["atoms.final_error"] = get("atoms.ksvd_train", "last_value")
    m["panel.rows"] = get("panel.build_panel", "rows")
    m["panel.rejected"] = get("panel.build_panel", "rejected")
    m["pipeline.sha256_bytes"] = get("pipeline.sha256_file", "bytes")
    return m


def main(argv):
    try:
        sep = argv.index("--")
        opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
        spans_path, parent = opts["--spans"], opts["--parent"]
    except (ValueError, KeyError):
        sys.exit("usage: tracer.py --spans FILE --parent ID -- CLI-ARGS...")
    tracer = Tracer(parent)
    tracer.install()
    from venturescape.cli import main as cli_main
    try:
        cli_main(args=argv[sep + 1:], prog_name="venturescape")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])

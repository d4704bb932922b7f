"""Stage orchestration: ingest -> train -> atoms -> measure -> validate ->
report, with a checksum manifest, atomic artifact writes, and idempotent
reruns. Ingest and atoms run their per-slice work on every usable core
(workers.per_slice)."""

from __future__ import annotations

import csv
import fcntl
import hashlib
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Callable

from . import _lazy
from .config import (PPMI_FORMAT, ConfigError, Failure, PipelineConfig,
                     artifact, writing)

atoms = _lazy("atoms")
axes = _lazy("axes")
corpus = _lazy("corpus")
embedding = _lazy("embedding")
measures = _lazy("measures")
panel = _lazy("panel")
storage = _lazy("storage")
workers = _lazy("workers")

MANIFEST_NAME = "manifest.json"
# the fields of a stage's manifest entry and their JSON types
_ENTRY = {"config_hash": str, "inputs": dict, "outputs": dict}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage. ``run(cfg, out_dir, tmp_dir)`` writes its
    artifacts to tmp_dir and returns their names. ``hashed`` names the
    PipelineConfig fields it depends on, from which its hashed config view
    and its input files derive; ``constants`` are hashed beside them."""

    name: str
    deps: tuple
    run: Callable
    hashed: tuple
    constants: dict = field(default_factory=dict)

    def settings(self, cfg: PipelineConfig) -> dict:
        """The hashed config view: each field of hashed, a section's fields
        in its place, and the constants; a word set is a sorted list."""
        view = dict(self.constants)
        for name in self.hashed:
            value = getattr(cfg, name)
            view.update(asdict(value) if is_dataclass(value) else
                        {name: value})
        return {key: sorted(value) if isinstance(value, frozenset) else value
                for key, value in view.items()}

    def inputs(self, cfg: PipelineConfig) -> list:
        """The files outside the output tree that it reads: the fields of
        hashed that config declares input paths."""
        declared = PipelineConfig.__dataclass_fields__
        return [getattr(cfg, name) for name in self.hashed
                if declared[name].metadata.get("path") == "input"]


class StaleInputError(Failure, RuntimeError):
    """A stage upstream of the one asked for is missing or out of date."""

    code, label = 3, "stale inputs"


class ValidationFailure(Failure, RuntimeError):
    """The trained embeddings fail the validate stage's checks."""

    code, label = 2, "validation failure"


class PipelineLockError(Failure, RuntimeError):
    """Another live run holds the output directory."""

    code = 5


# VENTURESCAPE_LOG values that silence the progress lines; any other value,
# or none, lets them through
_QUIET = {"WARN", "WARNING", "ERROR", "CRITICAL", "FATAL"}


def _progress(message: str):
    """One progress line on stderr, ``INFO venturescape: message``."""
    if os.environ.get("VENTURESCAPE_LOG", "INFO").upper() not in _QUIET:
        print(f"INFO venturescape: {message}", file=sys.stderr)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stage_hash(cfg: PipelineConfig, name: str) -> str:
    blob = json.dumps(STAGES[name].settings(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextmanager
def output_lock(out_dir):
    """One run per output directory at a time: an exclusive flock on the
    directory itself, which the kernel releases when its holder exits or
    dies."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file, or under one, or not writable
        raise ConfigError(f"cannot make output directory {out_dir}: "
                          f"{exc.strerror}") from exc
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineLockError(
                f"output dir locked by another run: {out_dir}") from None
        yield
    finally:
        os.close(fd)


def _load_manifest(out_dir: Path) -> dict:
    """The manifest of out_dir, empty when there is none. A file that is
    not a JSON object whose stages map names to entries raises
    StaleInputError."""
    path = out_dir / MANIFEST_NAME
    if not path.exists():
        return {"stages": {}}
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError:  # not UTF-8, or not JSON
        manifest = None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(
            isinstance(entry, dict) and all(isinstance(entry.get(key), kind)
                                            for key, kind in _ENTRY.items())
            for entry in stages.values()):
        raise StaleInputError(f"{path} is not a pipeline manifest; delete "
                              "it to rerun every stage")
    return manifest


def _write_json(path: Path, obj):
    with artifact(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_manifest(out_dir: Path, manifest: dict):
    tmp = out_dir / (MANIFEST_NAME + ".tmp")
    try:
        _write_json(tmp, manifest)
        with writing(out_dir / MANIFEST_NAME):
            os.replace(tmp, out_dir / MANIFEST_NAME)
    finally:  # a manifest cut short is not left behind
        tmp.unlink(missing_ok=True)


def _inputs(cfg: PipelineConfig, name: str, manifest: dict) -> dict:
    """Checksums of everything a stage reads: its external files, and its
    deps' outputs as the manifest records them."""
    inputs = {}
    for path in STAGES[name].inputs(cfg):
        inputs[path] = sha256_file(path) if os.path.exists(path) else "missing"
    for dep in STAGES[name].deps:
        entry = manifest["stages"].get(dep)
        if entry:
            for rel, digest in entry["outputs"].items():
                inputs[f"stage:{dep}:{rel}"] = digest
    return inputs


def _stale(name: str, cfg: PipelineConfig, out_dir: Path, manifest: dict):
    """Why the recorded run of a stage no longer holds for cfg, its inputs
    and its outputs on disk; None when it is up to date."""
    entry = manifest["stages"].get(name)
    if entry is None:
        return "it has never run"
    if entry["config_hash"] != stage_hash(cfg, name):
        return "its config changed"
    recorded, current = entry["inputs"], _inputs(cfg, name, manifest)
    for key in sorted(recorded.keys() | current.keys()):
        if recorded.get(key) != current.get(key):
            if key.startswith("stage:"):
                _, dep, rel = key.split(":", 2)
                return f"output {rel} of '{dep}' changed"
            return f"input {key} changed"
    for rel, digest in entry["outputs"].items():
        path = out_dir / rel
        if not path.exists():
            return f"output {rel} is missing"
        if sha256_file(path) != digest:
            return f"output {rel} was modified"
    return None


def run_stage(stage: str, cfg: PipelineConfig, force: bool = False) -> bool:
    """Run one stage. Returns True when work was done, False when the stage
    was already up to date. Raises StaleInputError when any stage upstream
    of it, directly or through its deps, is missing or stale."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage: {stage}")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out_dir)

    # deps precede their stage in STAGES, so one backward pass closes them
    upstream = set(STAGES[stage].deps)
    for name in reversed(STAGES):
        if name in upstream:
            upstream.update(STAGES[name].deps)
    for dep in (name for name in STAGES if name in upstream):
        reason = _stale(dep, cfg, out_dir, manifest)
        if reason:
            raise StaleInputError(f"stage '{stage}' needs up-to-date "
                                  f"'{dep}', but {reason}; rerun it")

    if not force and _stale(stage, cfg, out_dir, manifest) is None:
        _progress(f"stage {stage}: up to date")
        return False

    previous = manifest["stages"].get(stage, {"outputs": {}})["outputs"]
    inputs = _inputs(cfg, stage, manifest)
    tmp_dir = out_dir / f".tmp-{stage}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    with writing(tmp_dir):
        tmp_dir.mkdir()
    try:
        outputs = STAGES[stage].run(cfg, out_dir, tmp_dir)
        digests = {}
        for rel in outputs:
            with writing(out_dir / rel):
                os.replace(tmp_dir / rel, out_dir / rel)
            digests[rel] = sha256_file(out_dir / rel)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    # artifacts of the previous run that this run no longer writes
    for rel in set(previous) - set(digests):
        (out_dir / rel).unlink(missing_ok=True)

    manifest["stages"][stage] = {
        "config_hash": stage_hash(cfg, stage),
        "inputs": inputs,
        "outputs": digests,
    }
    _save_manifest(out_dir, manifest)
    _progress(f"stage {stage}: wrote {len(digests)} artifacts")
    return True


def run_all(cfg: PipelineConfig, force: bool = False):
    for stage in STAGES:
        run_stage(stage, cfg, force=force)


# ---------------------------------------------------------------- stages

def _stage_ingest(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    tokenized = corpus.tokenize_corpus(corpus.read_documents(cfg.corpus_path),
                                       cfg.tokens, cfg.slices)
    vocab = corpus.build_vocab(tokenized, cfg.min_count)
    storage.write_vocab(vocab, tmp / "vocab.tsv")

    def ingest_slice(t):
        # the counts are passed, not kept: build_ppmi frees them once it
        # holds the positive pairs, before it assembles the CSR arrays
        ppmi = corpus.build_ppmi(
            corpus.count_cooccurrence(tokenized, vocab, t, cfg.window,
                                      cfg.source_weights), cfg.ppmi_shift)
        storage.write_ppmi(ppmi, tmp / f"ppmi_{t:03d}.bin")
        return ppmi.matrix.nnz, ppmi.max_pmi

    # each process builds, writes and drops one slice at a time
    summaries = workers.per_slice(cfg.slices.n_slices, ingest_slice)
    nnz = sum(n for n, _ in summaries)
    max_pmi = max([-float("inf")] + [m for _, m in summaries])
    if not nnz:
        # train would fit zero matrices and every measure its random start
        raise corpus.InputError("every slice's PPMI matrix is empty at "
                                f"cooccurrence.shift {cfg.ppmi_shift}; the "
                                f"largest PMI of any pair is {max_pmi:.6g}")
    return ["vocab.tsv"] + [f"ppmi_{t:03d}.bin"
                            for t in range(cfg.slices.n_slices)]


class _PpmiSlices:
    """The PPMI slices of an output tree as a sequence that reads slice t
    from its file, through every check of storage.read_ppmi, at each access,
    so train holds one slice at a time."""

    def __init__(self, out_dir: Path, T: int):
        self.out_dir, self.T = out_dir, T

    def __len__(self) -> int:
        return self.T

    def __getitem__(self, t: int):
        if not 0 <= t < self.T:
            raise IndexError(t)
        return storage.read_ppmi(self.out_dir / f"ppmi_{t:03d}.bin").matrix


def _stage_train(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    U = embedding.train(_PpmiSlices(out_dir, cfg.slices.n_slices), cfg.train,
                        years=cfg.slices.labels())
    storage.write_embeddings(U, tmp / "embeddings.bin")
    outputs = ["embeddings.bin"]
    if cfg.emit_tsv:
        vocab = storage.read_vocab(out_dir / "vocab.tsv")
        storage.write_embeddings_tsv(U, vocab, tmp / "embeddings.tsv")
        outputs.append("embeddings.tsv")
    return outputs


def _stage_atoms(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    U = storage.read_embeddings(out_dir / "embeddings.bin")
    vocab = storage.read_vocab(out_dir / "vocab.tsv")
    if cfg.atoms.K > U.n:
        raise ConfigError(f"atoms.count {cfg.atoms.K} exceeds the "
                          f"vocabulary size {U.n}")

    def atoms_slice(t):
        d = atoms.train_atoms(U.slices[t], cfg.atoms)
        storage.write_atoms_tsv(d, vocab, U.years[t],
                                tmp / f"atoms_{t:03d}.tsv")
        storage.write_atom_matrix(d, tmp / f"atoms_{t:03d}.npy")

    workers.per_slice(U.T, atoms_slice)
    return [f"atoms_{t:03d}.{ext}" for t in range(U.T)
            for ext in ("tsv", "npy")]


def _stage_measure(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    U = storage.read_embeddings(out_dir / "embeddings.bin")
    vocab = storage.read_vocab(out_dir / "vocab.tsv")
    assignments = [storage.read_atoms(out_dir / f"atoms_{t:03d}.tsv")
                   for t in range(U.T)]
    companies = panel.read_companies(cfg.companies_path)
    lexicon = measures.LexiconSet.load(cfg.tech_terms_path,
                                       cfg.general_freq_path,
                                       cfg.patent_freq_path)
    cpi = panel.CpiTable.load(cfg.cpi_path, cfg.measures.cpi_base_year)
    rows, rejected = panel.build_panel(
        companies, vocab, U, cfg.slices, assignments, lexicon, cpi,
        cfg.measures, lambda text: corpus.tokenize(text, cfg.tokens))
    panel.write_panel_csv(rows, tmp / "panel.csv")
    _write_json(tmp / "panel_schema.json", panel.PANEL_SCHEMA)
    _write_json(tmp / "rejected_companies.json", sorted(rejected))
    return ["panel.csv", "panel_schema.json", "rejected_companies.json"]


def _stage_validate(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    U = storage.read_embeddings(out_dir / "embeddings.bin")
    vocab = storage.read_vocab(out_dir / "vocab.tsv")
    result = {"axis": {}, "drift_words": [], "analogies": {}, "warnings": []}

    seeds = cfg.axis_seeds
    for t in range(U.T):
        try:
            axis = axes.build_axis(U, t, seeds["positive"], seeds["negative"],
                                   vocab)
        except axes.AxisError as exc:
            result["warnings"].append(f"axis slice {t}: {exc}")
            continue
        projections = {}
        for word in seeds["positive"] + seeds["negative"]:
            if word in vocab.token_to_id:
                projections[word] = axes.project_on_axis(
                    U.slices[t][vocab.token_to_id[word]], axis)
        result["axis"][str(U.years[t])] = {
            "dropped_seeds": axis.dropped,
            "seed_projections": projections,
        }

    drift_rows = []
    for word in cfg.drift_words:
        if word not in vocab.token_to_id:
            result["warnings"].append(f"drift word not in vocabulary: {word}")
            continue
        report = axes.drift_trace(U, word, vocab, N=5)
        result["drift_words"].append(word)
        drift_rows.extend(report.to_long_rows())

    if not result["axis"]:
        raise ValidationFailure(
            "no slice yielded a usable axis: " + "; ".join(result["warnings"]))

    for query in cfg.analogies:
        a, b, c = query
        key = f"{a}-{b}+{c}"
        try:
            result["analogies"][key] = axes.analogy_query(U, U.T - 1, a, b,
                                                          c, vocab, N=5)
        except KeyError as exc:
            result["warnings"].append(str(exc))

    _write_json(tmp / "validation.json", result)
    with artifact(tmp / "drift_long.csv", "w", encoding="utf-8",
                  newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slice_year", "word", "neighbor", "rank", "similarity"])
        for row in drift_rows:
            writer.writerow([row[0], row[1], row[2], row[3], f"{row[4]:.8g}"])
    return ["validation.json", "drift_long.csv"]


_REPORT_MEASURES = ["local_distance", "global_distance",
                    "tech_app_local_distance", "centroid_spread",
                    "negentropy", "element_familiarity",
                    "time_to_market_months", "vc_diversity"]


def _stage_report(cfg: PipelineConfig, out_dir: Path, tmp: Path) -> list:
    with open(out_dir / "panel.csv", encoding="utf-8", newline="") as fh:
        # ordered by company_id, then episode_start, then the rest of the
        # row, so that ties in the quantile tables never split by line order
        rows = sorted(csv.DictReader(fh), key=lambda r: (
            r["company_id"], r["episode_start"], list(r.values())))

    report = {"n_rows": len(rows)}
    if not rows:
        report["empty"] = True
    else:
        stats = {}
        for name in _REPORT_MEASURES:
            vals = [float(r[name]) for r in rows if r[name] != ""]
            if vals:
                # math.fsum rounds the exact sum once, in any order
                mean = math.fsum(vals) / len(vals)
                std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals)
                                / len(vals))
                stats[name] = {"mean": mean, "std": std, "n": len(vals)}
            else:
                stats[name] = {"mean": None, "std": None, "n": 0}
        report["descriptives"] = stats

        outcomes = {}
        for r in rows:
            outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
        report["outcome_proportions"] = {
            k: v / len(rows) for k, v in sorted(outcomes.items())}

        report["quantile_tables"] = {
            name: _quantile_table(rows, name, cfg.quantiles)
            for name in ("local_distance", "global_distance")}

    _write_json(tmp / "report.json", report)
    return ["report.json"]


def _quantile_table(rows, name: str, q: int) -> list:
    """Equal-size quantile groups of one measure with outcome rates per
    group. Values sort stably, so tied values keep the order of rows; the
    first len % q groups hold one value more than the rest."""
    vals = sorted(((float(r[name]), r["outcome"]) for r in rows
                   if r[name] != ""), key=lambda p: p[0])
    if not vals:
        return []
    q = min(q, len(vals))
    size, longer = divmod(len(vals), q)
    names = sorted({o for _, o in vals})
    table, start = [], 0
    for g in range(q):
        group = vals[start:start + size + (g < longer)]
        start += len(group)
        outcomes = [o for _, o in group]
        entry = {"n": len(group),
                 "mean_measure": math.fsum(v for v, _ in group) / len(group)}
        for outcome in names:
            entry[f"rate_{outcome}"] = outcomes.count(outcome) / len(group)
        table.append(entry)
    return table


# In run order, which is the order of venturescape.STAGE_NAMES. Existing
# manifests record the hash of each settings view: a change to a stage's
# fields, or to the names or values they hold, makes every output tree
# stale.
STAGES = {stage.name: stage for stage in (
    Stage("ingest", (), _stage_ingest,
          ("corpus_path", "slices", "tokens", "min_count", "window",
           "source_weights", "ppmi_shift"), {"ppmi_format": PPMI_FORMAT}),
    Stage("train", ("ingest",), _stage_train, ("train", "emit_tsv")),
    Stage("atoms", ("train",), _stage_atoms, ("atoms",)),
    Stage("measure", ("ingest", "train", "atoms"), _stage_measure,
          ("companies_path", "tech_terms_path", "general_freq_path",
           "patent_freq_path", "cpi_path", "measures")),
    Stage("validate", ("ingest", "train"), _stage_validate,
          ("axis_seeds", "drift_words", "analogies")),
    Stage("report", ("measure", "validate"), _stage_report, ("quantiles",)),
)}

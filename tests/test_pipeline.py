import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from venturescape import corpus
from venturescape.config import ConfigError, load_config
from venturescape.pipeline import (STAGES, PipelineLockError, StaleInputError,
                                   _quantile_table, output_lock, run_all,
                                   run_stage, sha256_file, stage_hash)

CONFIG = "tests/fixtures/config.yaml"


# Holds the output lock on the directory sys.argv[1] until it is killed.
_HOLDER = """
import sys, time
from pathlib import Path
from venturescape.pipeline import output_lock
with output_lock(Path(sys.argv[1])):
    print("held", flush=True)
    time.sleep(600)
"""


@pytest.fixture()
def lock_holder():
    """Starts live processes that hold the output lock on a directory; kills
    those still running at teardown."""
    procs = []

    def start(out_dir):
        proc = subprocess.Popen([sys.executable, "-c", _HOLDER, str(out_dir)],
                                stdout=subprocess.PIPE, text=True)
        procs.append(proc)
        assert proc.stdout.readline() == "held\n"
        return proc

    yield start
    for proc in procs:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.fixture()
def cfg(fixtures_dir, tmp_path):
    return load_config(fixtures_dir / "config.yaml",
                       overrides={"out": str(tmp_path / "out")})


class TestConfig:
    def test_load_defaults(self, cfg):
        assert cfg.train.k == 8
        assert cfg.atoms.K == 6
        assert cfg.slices.n_slices == 3
        assert cfg.min_count == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("paths: [unclosed")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_override_precedence(self, fixtures_dir, tmp_path):
        cfg = load_config(fixtures_dir / "config.yaml",
                          overrides={"train": {"k": 3},
                                     "out": str(tmp_path)})
        assert cfg.train.k == 3

    def test_shift_below_one_rejected(self, fixtures_dir, tmp_path):
        """A PPMI shift below 1 is refused when the config loads, before
        ingest counts anything."""
        with pytest.raises(ValueError, match="cooccurrence.shift"):
            load_config(fixtures_dir / "config.yaml",
                        overrides={"cooccurrence": {"shift": 0.5},
                                   "out": str(tmp_path)})

    def test_exponent_floats_load(self, fixtures_dir, tmp_path):
        """YAML 1.1 loads 1e6 and 1.0e6 as strings; a float setting reads
        both as the number they write."""
        text = (fixtures_dir / "config.yaml").read_text()
        text = text.replace("shift: 1.0\n", "shift: 1e6\n")
        text = text.replace("lambda: 0.1\n", "lambda: 1.0e6\n")
        (tmp_path / "config.yaml").write_text(text)
        cfg = load_config(tmp_path / "config.yaml")
        assert cfg.ppmi_shift == cfg.train.lam == 1e6
        assert type(cfg.ppmi_shift) is type(cfg.train.lam) is float

    def test_relative_paths_resolved(self, cfg, fixtures_dir):
        assert cfg.corpus_path == str(fixtures_dir / "corpus.jsonl")

    def test_section_hash_sensitivity(self, cfg, fixtures_dir, tmp_path):
        other = load_config(fixtures_dir / "config.yaml",
                            overrides={"train": {"tau": 9.0},
                                       "out": str(tmp_path / "o2")})
        assert stage_hash(cfg, "train") != stage_hash(other, "train")
        assert stage_hash(cfg, "ingest") == stage_hash(other, "ingest")

    def test_partial_weights_hash_as_the_default(self, fixtures_dir,
                                                  tmp_path):
        """A cooccurrence.weights mapping that leaves sources out holds
        their default weights, so it hashes as no mapping at all."""
        raw = yaml.safe_load((fixtures_dir / "config.yaml").read_text())
        hashes = []
        for weights in ({"news": 1.0}, None):
            raw["cooccurrence"].pop("weights", None)
            if weights:
                raw["cooccurrence"]["weights"] = weights
            path = tmp_path / "config.yaml"
            path.write_text(yaml.safe_dump(raw))
            cfg = load_config(path, overrides={
                "paths": {"corpus": str(fixtures_dir / "corpus.jsonl")}})
            assert cfg.source_weights == {"news": 1.0, "patent": 1.0,
                                          "other": 1.0}
            hashes.append(stage_hash(cfg, "ingest"))
        assert hashes[0] == hashes[1]


def bench_configs(tmp_path):
    """One config per benchmark workload, written by bench/generate.py."""
    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).parents[1] / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generate  # dataclasses look their module up
    try:
        spec.loader.exec_module(generate)
    finally:
        del sys.modules[spec.name]
    paths = []
    for name, shape in generate.WORKLOADS.items():
        rng = np.random.default_rng(1)
        paths.append(tmp_path / f"{name}.yaml")
        generate.write_config(paths[-1], shape,
                              generate.Universe(shape, rng), 1)
    return paths


def test_config_loader_oracle(tmp_path, monkeypatch):
    """load_config parses with libyaml where PyYAML has it, and every test
    and benchmark config loads to the same values as under the pure-Python
    SafeLoader, which load_config takes where PyYAML lacks libyaml."""
    loaders, load = [], yaml.load

    def spy(text, Loader):
        loaders.append(Loader)
        return load(text, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    paths = sorted(Path(__file__).parent.rglob("*.yaml")) \
        + bench_configs(tmp_path)
    assert len(paths) >= 4
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert load(text, Loader=getattr(yaml, "CSafeLoader",
                                         yaml.SafeLoader)) == \
            load(text, Loader=yaml.SafeLoader), path
    loaders.clear()
    fast = [load_config(p) for p in paths]
    if yaml.__with_libyaml__:
        assert loaders == [yaml.CSafeLoader] * len(paths)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    loaders.clear()
    assert fast == [load_config(p) for p in paths]
    assert loaders == [yaml.SafeLoader] * len(paths)


class TestStages:
    def test_ingest_then_rerun_noop(self, cfg):
        assert run_stage("ingest", cfg) is True
        assert (sorted(p.name for p in
                       __import__("pathlib").Path(cfg.out_dir).glob("ppmi_*"))
                == ["ppmi_000.bin", "ppmi_001.bin", "ppmi_002.bin"])
        assert run_stage("ingest", cfg) is False

    def test_ingest_tokenizes_each_in_range_document_once(
            self, fixtures_dir, tmp_path, monkeypatch):
        cfg = load_config(fixtures_dir / "config.yaml",
                          overrides={"out": str(tmp_path / "out"),
                                     "slices": {"year_min": 2015}})
        texts = sorted(d.text for d in corpus.read_documents(cfg.corpus_path)
                       if cfg.slices.index(d.year) is not None)
        tokenize, calls = corpus.tokenize, []

        def counting_tokenize(text, rules):
            calls.append(text)
            return tokenize(text, rules)

        monkeypatch.setattr(corpus, "tokenize", counting_tokenize)
        assert run_stage("ingest", cfg) is True
        assert len(texts) == 160 and sorted(calls) == texts

    def test_stale_upstream_refused(self, cfg):
        with pytest.raises(StaleInputError):
            run_stage("train", cfg)

    def test_config_change_invalidates_downstream(self, cfg, fixtures_dir,
                                                  tmp_path):
        run_all(cfg)
        changed = load_config(fixtures_dir / "config.yaml",
                              overrides={"train": {"seed": 99},
                                         "out": cfg.out_dir})
        with pytest.raises(StaleInputError):
            run_stage("atoms", changed)
        assert run_stage("train", changed) is True
        assert run_stage("atoms", changed) is True

    def test_full_run_artifacts(self, cfg):
        run_all(cfg)
        out = __import__("pathlib").Path(cfg.out_dir)
        for name in ("vocab.tsv", "embeddings.bin", "panel.csv",
                     "validation.json", "report.json", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["stages"].values():
            for rel, digest in entry["outputs"].items():
                assert sha256_file(out / rel) == digest

    def test_report_contents(self, cfg):
        run_all(cfg)
        report = json.loads((__import__("pathlib").Path(cfg.out_dir)
                             / "report.json").read_text())
        assert report["n_rows"] > 0
        assert "local_distance" in report["descriptives"]
        props = report["outcome_proportions"]
        assert sum(props.values()) == pytest.approx(1.0)

    def test_lock_excludes_concurrent_runs(self, tmp_path):
        with output_lock(tmp_path):
            with pytest.raises(PipelineLockError):
                with output_lock(tmp_path):
                    pass
        # released on exit
        with output_lock(tmp_path):
            pass

    def test_lock_of_dead_run_is_reclaimed(self, tmp_path, lock_holder):
        """The kernel drops the lock of a run killed with SIGKILL, and the
        lock leaves no file in the output directory."""
        holder = lock_holder(tmp_path)
        with pytest.raises(PipelineLockError):
            with output_lock(tmp_path):
                pass
        holder.kill()
        holder.wait(timeout=10)
        with output_lock(tmp_path):
            pass
        assert list(tmp_path.iterdir()) == []


class TestReportTables:
    def test_quantile_table_monotone_relation(self):
        rows = [{"local_distance": str(i / 100), "outcome":
                 "close" if i < 50 else "new_funding"} for i in range(100)]
        table = _quantile_table(rows, "local_distance", 4)
        assert len(table) == 4
        rates = [g["rate_new_funding"] for g in table]
        assert rates == sorted(rates)
        means = [g["mean_measure"] for g in table]
        assert means == sorted(means)

    def test_empty(self):
        assert _quantile_table([], "local_distance", 4) == []

    def test_report_does_not_depend_on_company_line_order(self, own_config,
                                                          tmp_path):
        """The fixture book with its lines reversed gives the same panel
        rows and a byte-identical report.json: ties split by company_id and
        episode_start, and sums are exactly rounded."""
        cfg = load_config(own_config, overrides={"out": str(tmp_path / "o")})
        run_all(cfg)
        out = Path(cfg.out_dir)
        panel, report = ((out / name).read_bytes()
                         for name in ("panel.csv", "report.json"))
        book = Path(cfg.companies_path)
        book.write_text("".join(reversed(
            book.read_text().splitlines(keepends=True))))
        assert run_stage("measure", cfg) and run_stage("report", cfg)
        assert sorted((out / "panel.csv").read_bytes().splitlines()) == \
            sorted(panel.splitlines())
        assert (out / "panel.csv").read_bytes() != panel
        assert (out / "report.json").read_bytes() == report


def test_tree_does_not_depend_on_corpus_line_order(own_config, tmp_path):
    """A copy of the fixture corpus with its lines shuffled gives a tree
    byte-identical to the original's, manifest.json aside (it records the
    corpus digest): no stage depends on the corpus line order, whichever
    process builds a slice."""
    trees = []
    for name in ("original", "shuffled"):
        if name == "shuffled":
            corpus_path = own_config.parent / "corpus.jsonl"
            lines = corpus_path.read_text().splitlines(keepends=True)
            np.random.default_rng(5).shuffle(lines)
            corpus_path.write_text("".join(lines))
        cfg = load_config(own_config, overrides={"out": str(tmp_path / name)})
        run_all(cfg)
        out = Path(cfg.out_dir)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "manifest.json"})
    assert len(trees[0]) == 18
    assert trees[0] == trees[1]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "venturescape.cli",
                               *args], capture_output=True, text=True)

    def test_config_error_exit_code(self, tmp_path):
        proc = self.run_cli("ingest", "--config", str(tmp_path / "none.yaml"))
        assert proc.returncode == 4

    def test_stale_exit_code(self, tmp_path):
        proc = self.run_cli("train", "--config", CONFIG, "--out",
                            str(tmp_path / "o"))
        assert proc.returncode == 3

    def test_locked_exit_code(self, tmp_path, lock_holder):
        out = tmp_path / "o"
        lock_holder(out)
        proc = self.run_cli("ingest", "--config", CONFIG, "--out", str(out))
        assert proc.returncode == 5
        assert "locked by another run" in proc.stderr

    def test_run_all_success(self, tmp_path):
        proc = self.run_cli("run-all", "--config", CONFIG, "--out",
                            str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "report.json").exists()


class TestStaleness:
    def test_emit_tsv_switch_makes_train_stale(self, cfg, fixtures_dir):
        from pathlib import Path

        assert cfg.emit_tsv
        run_all(cfg)
        out = Path(cfg.out_dir)
        assert (out / "embeddings.tsv").exists()
        off = load_config(fixtures_dir / "config.yaml",
                          overrides={"emit_tsv": False, "out": cfg.out_dir})
        assert stage_hash(off, "train") != stage_hash(cfg, "train")
        with pytest.raises(StaleInputError):
            run_stage("atoms", off)
        assert run_stage("train", off) is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["stages"]["train"]["outputs"]) == \
            ["embeddings.bin"]
        assert not (out / "embeddings.tsv").exists()
        assert run_stage("train", off) is False

    def test_text_ppmi_tree_reingests_instead_of_crashing(self, cfg):
        """A tree whose manifest lists text-triplet ppmi_*.txt files, as
        written before PPMI became binary, makes ingest stale: train refuses
        it with StaleInputError and ingest reruns and replaces the files."""
        import hashlib
        from pathlib import Path

        import scipy.sparse as sp

        from venturescape import storage
        from oracles import to_scipy

        run_stage("ingest", cfg)
        out = Path(cfg.out_dir)
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["stages"]["ingest"]
        for rel in [r for r in entry["outputs"] if r.startswith("ppmi_")]:
            ppmi = storage.read_ppmi(out / rel)
            coo = sp.triu(to_scipy(ppmi.matrix)).tocoo()
            lines = [f"{ppmi.t} {ppmi.n} {coo.nnz}"] + [
                f"{i} {j} {v:.17g}"
                for i, j, v in zip(coo.row, coo.col, coo.data)]
            txt = out / rel.replace(".bin", ".txt")
            txt.write_text("\n".join(lines) + "\n")
            (out / rel).unlink()
            del entry["outputs"][rel]
            entry["outputs"][txt.name] = sha256_file(txt)
        legacy = {k: v for k, v in STAGES["ingest"].settings(cfg).items()
                  if k != "ppmi_format"}
        entry["config_hash"] = hashlib.sha256(json.dumps(
            legacy, sort_keys=True).encode()).hexdigest()[:16]
        (out / "manifest.json").write_text(json.dumps(manifest))

        with pytest.raises(StaleInputError):
            run_stage("train", cfg)
        assert run_stage("ingest", cfg) is True
        assert sorted(p.name for p in out.glob("ppmi_*")) == \
            ["ppmi_000.bin", "ppmi_001.bin", "ppmi_002.bin"]
        assert run_stage("train", cfg) is True


class TestStageTable:
    def test_settings_hashes_pinned(self, cfg):
        """Existing manifests record these hashes: a table edit that changes
        one makes every output tree written before it stale."""
        assert {name: stage_hash(cfg, name)
                for name in ("train", "atoms", "validate", "report")} == {
            "train": "5bba064177107a6f",
            "atoms": "bce73357e54f60e4",
            "validate": "0e7bb80f96dff01f",
            "report": "8f9faeb3a23f0fb0",
        }

    def test_ingest_hashes_the_ppmi_format_it_writes(self, cfg, tmp_path):
        """The format tag in the ingest view names the magic and version
        that write_ppmi writes, so a format bump makes every recorded
        ingest stale instead of leaving old trees looking fresh."""
        import numpy as np

        from venturescape import storage

        assert STAGES["ingest"].settings(cfg)["ppmi_format"] == \
            f"{storage.PPMI_MAGIC.decode()}/{storage.PPMI_VERSION}"
        empty = corpus.CsrMatrix(indptr=np.zeros(2, dtype=np.int64),
                                 indices=np.zeros(0, dtype=np.int32),
                                 data=np.zeros(0))
        path = tmp_path / "ppmi.bin"
        storage.write_ppmi(corpus.PpmiMatrix(t=0, matrix=empty), path)
        assert path.read_bytes().startswith(storage.PPMI_MAGIC)

    def test_settings_view_holds_every_hashed_setting(self, cfg):
        """Each stage's view holds one key per setting of its fields, a
        section's fields each, so no two of them share a key."""
        from dataclasses import fields, is_dataclass

        for stage in STAGES.values():
            values = [getattr(cfg, name) for name in stage.hashed]
            count = sum(len(fields(v)) if is_dataclass(v) else 1
                        for v in values)
            assert len(stage.settings(cfg)) == count + len(stage.constants)

    def test_stage_hashes_do_not_depend_on_the_string_hash_seed(
            self, fixtures_dir, tmp_path):
        """A word set hashes in sorted order: an ingest under another
        PYTHONHASHSEED finds the first one's record up to date."""
        config = shutil.copytree(fixtures_dir, tmp_path / "in") / "config.yaml"
        raw = yaml.safe_load(config.read_text())
        raw["tokens"].update(stopwords=["the", "and", "of", "a", "to", "in"],
                             bigrams=[["solar", "panel"]])
        config.write_text(yaml.safe_dump(raw))
        for seed, line in (("1", "wrote"), ("2", "up to date")):
            proc = subprocess.run(
                [sys.executable, "-m", "venturescape.cli", "ingest",
                 "--config", str(config), "--out", str(tmp_path / "out")],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "VENTURESCAPE_LOG": "INFO"})
            assert proc.returncode == 0, proc.stderr
            assert f"stage ingest: {line}" in proc.stderr

    def test_cli_commands_are_the_stages(self):
        from venturescape.cli import parser

        choices = [action.choices for action in parser()._actions
                   if isinstance(action.choices, dict)]
        assert [list(c) for c in choices] == [[*STAGES, "run-all"]]

    def test_deps_precede_their_stage(self):
        names = list(STAGES)
        for i, (name, stage) in enumerate(STAGES.items()):
            assert stage.name == name
            assert set(stage.deps) <= set(names[:i]), name


@pytest.fixture()
def own_config(fixtures_dir, tmp_path):
    """The fixture config over a private copy of its inputs."""
    return shutil.copytree(fixtures_dir, tmp_path / "in") / "config.yaml"


class TestTransitiveStaleness:
    def test_corpus_change_blocks_every_downstream_stage(self, own_config,
                                                         tmp_path):
        out = tmp_path / "out"
        cfg = load_config(own_config, overrides={"out": str(out)})
        run_all(cfg)
        with open(own_config.parent / "corpus.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "extra", "source": "news", "year": 2015,
                                 "text": "solar grid battery panel"}) + "\n")
        for stage in ("atoms", "report"):
            with pytest.raises(StaleInputError, match=(
                    rf"stage '{stage}' needs up-to-date 'ingest', but input "
                    rf".*corpus\.jsonl changed; rerun it")):
                run_stage(stage, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "venturescape.cli", "report",
             "--config", str(own_config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "corpus.jsonl changed" in proc.stderr

        assert run_stage("ingest", cfg) is True
        with pytest.raises(StaleInputError, match=(
                r"stage 'report' needs up-to-date 'train', but output "
                r"\S+ of 'ingest' changed")):
            run_stage("report", cfg)

    def test_stale_error_names_the_reason(self, cfg, fixtures_dir):
        out = Path(cfg.out_dir)
        with pytest.raises(StaleInputError, match=(
                "stage 'train' needs up-to-date 'ingest', "
                "but it has never run")):
            run_stage("train", cfg)
        run_all(cfg)

        reseeded = load_config(fixtures_dir / "config.yaml",
                               overrides={"train": {"seed": 99},
                                          "out": cfg.out_dir})
        with pytest.raises(StaleInputError, match=(
                "needs up-to-date 'train', but its config changed")):
            run_stage("atoms", reseeded)
        assert run_stage("train", reseeded) is True
        with pytest.raises(StaleInputError, match=(
                "needs up-to-date 'atoms', but output embeddings.bin "
                "of 'train' changed")):
            run_stage("measure", reseeded)
        # training is deterministic: the original config restores the bytes
        # atoms recorded, so atoms is current again
        assert run_stage("train", cfg) is True
        assert run_stage("measure", cfg) is False

        (out / "vocab.tsv").unlink()
        with pytest.raises(StaleInputError, match=(
                "needs up-to-date 'ingest', but output vocab.tsv is missing")):
            run_stage("report", cfg)
        assert run_stage("ingest", cfg) is True

        with open(out / "embeddings.bin", "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(StaleInputError, match=(
                "needs up-to-date 'train', but output embeddings.bin "
                "was modified")):
            run_stage("validate", cfg)

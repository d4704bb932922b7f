import json
import subprocess
import sys

import pytest

from venturescape.config import ConfigError, load_config
from venturescape.pipeline import (PipelineLockError, StaleInputError,
                                   _quantile_table, output_lock, run_all,
                                   run_stage, sha256_file)

CONFIG = "tests/fixtures/config.yaml"


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

    def test_relative_paths_resolved(self, cfg, fixtures_dir):
        assert cfg.corpus_path == str(fixtures_dir / "corpus.jsonl")

    def test_section_hash_sensitivity(self, cfg, fixtures_dir, tmp_path):
        other = load_config(fixtures_dir / "config.yaml",
                            overrides={"train": {"tau": 9.0},
                                       "out": str(tmp_path / "o2")})
        assert cfg.section_hash("train") != other.section_hash("train")
        assert cfg.section_hash("ingest") == other.section_hash("ingest")


class TestStages:
    def test_ingest_then_rerun_noop(self, cfg):
        assert run_stage("ingest", cfg) is True
        assert (sorted(p.name for p in
                       __import__("pathlib").Path(cfg.out_dir).glob("ppmi_*"))
                == ["ppmi_000.bin", "ppmi_001.bin", "ppmi_002.bin"])
        assert run_stage("ingest", cfg) is False

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
        assert off.section_hash("train") != cfg.section_hash("train")
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

        run_stage("ingest", cfg)
        out = Path(cfg.out_dir)
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["stages"]["ingest"]
        for rel in [r for r in entry["outputs"] if r.startswith("ppmi_")]:
            ppmi = storage.read_ppmi(out / rel)
            coo = sp.triu(ppmi.matrix).tocoo()
            lines = [f"{ppmi.t} {ppmi.n} {coo.nnz}"] + [
                f"{i} {j} {v:.17g}"
                for i, j, v in zip(coo.row, coo.col, coo.data)]
            txt = out / rel.replace(".bin", ".txt")
            txt.write_text("\n".join(lines) + "\n")
            (out / rel).unlink()
            del entry["outputs"][rel]
            entry["outputs"][txt.name] = sha256_file(txt)
        legacy = {k: v for k, v in cfg.section_dict("ingest").items()
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

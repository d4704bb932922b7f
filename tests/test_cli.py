"""The CLI process contract: exit codes for usage, config, input-data and
solver errors, where a relative --out resolves, and which stages load scipy:
only a clean train run does, and only scipy.sparse; the config module alone
loads no numpy. Each check runs the CLI in a fresh interpreter, so the
modules a process loads are its own."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import venturescape
from venturescape import storage
from venturescape.pipeline import STAGES

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG = str(FIXTURES / "config.yaml")
SUBMODULES = ("atoms", "axes", "cli", "config", "corpus", "embedding",
              "measures", "panel", "pipeline", "storage")

# Runs the CLI with sys.argv[2:] and writes its exit code and the names in
# sys.modules to the JSON file sys.argv[1].
_PROBE = """
import json, sys
from venturescape.cli import main
code = None
try:
    main(args=sys.argv[2:], prog_name="venturescape")
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def probe(tmp_path, *args):
    """Exit code and loaded module names of one CLI invocation."""
    report = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(report), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    return result["code"], result["modules"]


def scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def stage_args(stage, out):
    return (stage, "--config", CONFIG, "--out", str(out))


def manifest_stages(out):
    manifest = out / "manifest.json"
    return json.loads(manifest.read_text())["stages"] if manifest.exists() \
        else {}


def modules_after_import(module):
    """The names in sys.modules once a fresh interpreter imports module."""
    script = (f"import json, sys, {module}; "
              "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_cli_loads_every_submodule_and_no_scipy():
    modules = modules_after_import("venturescape.cli")
    for name in SUBMODULES:
        assert f"venturescape.{name}" in modules
    assert scipy_modules(modules) == []


def test_import_config_loads_no_numpy_and_no_compute_module():
    modules = modules_after_import("venturescape.config")
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert [m for m in modules if m.split(".")[0] == "venturescape"] == [
        "venturescape", "venturescape.config"]


def test_help_loads_no_scipy(tmp_path):
    code, modules = probe(tmp_path, "--help")
    assert code == 0
    assert scipy_modules(modules) == []


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Loaded modules of a clean run of every stage in order, then of a
    no-op run of every stage."""
    tmp = tmp_path_factory.mktemp("runs")
    out = tmp / "out"
    clean, noop = {}, {}
    for stage in STAGES:
        assert stage not in manifest_stages(out)
        code, clean[stage] = probe(tmp, *stage_args(stage, out))
        assert code == 0
        assert stage in manifest_stages(out)
    manifest = (out / "manifest.json").read_bytes()
    for stage in STAGES:
        code, noop[stage] = probe(tmp, *stage_args(stage, out))
        assert code == 0
    assert (out / "manifest.json").read_bytes() == manifest
    return clean, noop


def test_clean_ingest_loads_no_scipy(runs):
    assert scipy_modules(runs[0]["ingest"]) == []


def test_clean_train_loads_scipy_sparse_only(runs):
    modules = runs[0]["train"]
    assert "scipy.sparse" in modules
    assert "scipy.linalg" not in modules


@pytest.mark.parametrize("stage", ["atoms", "measure", "validate", "report"])
def test_clean_downstream_stage_loads_no_scipy(runs, stage):
    assert scipy_modules(runs[0][stage]) == []


@pytest.mark.parametrize("stage", list(STAGES))
def test_noop_stage_loads_no_scipy(runs, stage):
    assert scipy_modules(runs[1][stage]) == []


@pytest.mark.parametrize("args", [
    ["bogus"],
    ["ingest", "--bogus"],
    ["ingest"],
])
def test_usage_error_exit_code(args):
    proc = subprocess.run([sys.executable, "-m", "venturescape.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 64
    assert "Usage:" in proc.stderr


def test_help_exit_code():
    proc = subprocess.run([sys.executable, "-m", "venturescape.cli", "ingest",
                           "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_validation_failure_exit_code(tmp_path):
    """Axis seeds outside the vocabulary leave validate without an axis."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    raw = yaml.safe_load((fixtures / "config.yaml").read_text())
    raw["axes"]["profit_loss"] = {"positive": ["zzunseen"],
                                  "negative": ["zzabsent"]}
    (fixtures / "config.yaml").write_text(yaml.safe_dump(raw))
    proc = subprocess.run([sys.executable, "-m", "venturescape.cli",
                           "run-all", "--config", str(fixtures / "config.yaml"),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "validation failure" in proc.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A copy of the fixtures with ingest, train and atoms run on it."""
    tmp = tmp_path_factory.mktemp("trained")
    fixtures = tmp / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    for stage in ("ingest", "train", "atoms"):
        proc = subprocess.run([sys.executable, "-m", "venturescape.cli",
                               stage, "--config", str(fixtures / "config.yaml"),
                               "--out", str(tmp / "out")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    return fixtures, tmp / "out"


def measure_with(trained, name, companies, cpi):
    """A measure run whose config reads the given companies JSONL and CPI
    texts; the upstream stages stay up to date."""
    fixtures, out = trained
    raw = yaml.safe_load((fixtures / "config.yaml").read_text())
    (fixtures / f"{name}.jsonl").write_text(companies)
    (fixtures / f"{name}.csv").write_text(cpi)
    raw["paths"].update(companies=f"{name}.jsonl", cpi=f"{name}.csv")
    config = fixtures / f"{name}.yaml"
    config.write_text(yaml.safe_dump(raw))
    return subprocess.run([sys.executable, "-m", "venturescape.cli", "measure",
                           "--config", str(config), "--out", str(out)],
                          capture_output=True, text=True)


def test_malformed_company_line_exit_code(trained):
    lines = (FIXTURES / "companies.jsonl").read_text().splitlines()
    lines.insert(2, '{"id": "c99", "description": "x",')
    proc = measure_with(trained, "bad_line", "\n".join(lines) + "\n",
                        (FIXTURES / "cpi.csv").read_text())
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert f"{trained[0] / 'bad_line.jsonl'}:3: JSONDecodeError" in proc.stderr


def test_missing_cpi_year_exit_code(trained):
    cpi = [row for row in (FIXTURES / "cpi.csv").read_text().splitlines()
           if not row.startswith("2016,")]
    companies = (FIXTURES / "companies.jsonl").read_text().replace(
        '"date": "2015-05-01", "price_usd": 900.0',
        '"date": "2016-05-01", "price_usd": 900.0')
    proc = measure_with(trained, "no_2016", companies, "\n".join(cpi) + "\n")
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert "CPI index missing for year 2016" in proc.stderr



def fixture_copy(tmp_path, sections):
    """The config of a copy of the fixtures, its sections updated from
    sections; a value that is not a mapping replaces the top-level one."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    raw = yaml.safe_load((fixtures / "config.yaml").read_text())
    for name, values in sections.items():
        if isinstance(values, dict):
            raw.setdefault(name, {}).update(values)
        else:
            raw[name] = values
    (fixtures / "config.yaml").write_text(yaml.safe_dump(raw))
    return fixtures / "config.yaml"


def run_all(config, out, entry=("-m", "venturescape.cli")):
    """A run-all that logs warnings only; entry runs the CLI."""
    return subprocess.run(
        [sys.executable, *entry, "run-all", "--config", str(config),
         "--out", str(out)], capture_output=True, text=True,
        env={**os.environ, "VENTURESCAPE_LOG": "WARNING"})


def assert_one_line(proc, code, message):
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert message in proc.stderr


def test_malformed_corpus_line_exit_code(tmp_path):
    config = fixture_copy(tmp_path, {})
    corpus = config.parent / "corpus.jsonl"
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines + ['{"id": "d1", "year": 2015,']))
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, f"input error: {corpus}:{len(lines) + 1}: "
                              "JSONDecodeError")


@pytest.mark.parametrize("row, error", [
    ("foo,notanumber", "could not convert string to float: 'notanumber'"),
    ("foo", "list index out of range"),
], ids=["count", "one_column"])
def test_malformed_lexicon_row_exit_code(tmp_path, row, error):
    config = fixture_copy(tmp_path, {})
    freq = config.parent / "general_freq.csv"
    lines = freq.read_text().splitlines()
    freq.write_text("\n".join(lines + [row]) + "\n")
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, f"input error: {freq}:{len(lines) + 1}: {error}")


def test_atoms_count_above_vocabulary_exit_code(tmp_path):
    config = fixture_copy(tmp_path, {"atoms": {"count": 100000}})
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 4, "config error: atoms.count 100000 exceeds the "
                             "vocabulary size")


@pytest.mark.parametrize("sections, message", [
    ({"cooccurrence": {"window": 0}}, "cooccurrence.window must be >= 1"),
    ({"cooccurrence": {"shift": 0.5}}, "cooccurrence.shift must be >= 1"),
    ({"vocab": {"min_count": 0}}, "vocab.min_count must be >= 1"),
    ({"cooccurrence": {"weights": {"news": 0.0, "patent": 1.0}}},
     "cooccurrence.weights.news must be > 0"),
    ({"measures": {"rare_percentile": 2}},
     "measures.rare_percentile must be in [0, 1]"),
    ({"measures": {"top_price_share": 2}},
     "measures.top_price_share must be in (0, 1]"),
    ({"measures": {"top_price_share": 0}},
     "measures.top_price_share must be in (0, 1]"),
    ({"measures": {"lookback_years": -1}},
     "measures.lookback_years must be >= 0"),
    ({"measures": {"min_module_size": 0}},
     "measures.min_module_size must be >= 1"),
    ({"measures": {"freq_ratio_threshold": -1}},
     "measures.freq_ratio_threshold must be >= 0"),
    ({"train": {"gamma": -5}}, "train.gamma must be >= 0"),
    ({"train": {"k": 0}}, "train.k must be >= 1"),
    ({"train": {"sweeps": 0}}, "train.sweeps must be >= 1"),
    ({"train": {"lambda": -1}}, "train.lambda must be >= 0"),
    ({"train": {"tau": -1}}, "train.tau must be >= 0"),
    ({"atoms": {"count": 0}}, "atoms.count must be >= 1"),
    ({"atoms": {"count": 3, "sparsity": 5}},
     "atoms.sparsity must be in [1, atoms.count]"),
    ({"atoms": {"method": "other"}}, "atoms.method must be ksvd or kmeans"),
    ({"slices": {"width": 0}}, "slices.width must be >= 1"),
    ({"slices": {"year_max": 2013}},
     "slices.year_max must be >= slices.year_min"),
    ({"atoms": {"iterations": -3}}, "atoms.iterations must be >= 0"),
    ({"report": {"quantiles": 0}}, "report.quantiles must be >= 1"),
    ({"train": {"k": "eight"}}, "train.k must be int"),
    ({"tokens": {"strip_numbers": "false"}},
     "tokens.strip_numbers must be bool"),
    ({"tokens": {"stopwords": "the"}},
     "tokens.stopwords must be a list of words"),
    ({"drift_words": "bridge"}, "drift_words must be a list of words"),
    ({"tokens": {"bigrams": ["real estate"]}},
     "tokens.bigrams must be a list of word lists"),
    ({"tokens": {"bigrams": [["real", "estate", "agent"]]}},
     "tokens.bigrams must be word pairs"),
    ({"axes": {"profit_loss": ["gain", "loss"]}},
     "axes.profit_loss must be a mapping"),
    ({"axes": {"profit_loss": {"positive": ["gain"]}}},
     "axes.profit_loss must be exactly positive and negative word lists"),
    ({"analogies": [["solar", "panel"]]}, "analogies must be word triples"),
], ids=["window", "shift", "min_count", "weight", "rare_percentile",
        "top_price_share", "zero_top_price_share", "lookback_years",
        "min_module_size", "freq_ratio_threshold", "gamma", "k", "sweeps",
        "lambda", "tau", "count", "sparsity", "method", "width", "year_max",
        "iterations", "quantiles", "k_not_int", "quoted_bool",
        "stopwords_string", "drift_words_string", "bigram_string",
        "bigram_triple", "profit_loss_list", "profit_loss_one_side",
        "analogy_pair"])
def test_out_of_range_setting_exit_code(tmp_path, sections, message):
    proc = run_all(fixture_copy(tmp_path, sections), tmp_path / "out")
    assert_one_line(proc, 4, f"config error: {message}, got ")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("sections, key", [
    ({"train": {"lamda": 0.1}}, "train.lamda"),
    ({"cooccurrence": {"weights": {"news": 1.0, "patnet": 2.0}}},
     "cooccurrence.weights.patnet"),
    ({"vocabulary": {"min_count": 3}}, "vocabulary"),
], ids=["train_key", "weight_source", "section"])
def test_unknown_setting_exit_code(tmp_path, sections, key):
    proc = run_all(fixture_copy(tmp_path, sections), tmp_path / "out")
    assert_one_line(proc, 4, f"config error: unknown setting {key}")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_empty_vocabulary_exit_code(tmp_path):
    config = fixture_copy(tmp_path, {"vocab": {"min_count": 100000}})
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, "input error: empty vocabulary: no token "
                              "reaches min_count 100000 in any slice")


def test_all_ppmi_empty_exit_code(tmp_path):
    """A shift that clips every PMI leaves no evidence to train on."""
    config = fixture_copy(tmp_path, {"cooccurrence": {"shift": 1e6}})
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, "input error: every slice's PPMI matrix is "
                              "empty at cooccurrence.shift 1000000.0")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_one_empty_ppmi_slice_is_legal(tmp_path):
    """A slice without documents has an empty PPMI matrix; the others
    still carry evidence."""
    out = tmp_path / "out"
    config = fixture_copy(tmp_path, {"slices": {"year_max": 2017}})
    proc = cli("ingest", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert storage.read_ppmi(out / "ppmi_003.bin").matrix.nnz == 0


@pytest.mark.parametrize("train, message", [
    ({"lambda": 1e308}, "array must not contain infs or NaNs"),
    ({"k": 30, "lambda": 0.0, "tau": 0.0}, "singular system in slice 0"),
], ids=["infinite_weight", "singular"])
def test_unsolvable_slice_system_exit_code(tmp_path, train, message):
    config = fixture_copy(tmp_path, {"train": train})
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 70, "solver failure: ")
    assert message in proc.stderr


# Runs the CLI with sys.argv[1:] and an objective that is never finite.
_DIVERGING = """
import sys
import venturescape.embedding as embedding
embedding.splitting_objective = lambda *args: float("inf")
from venturescape.cli import main
main(args=sys.argv[1:], prog_name="venturescape")
"""


def test_diverged_objective_exit_code(tmp_path):
    proc = run_all(fixture_copy(tmp_path, {}), tmp_path / "out",
                   entry=("-c", _DIVERGING))
    assert_one_line(proc, 70, "solver failure: objective diverged at sweep 0")


def cli(*args, log="WARNING"):
    return subprocess.run([sys.executable, "-m", "venturescape.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "VENTURESCAPE_LOG": log})


def test_force_reruns_up_to_date_stages(tmp_path):
    out = tmp_path / "out"
    assert run_all(CONFIG, out).returncode == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    proc = cli("run-all", "--config", CONFIG, "--out", str(out), "--force",
               log="INFO")
    assert proc.returncode == 0, proc.stderr
    for stage in STAGES:
        assert f"stage {stage}: wrote" in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_report_without_seed_after_seeded_run_is_stale(tmp_path):
    out = str(tmp_path / "out")
    proc = cli("run-all", "--config", CONFIG, "--out", out, "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    proc = cli("report", "--config", CONFIG, "--out", out)
    assert_one_line(proc, 3, "stale inputs: stage 'report' needs up-to-date "
                             "'train', but its config changed")


def test_relative_out_resolves_against_working_directory(tmp_path):
    """A relative --out is under the working directory; a relative out: in
    the config file is under the config file's directory."""
    config = fixture_copy(tmp_path, {})
    work = tmp_path / "work"
    work.mkdir()
    src = str(Path(venturescape.__file__).resolve().parents[1])
    env = {**os.environ, "VENTURESCAPE_LOG": "WARNING",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for extra in (["--out", "cli_out"], []):
        proc = subprocess.run([sys.executable, "-m", "venturescape.cli",
                               "ingest", "--config", str(config), *extra],
                              capture_output=True, text=True, cwd=work,
                              env=env)
        assert proc.returncode == 0, proc.stderr
    assert (work / "cli_out" / "manifest.json").is_file()
    assert not (config.parent / "cli_out").exists()
    assert (config.parent / "out" / "manifest.json").is_file()
    assert not (work / "out").exists()

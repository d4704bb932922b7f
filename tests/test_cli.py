"""The CLI process contract: exit codes for usage, config, input-data and
solver errors, where a relative --out resolves, the progress lines, and what
each process loads. --help and a usage error run no package module but
cli; --help loads no numpy, PyYAML, click or logging, and a no-op rerun of any stage no numpy, click or logging; no process loads a
scipy module, a clean train run included, which loads only scipy's compiled
CSR kernel; a clean ingest runs no compute module downstream of it, and a
clean report runs none at all and loads no numpy; the config module alone
loads no numpy. Each check runs the CLI in a fresh interpreter, so the
modules a process loads are its own."""

import errno
import importlib
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
from dataclasses import MISSING, replace
from pathlib import Path

import pytest
import yaml

import venturescape
from venturescape import storage
from venturescape.config import SETTINGS, Failure, field_reader, load_config
from venturescape.corpus import read_documents
from venturescape.pipeline import STAGES
from oracles import ingest

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG = str(FIXTURES / "config.yaml")
SUBMODULES = ("atoms", "axes", "cli", "config", "corpus", "embedding",
              "measures", "panel", "pipeline", "storage", "workers")
COMPUTE = ("atoms", "axes", "corpus", "embedding", "measures", "panel",
           "storage", "workers")

# Runs the CLI with sys.argv[2:] and writes its exit code, the names in
# sys.modules and the package modules whose code ran to the JSON file
# sys.argv[1]. A module that pipeline registers lazily and nothing reads
# stays a _LazyModule; type() reads the class without loading it.
_PROBE = """
import json, sys, types
from venturescape.cli import main
code = None
try:
    main(args=sys.argv[2:], prog_name="venturescape")
except SystemExit as exc:
    code = exc.code
ran = [name for name, module in sys.modules.items()
       if name.startswith("venturescape.")
       and type(module) is types.ModuleType]
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules),
               "ran": sorted(ran)}, fh)
"""


def probe(tmp_path, *args):
    """Exit code, loaded module names and the names of the package modules
    whose code ran, of one CLI invocation."""
    report = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(report), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    return result["code"], result["modules"], result["ran"]


def scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def numpy_modules(modules):
    return [m for m in modules if m.split(".")[0] == "numpy"]


def compute_modules(names, among=COMPUTE):
    """The names in names of the venturescape compute modules among."""
    wanted = {f"venturescape.{name}" for name in among}
    return [m for m in names if m in wanted]


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
    code, modules, _ = probe(tmp_path, "--help")
    assert code == 0
    assert scipy_modules(modules) == []


def test_help_loads_no_numpy(tmp_path):
    code, modules, ran = probe(tmp_path, "--help")
    assert code == 0
    assert numpy_modules(modules) == []
    assert compute_modules(ran) == []


def packages(modules, *names):
    """The names among names of the top-level packages in modules."""
    return sorted({m.split(".")[0] for m in modules} & set(names))


def test_help_loads_no_click_logging_yaml_or_numpy(tmp_path):
    code, modules, _ = probe(tmp_path, "--help")
    assert code == 0
    assert packages(modules, "click", "logging", "yaml", "numpy") == []


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["ingest", "--help"], 0),
    (["bogus"], 64),
    (["ingest"], 64),
], ids=["help", "stage_help", "unknown_command", "no_config"])
def test_parsing_runs_cli_alone(tmp_path, args, code):
    """--help, a stage's --help and a usage error end in argparse, before
    any other package module runs."""
    got, _, ran = probe(tmp_path, *args)
    assert got == code
    assert ran == ["venturescape.cli"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Loaded modules of a clean run of every stage in order, then of a
    no-op run of every stage, then the package modules whose code ran in
    each clean run."""
    tmp = tmp_path_factory.mktemp("runs")
    out = tmp / "out"
    clean, noop, ran = {}, {}, {}
    for stage in STAGES:
        assert stage not in manifest_stages(out)
        code, clean[stage], ran[stage] = probe(tmp, *stage_args(stage, out))
        assert code == 0
        assert stage in manifest_stages(out)
    manifest = (out / "manifest.json").read_bytes()
    for stage in STAGES:
        code, noop[stage], _ = probe(tmp, *stage_args(stage, out))
        assert code == 0
    assert (out / "manifest.json").read_bytes() == manifest
    return clean, noop, ran


@pytest.mark.parametrize("stage", list(STAGES))
def test_clean_downstream_stage_loads_no_scipy(runs, stage):
    """No clean stage loads a scipy module; train loads only the compiled
    CSR kernel, from its file."""
    assert scipy_modules(runs[0][stage]) == []


@pytest.mark.parametrize("stage", list(STAGES))
def test_noop_stage_loads_no_scipy(runs, stage):
    assert scipy_modules(runs[1][stage]) == []


@pytest.mark.parametrize("stage", list(STAGES))
def test_noop_stage_loads_no_numpy(runs, stage):
    assert numpy_modules(runs[1][stage]) == []


@pytest.mark.parametrize("stage", list(STAGES))
def test_noop_stage_loads_no_click_or_logging(runs, stage):
    assert packages(runs[1][stage], "click", "logging") == []


def test_clean_ingest_runs_no_downstream_compute_module(runs):
    ran = runs[2]["ingest"]
    # the modules ingest uses do show as run, so the probe can tell
    assert compute_modules(ran, ("corpus", "storage")) == [
        "venturescape.corpus", "venturescape.storage"]
    assert compute_modules(ran, ("atoms", "axes", "measures", "panel")) == []


def test_clean_report_runs_no_compute_module(runs):
    assert compute_modules(runs[2]["report"]) == []


def test_clean_report_loads_no_numpy(runs):
    assert numpy_modules(runs[0]["report"]) == []


@pytest.mark.parametrize("args", [
    ["bogus"],
    ["ingest", "--bogus"],
    ["ingest"],
    [],
])
def test_usage_error_exit_code(args):
    proc = subprocess.run([sys.executable, "-m", "venturescape.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage: venturescape ")


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
    ("foo,notanumber",
     "ValueError: could not convert string to float: 'notanumber'"),
    ("foo", "IndexError: list index out of range"),
], ids=["count", "one_column"])
def test_malformed_lexicon_row_exit_code(tmp_path, row, error):
    config = fixture_copy(tmp_path, {})
    freq = config.parent / "general_freq.csv"
    lines = freq.read_text().splitlines()
    freq.write_text("\n".join(lines + [row]) + "\n")
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, f"input error: {freq}:{len(lines) + 1}: {error}")


def append_line(name, line):
    """A mutation that appends line to the input file name of the fixture
    copy; the error names that file and line."""
    def mutate(config, out, finished):
        path = config.parent / name
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join(lines + [line]) + b"\n")
        return config, out, f"{path}:{len(lines) + 1}"
    return mutate


def write_config(text):
    """A mutation that replaces the config file with text."""
    def mutate(config, out, finished):
        config.write_bytes(text)
        return config, out, config
    return mutate


def broken_manifest(text):
    """A mutation that runs on a copy of a finished output tree whose
    manifest.json holds text."""
    def mutate(config, out, finished):
        config, tree = finished
        shutil.copytree(tree, out)
        (out / "manifest.json").write_bytes(text)
        return config, out, out / "manifest.json"
    return mutate


def config_directory(config, out, finished):
    return config.parent, out, config.parent


def input_directory(config, out, finished):
    raw = yaml.safe_load(config.read_text())
    raw["paths"]["corpus"] = "."
    config.write_text(yaml.safe_dump(raw))
    return config, out, config.parent.resolve()


def out_file(config, out, finished):
    out.write_text("")
    return config, out, out


_COMPANY = b'{"id": "c99", "founded": "2014-01-01", '
_NOT_UTF8 = "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9"

# (mutation of a fixture copy, exit code, stderr line with {where} for the
# path or path:line that the mutation names)
FAILURES = {
    "manifest_not_json": (broken_manifest(b"not json"), 3,
                          "stale inputs: {where} is not a pipeline manifest; "
                          "delete it to rerun every stage"),
    "manifest_truncated": (broken_manifest(b'{"stages": {'), 3,
                           "stale inputs: {where} is not a pipeline manifest"),
    "manifest_empty_object": (broken_manifest(b"{}"), 3,
                              "stale inputs: {where} is not a pipeline "
                              "manifest"),
    "manifest_list": (broken_manifest(b"[]"), 3,
                      "stale inputs: {where} is not a pipeline manifest"),
    "config_directory": (config_directory, 4,
                         "config error: cannot read config file {where}: "
                         "Is a directory"),
    "input_directory": (input_directory, 4,
                        "config error: paths.corpus names a directory: "
                        "{where}"),
    "out_file": (out_file, 4, "config error: cannot make output directory "
                              "{where}: File exists"),
    "yaml_syntax": (write_config(b"paths:\n  corpus: a\n   bad: b\n"), 4,
                    "config error: invalid YAML in {where}, line 3, column "
                    "7: mapping values are not allowed here"),
    "config_not_utf8": (write_config(b"seed: caf\xe9\n"), 4,
                        "config error: {where} is not UTF-8: 'utf-8' codec "
                        "can't decode byte 0xe9"),
    "document_text_number": (
        append_line("corpus.jsonl",
                    b'{"id": "d99", "year": 2015, "text": 12345}'), 65,
        "input error: {where}: TypeError: text must be a string, got int"),
    "description_null": (
        append_line("companies.jsonl", _COMPANY + b'"description": null}'),
        65, "input error: {where}: TypeError: description must be a string, "
            "got NoneType"),
    "snapshot_text_number": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"snapshots": [{"date": "2015-01-01", "text": 7}]}'),
        65, "input error: {where}: TypeError: text must be a string, got int"),
    "document_id_list": (
        append_line("corpus.jsonl",
                    b'{"id": [1], "year": 2015, "text": "solar"}'), 65,
        "input error: {where}: TypeError: id must be a string, got list"),
    "source_misspelled": (
        append_line("corpus.jsonl", b'{"id": "d99", "year": 2015, '
                    b'"source": "patents", "text": "solar"}'), 65,
        "input error: {where}: ValueError: source must be news, patent or "
        "other, got 'patents'"),
    "company_id_null": (
        append_line("companies.jsonl", b'{"id": null, "founded": '
                    b'"2014-01-01", "description": "x"}'),
        65, "input error: {where}: TypeError: id must be a string, "
            "got NoneType"),
    "investor_id_null": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "seed", "date": "2015-05-01", '
                    b'"investors": [{"id": null, "keywords": ["ai"]}]}]}'),
        65, "input error: {where}: TypeError: id must be a string, "
            "got NoneType"),
    "events_mapping": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": {}}'),
        65, "input error: {where}: TypeError: events must be a list of "
            "objects, got dict"),
    "events_item_string": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": ["seed"]}'),
        65, "input error: {where}: TypeError: events must be a list of "
            "objects, got list"),
    "investors_string": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "seed", "date": "2015-05-01", '
                    b'"investors": "ab"}]}'),
        65, "input error: {where}: TypeError: investors must be a list of "
            "objects, got str"),
    "snapshots_string": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"snapshots": "ab"}'),
        65, "input error: {where}: TypeError: snapshots must be a list of "
            "objects, got str"),
    "year_bool": (
        append_line("corpus.jsonl",
                    b'{"id": "d99", "year": true, "text": "solar"}'), 65,
        "input error: {where}: TypeError: year must be int, got bool"),
    "year_fraction": (
        append_line("corpus.jsonl",
                    b'{"id": "d99", "year": 2015.5, "text": "solar"}'), 65,
        "input error: {where}: TypeError: year must be int, got float"),
    "year_string": (
        append_line("corpus.jsonl",
                    b'{"id": "d99", "year": "2015", "text": "solar"}'), 65,
        "input error: {where}: TypeError: year must be int, got str"),
    "industry_null": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"industry": null}'),
        65, "input error: {where}: TypeError: industry must be a string, "
            "got NoneType"),
    "keywords_string": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "seed", "date": "2015-05-01", '
                    b'"investors": [{"id": "i1", "keywords": "ai"}]}]}'),
        65, "input error: {where}: TypeError: keywords must be a list of "
            "words, got str"),
    "price_string": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "acquisition", '
                    b'"date": "2015-05-01", "price_usd": "900"}]}'),
        65, "input error: {where}: ValueError: price_usd must be a finite "
            "non-negative number, got '900'"),
    "price_negative": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "acquisition", '
                    b'"date": "2015-05-01", "price_usd": -5}]}'),
        65, "input error: {where}: ValueError: price_usd must be a finite "
            "non-negative number, got -5"),
    "founded_missing": (
        append_line("companies.jsonl", b'{"id": "c99", "description": "x"}'),
        65, "input error: {where}: ValueError: founded is required"),
    "founded_null": (
        append_line("companies.jsonl", b'{"id": "c99", "founded": null, '
                    b'"description": "x"}'),
        65, "input error: {where}: TypeError: founded must be a YYYY-MM-DD "
            "date, got NoneType"),
    "founded_year": (
        append_line("companies.jsonl", b'{"id": "c99", "founded": 2015, '
                    b'"description": "x"}'),
        65, "input error: {where}: TypeError: founded must be a YYYY-MM-DD "
            "date, got int"),
    "founded_no_such_day": (
        append_line("companies.jsonl", b'{"id": "c99", '
                    b'"founded": "2015-02-30", "description": "x"}'),
        65, "input error: {where}: ValueError: founded must be a YYYY-MM-DD "
            "date, got '2015-02-30'"),
    "company_line_list": (
        append_line("companies.jsonl", b'["c99", "x"]'), 65,
        "input error: {where}: TypeError: a record must be an object, got "
        "list"),
    "event_type_missing": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"date": "2015-05-01"}]}'),
        65, "input error: {where}: ValueError: type is required"),
    "event_type_unknown": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"events": [{"type": "exit", "date": "2015-05-01"}]}'),
        65, "input error: {where}: ValueError: type must be seed, "
            "early_round_a, early_round_b, later_round, ipo, acquisition or "
            "closure, got 'exit'"),
    "snapshot_date_missing": (
        append_line("companies.jsonl", _COMPANY + b'"description": "x", '
                    b'"snapshots": [{"text": "solar"}]}'),
        65, "input error: {where}: ValueError: date is required"),
    "document_text_missing": (
        append_line("corpus.jsonl", b'{"id": "d99", "year": 2015}'), 65,
        "input error: {where}: ValueError: text is required"),
    "company_id_repeated": (
        append_line("companies.jsonl", b'{"id": "c01", "founded": '
                    b'"2014-01-01", "description": "x"}'),
        65, "input error: {where}: id c01 repeats line 1"),
    "document_id_repeated": (
        append_line("corpus.jsonl",
                    b'{"id": "d0197", "year": 2015, "text": "solar"}'), 65,
        "input error: {where}: id d0197 repeats line 1"),
    "corpus_not_utf8": (
        append_line("corpus.jsonl",
                    b'{"id": "d99", "year": 2015, "text": "caf\xe9"}'),
        65, "input error: {where}: " + _NOT_UTF8),
    "companies_not_utf8": (
        append_line("companies.jsonl",
                    _COMPANY + b'"description": "caf\xe9"}'),
        65, "input error: {where}: " + _NOT_UTF8),
    "freq_csv_not_utf8": (append_line("patent_freq.csv", b"caf\xe9,3"), 65,
                          "input error: {where}: " + _NOT_UTF8),
    "tech_terms_not_utf8": (append_line("tech_terms.txt", b"caf\xe9"), 65,
                            "input error: {where}: " + _NOT_UTF8),
}


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """The config of a fixture copy and its finished run-all tree."""
    tmp = tmp_path_factory.mktemp("finished")
    config = fixture_copy(tmp, {})
    assert run_all(config, tmp / "out").returncode == 0
    return config, tmp / "out"


@pytest.mark.parametrize("mutate, code, message", FAILURES.values(),
                         ids=FAILURES.keys())
def test_failure_exit_code(tmp_path, finished, mutate, code, message):
    """Each failure ends run-all with its code and one stderr line."""
    config, out, where = mutate(fixture_copy(tmp_path, {}),
                                tmp_path / "out", finished)
    assert_one_line(run_all(config, out), code, message.format(where=where))


def file_size_limit(limit, cpus=None):
    """A preexec_fn that lets the child write no file past limit bytes,
    with SIGXFSZ ignored, so that a write past it fails with EFBIG instead
    of killing the child; and, given cpus, sets its usable cores."""
    def limited():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    return limited


def test_short_write_exit_code(tmp_path):
    """Past a 2,000-byte file-size limit ingest on the fixtures cannot
    write its PPMI slices in full: it exits 74 with one line naming the
    first slice's file, on one core as on all, and leaves no manifest and
    no .tmp-ingest behind."""
    lines = []
    for cpus in ({min(os.sched_getaffinity(0))}, None):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "venturescape.cli",
             *stage_args("ingest", out)], capture_output=True, text=True,
            env={**os.environ, "VENTURESCAPE_LOG": "WARNING",
                 "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=file_size_limit(2000, cpus))
        assert_one_line(proc, 74, f"io error: {out}/.tmp-ingest/"
                                  f"ppmi_000.bin: {os.strerror(errno.EFBIG)}")
        assert list(out.iterdir()) == []
        lines.append(proc.stderr)
        out.rmdir()
    assert lines[0] == lines[1]


@pytest.mark.parametrize("stage, name", [
    ("ingest", "vocab.tsv"), ("ingest", "ppmi_000.bin"),
    ("ingest", "ppmi_002.bin"), ("train", "embeddings.bin"),
    ("atoms", "atoms_000.tsv"), ("measure", "panel.csv"),
    ("validate", "validation.json"), ("report", "report.json"),
    ("report", "manifest.json.tmp"),
])
def test_each_cut_artifact_fails_its_stage(tmp_path, finished, stage, name):
    """A forced rerun of a stage on a finished tree, under a file-size
    limit one byte below the file name's size there, exits 74 naming the
    file; it is the first file the stage writes past the limit. Every file
    of the tree keeps its bytes, and no .tmp-<stage> or manifest.json.tmp
    is left."""
    config, done = finished
    out = shutil.copytree(done, tmp_path / "out")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    limit = len(before[name.removesuffix(".tmp")]) - 1
    proc = subprocess.run(
        [sys.executable, "-m", "venturescape.cli", stage, "--config",
         str(config), "--out", str(out), "--force"], capture_output=True,
        text=True, env={**os.environ, "VENTURESCAPE_LOG": "WARNING",
                        "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=file_size_limit(limit))
    where = out / (name if name.endswith(".tmp") else f".tmp-{stage}/{name}")
    assert_one_line(proc, 74, f"io error: {where}: "
                              f"{os.strerror(errno.EFBIG)}")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_readme_lists_every_exit_code():
    """The README's exit-code table holds one row per (code, stderr label)
    of each Failure class, plus success, a missing input and usage."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| Code | Stderr starts with | Causes |\n")[1]
    rows = set()
    for line in table.split("\n\n")[0].splitlines()[1:]:
        code, label = line.split(" | ")[:2]
        rows.add((int(code.lstrip("| ")),
                  None if label == "—" else label.strip("`:")))
    for name in SUBMODULES:  # reading an attribute runs a lazy module
        getattr(importlib.import_module(f"venturescape.{name}"), "__name__")
    failures, classes = set(), [Failure]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        failures.add((getattr(cls, "code", None), cls.label))
    failures.discard((None, None))  # Failure itself declares no code
    assert rows == failures | {(0, None), (4, "missing input"), (64, None),
                               (130, None)}


def test_readme_lists_every_least_value():
    """The README's settings table has one row per YAML key of
    config.SETTINGS, a cooccurrence.weights source each, and no other. Each
    row gives its setting's declared default and the words of its declared
    rule: its least value, finite too or not, its choices or its predicate;
    a row without a declared rule names no least value."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| Setting | Default | Range |\n")[1].split("\n\n")[0]
    lines = table.splitlines()[1:]
    rows = {}
    for line in lines:
        setting, default, rule = line.strip("| ").split(" | ")
        rows[setting.strip("`")] = default, rule.replace("`", "")
    declared = {}
    for key, f in SETTINGS.items():
        default = f.default if f.default_factory is MISSING \
            else f.default_factory()
        words = (f.metadata.get("rule") or (None,))[0]
        fallback = f.metadata.get("fallback")
        read = field_reader(key, f)
        if f.metadata.get("per_key"):  # each source's cell, read as one
            declared.update({f"{key}.{name}": (
                lambda v, name=name, read=read: read({name: v})[name],
                value, words, None) for name, value in default.items()})
        else:
            declared[key] = read, default, words, fallback
    assert len(rows) == len(lines)
    assert rows.keys() == declared.keys()
    for key, (read, default, words, fallback) in declared.items():
        cell, rule = rows[key]
        if words:
            assert rule == words, key
        else:
            assert not re.match(r"(finite and )?>= \d", rule), key
        if default is MISSING:
            assert cell == "required", key
        elif fallback:
            assert cell == f"`{fallback}`", key
        elif default is not None:
            assert read(yaml.safe_load(cell.strip("`"))) == default, key


def test_atoms_count_above_vocabulary_exit_code(tmp_path):
    config = fixture_copy(tmp_path, {"atoms": {"count": 100000}})
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 4, "config error: atoms.count 100000 exceeds the "
                             "vocabulary size")


@pytest.mark.parametrize("sections, message", [
    ({"cooccurrence": {"window": 0}}, "cooccurrence.window must be >= 1"),
    ({"cooccurrence": {"shift": 0.5}},
     "cooccurrence.shift must be finite and >= 1"),
    ({"cooccurrence": {"shift": math.inf}},
     "cooccurrence.shift must be finite and >= 1"),
    ({"vocab": {"min_count": 0}}, "vocab.min_count must be >= 1"),
    ({"cooccurrence": {"weights": {"news": 0.0, "patent": 1.0}}},
     "cooccurrence.weights.news must be finite and > 0"),
    ({"cooccurrence": {"weights": {"news": math.inf, "patent": 1.0}}},
     "cooccurrence.weights.news must be finite and > 0"),
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
    ({"train": {"gamma": -5}}, "train.gamma must be finite and >= 0"),
    ({"train": {"gamma": math.inf}}, "train.gamma must be finite and >= 0"),
    ({"train": {"k": 0}}, "train.k must be >= 1"),
    ({"train": {"sweeps": 0}}, "train.sweeps must be >= 1"),
    ({"train": {"lambda": -1}}, "train.lambda must be finite and >= 0"),
    ({"train": {"lambda": math.inf}}, "train.lambda must be finite and >= 0"),
    ({"train": {"tau": -1}}, "train.tau must be finite and >= 0"),
    ({"train": {"tau": math.inf}}, "train.tau must be finite and >= 0"),
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
    ({"seed": -1}, "seed must be >= 0"),
    ({"train": {"seed": -1}}, "train.seed must be >= 0"),
    ({"atoms": {"seed": -1}}, "atoms.seed must be >= 0"),
    ({"train": {"k": 2.5}}, "train.k must be int"),
    ({"train": {"k": True}}, "train.k must be int"),
    ({"vocab": {"min_count": "3"}}, "vocab.min_count must be int"),
    ({"cooccurrence": {"weights": {"news": True, "patent": 1.0}}},
     "cooccurrence.weights.news must be finite and > 0"),
    ({"train": {"tol": True}}, "train.tol must be float"),
    ({"train": {"lambda": math.nan}}, "train.lambda must be finite and >= 0"),
    ({"train": {"tol": -1.0}}, "train.tol must be >= 0"),
    ({"train": {"tol": math.nan}}, "train.tol must be >= 0"),
], ids=["window", "shift", "infinite_shift", "min_count", "weight",
        "infinite_weight", "rare_percentile", "top_price_share",
        "zero_top_price_share", "lookback_years", "min_module_size",
        "freq_ratio_threshold", "gamma", "infinite_gamma", "k", "sweeps",
        "lambda", "infinite_lambda", "tau", "infinite_tau", "count",
        "sparsity", "method",
        "width", "year_max", "iterations", "quantiles", "k_not_int",
        "quoted_bool", "stopwords_string", "drift_words_string",
        "bigram_string", "bigram_triple", "profit_loss_list",
        "profit_loss_one_side", "analogy_pair", "seed", "train_seed",
        "atoms_seed", "k_fraction", "k_bool", "min_count_string",
        "weight_bool", "tol_bool", "lambda_nan", "tol_negative", "tol_nan"])
def test_out_of_range_setting_exit_code(tmp_path, sections, message):
    proc = run_all(fixture_copy(tmp_path, sections), tmp_path / "out")
    assert_one_line(proc, 4, f"config error: {message}, got ")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("sections, key", [
    ({"train": {"lamda": 0.1}}, "train.lamda"),
    ({"cooccurrence": {"weights": {"news": 1.0, "patnet": 2.0}}},
     "cooccurrence.weights.patnet"),
    ({"vocabulary": {"min_count": 3}}, "vocabulary"),
    ({"paths": {"out": "elsewhere"}}, "paths.out"),
    ({1: "x"}, "1"),
], ids=["train_key", "weight_source", "section", "paths_out", "number_key"])
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
    """A shift that clips every PMI leaves no evidence to train on; the
    line names the largest PMI, ln(c D / (m_i m_j)), over every pair."""
    config = fixture_copy(tmp_path, {"cooccurrence": {"shift": 1e6}})
    cfg = load_config(config)
    _, counts = ingest(read_documents(cfg.corpus_path), cfg.tokens,
                       cfg.slices, cfg.min_count, cfg.window,
                       cfg.source_weights)
    largest = max(math.log(c * cc.total_mass / (cc.marginals[i]
                                                 * cc.marginals[j]))
                  for cc in counts
                  for i, j, c in zip(cc.row, cc.col, cc.data))
    assert 0 < largest < math.log(1e6)
    proc = run_all(config, tmp_path / "out")
    assert_one_line(proc, 65, "input error: every slice's PPMI matrix is "
                              "empty at cooccurrence.shift 1000000.0; the "
                              f"largest PMI of any pair is {largest:.6g}")
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


@pytest.mark.parametrize("level, shown", [
    ("DEBUG", True), ("INFO", True), ("verbose", True), ("WARNING", False),
    ("error", False),
])
def test_progress_line_follows_log_level(tmp_path, level, shown):
    """A clean ingest writes its one progress line unless VENTURESCAPE_LOG
    is WARNING or above; a value that names no level means INFO."""
    out = tmp_path / "out"
    proc = cli(*stage_args("ingest", out), log=level)
    assert proc.returncode == 0, proc.stderr
    written = len(manifest_stages(out)["ingest"]["outputs"])
    assert proc.stderr.splitlines() == (
        [f"INFO venturescape: stage ingest: wrote {written} artifacts"]
        if shown else [])


@pytest.mark.parametrize("section, value, extra", [
    ("train", 5, []),
    ("train", 5, ["--seed", "3"]),
    ("atoms", 5, ["--seed", "3"]),
    ("train", 0, []),
], ids=["train", "train_seed_option", "atoms_seed_option", "train_zero"])
def test_section_not_a_mapping_exit_code(tmp_path, section, value, extra):
    """--seed puts a mapping in train and atoms; a section that is not one
    is refused all the same, a false one too."""
    config = fixture_copy(tmp_path, {section: value})
    proc = cli("run-all", "--config", str(config), "--out",
               str(tmp_path / "out"), *extra)
    assert_one_line(proc, 4, f"config error: {section} must be a mapping")
    assert not (tmp_path / "out").exists()


def test_interrupt_exit_code(tmp_path, monkeypatch, capsys):
    """Ctrl-C in a stage ends the run with one line and exit 130; the
    stage's temporary directory is removed and the manifest is untouched."""
    from venturescape import cli as cli_module, pipeline

    monkeypatch.setenv("VENTURESCAPE_LOG", "WARNING")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as done:
        cli_module.main(list(stage_args("ingest", out)))
    assert done.value.code == 0
    manifest = (out / "manifest.json").read_bytes()

    def interrupted(cfg, out_dir, tmp_dir):
        (tmp_dir / "embeddings.bin").write_bytes(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setitem(pipeline.STAGES, "train",
                        replace(pipeline.STAGES["train"], run=interrupted))
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        cli_module.main(list(stage_args("run-all", out)))
    assert done.value.code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not (out / ".tmp-train").exists()
    assert (out / "manifest.json").read_bytes() == manifest


def test_negative_seed_option_exit_code(tmp_path):
    proc = cli("run-all", "--config", CONFIG, "--out", str(tmp_path / "out"),
               "--seed", "-1")
    assert_one_line(proc, 4, "config error: train.seed must be >= 0, got -1")
    assert not (tmp_path / "out" / "manifest.json").exists()


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


@pytest.mark.parametrize("sections, extra", [
    ({}, ["--out", ""]),
    ({"out": ""}, []),
], ids=["option", "config"])
def test_empty_out_exit_code(tmp_path, sections, extra):
    """An empty --out would name the working directory, an empty out: the
    config file's directory; both are refused before anything is written."""
    config = fixture_copy(tmp_path, sections)
    work = tmp_path / "work"
    work.mkdir()
    inputs = sorted(config.parent.iterdir())
    proc = subprocess.run([sys.executable, "-m", "venturescape.cli",
                           "ingest", "--config", str(config), *extra],
                          capture_output=True, text=True, cwd=work,
                          env=src_env())
    assert_one_line(proc, 4, "config error: out must not be empty")
    assert list(work.iterdir()) == []
    assert sorted(config.parent.iterdir()) == inputs


def src_env():
    """The environment of a CLI run from another working directory: this
    checkout's package on PYTHONPATH, progress lines off."""
    src = str(Path(venturescape.__file__).resolve().parents[1])
    return {**os.environ, "VENTURESCAPE_LOG": "WARNING",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_relative_out_resolves_against_working_directory(tmp_path):
    """A relative --out is under the working directory; a relative out: in
    the config file is under the config file's directory."""
    config = fixture_copy(tmp_path, {})
    work = tmp_path / "work"
    work.mkdir()
    env = src_env()
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

"""venturescape benchmark: runs the six pipeline stages the way users run them,
one ``python -m venturescape.cli <stage>`` process each, gates the outputs and
prints every metric by name with its unit.

    python3 bench/run.py --workload panel_heavy --seed 1 --seconds 24 --trace 0

One repetition removes ``--out``, runs the six stages (``total_s`` and the
per-stage wall time and peak RSS), runs them again on the unchanged tree,
where each must be a checksum-verified no-op (``noop_rerun_s``), and times
``venturescape --help`` (``setup_s``). Repetitions continue while another one
fits in ``--seconds``, at least MIN_REPS, and each metric is the median over
repetitions. Per-stage wall times are printed but are not end-to-end metrics:
on a shared machine their spread across seeds exceeds any allowed bound.

With ``--trace 1`` untraced and traced repetitions alternate. A traced
repetition runs each stage under bench/tracer.py and the per-layer metrics
are its call counts and times, plus the untraced per-stage wall times
(``stage.<stage>_s``); ``trace.overhead_ratio`` is the traced ``total_s``
over the untraced one.

Inputs come from bench/generate.py and the seed. They and the output tree
live at a fixed path per workload under .bench_work/ in the checkout, because
stage hashes include absolute input paths; logs, traces and results are kept
outside the output tree so it stays byte-comparable. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STAGES = ("ingest", "train", "atoms", "measure", "validate", "report")
TIMED_STAGES = STAGES[:4]  # validate and report are mostly start-up
MIN_REPS = 3
MIN_TRACE_REPS = 2
RUN_LIMIT_S = 165  # every invocation is killed by then; the run must end in 180
# Set before numpy loads in the child: the CLI's --threads sets them too late.
THREAD_ENV = {v: str(len(os.sched_getaffinity(0)))
              for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}


def _repeat(body, seconds: float, minimum: int):
    """Call body(i) at least ``minimum`` times, then while a call of typical
    length still ends within ``seconds``."""
    t0 = time.perf_counter()
    durations = []
    while len(durations) < minimum or \
            time.perf_counter() - t0 + statistics.median(durations) <= seconds:
        t = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - t)


def environment() -> dict:
    """Machine, thread settings, package versions and source identity."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy", "click", "PyYAML"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        "packages": versions,
        "git_sha": sha,
        "source_digest": source_digest(),
    }


def source_digest() -> str:
    """sha256 over the package sources; identifies the code under test in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "venturescape").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Invocation:
    """One finished child process, measured from its own wait4 record."""

    rc: int
    start: float
    wall_s: float
    rss_mb: float
    cpu_s: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.timed_out


def run_child(argv, env, log, timeout) -> Invocation:
    """Run argv to completion. Peak RSS and CPU time come from wait4 on this
    child alone; RUSAGE_CHILDREN would report the largest child so far."""
    fired = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=subprocess.STDOUT)

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.1), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, t0, wall, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, fired.is_set())


def _valid(value: str, spec: dict) -> bool:
    """One CSV cell against one PANEL_SCHEMA property."""
    if "enum" in spec:
        return value in {str(e) for e in spec["enum"]}
    types = spec.get("type", [])
    types = [types] if isinstance(types, str) else types
    if value == "":
        return "null" in types or ("string" in types and "format" not in spec)
    try:
        if "integer" in types:
            v = int(value)
        elif "number" in types:
            v = float(value)
            if not math.isfinite(v):
                return False
        else:
            if spec.get("format") == "date":
                date.fromisoformat(value)
            return "string" in types
    except ValueError:
        return False
    return spec.get("minimum", v) <= v <= spec.get("maximum", v)


def check_panel(out: Path, expected: dict) -> list:
    """Problems with panel.csv: schema types and bounds, and the planted row,
    censored-episode and rejected-company counts."""
    schema = json.loads((out / "panel_schema.json").read_text())["items"]
    props = schema["properties"]
    with open(out / "panel.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or []
        rows = list(reader)
    problems = []
    if sorted(columns) != sorted(schema["required"]):
        problems.append(f"panel columns {columns} != schema")
    for i, row in enumerate(rows):
        bad = [c for c in columns if c in props and not _valid(row[c], props[c])]
        if bad:
            problems.append(f"panel row {i + 2}: invalid {bad}")
            break
    censored = sum(r.get("outcome") == "censored" for r in rows)
    rejected = len(json.loads((out / "rejected_companies.json").read_text()))
    for name, got in (("rows", len(rows)), ("censored", censored),
                      ("rejected", rejected)):
        if got != expected[name]:
            problems.append(f"panel {name}: {got}, planted {expected[name]}")
    return problems


def tree_state(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): (st.st_ino, st.st_mtime_ns,
                                            st.st_size)
            for p in sorted(out.rglob("*")) if (st := p.stat())}


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        base = WORK / workload
        self.inputs = base / "inputs"
        self.out = base / "out"
        self.traces = base / "traces"
        self.config = self.inputs / "config.yaml"
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env.update(THREAD_ENV)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # stage -> output digests
        self.log = None

    def prepare(self):
        sys.path.insert(0, str(BENCH))
        import generate

        for d in (self.inputs, self.traces):
            shutil.rmtree(d, ignore_errors=True)
        self.traces.mkdir(parents=True)
        self.expected = generate.generate(self.workload, self.seed,
                                          self.inputs)
        inputs = hashlib.sha256()
        for path in sorted(self.inputs.iterdir()):
            inputs.update(path.name.encode() + b"\0" + path.read_bytes())
        # one record per source and generated inputs, kept across runs
        self.digest_file = (WORK / "digests" / f"{source_digest()}-"
                            f"{inputs.hexdigest()[:16]}.json")
        if self.digest_file.exists():
            self.reference = json.loads(self.digest_file.read_text())
        self.log = open(self.traces.parent / "stages.log", "w",
                        encoding="utf-8")

    def close(self):
        if self.log:
            self.log.close()

    def invoke(self, args, traced_as=None) -> Invocation:
        argv = [sys.executable]
        if traced_as:
            argv += [str(BENCH / "tracer.py"), "--spans",
                     str(self.traces / f"{traced_as}.json"),
                     "--parent", traced_as, "--"]
        else:
            argv += ["-m", "venturescape.cli"]
        self.log.write(f"$ {' '.join(args)}\n")
        self.log.flush()
        inv = run_child(argv + list(args), self.env, self.log,
                        self.deadline - time.perf_counter())
        self.attempted += 1
        if not inv.ok:
            self.fail(f"{' '.join(args)}: exit {inv.rc}"
                      + (" (timed out)" if inv.timed_out else ""))
        return inv

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def stage(self, name, traced_as=None) -> Invocation:
        return self.invoke([name, "--config", str(self.config),
                            "--out", str(self.out)], traced_as)

    def setup(self) -> float:
        return self.invoke(["--help"]).wall_s

    def rep(self, r: int, traced: bool) -> dict:
        """One clean pass, gated, then one no-op pass. The record holds the
        metrics and the runner's spans: repetition, pass, stage process."""
        shutil.rmtree(self.out, ignore_errors=True)
        rid = f"rep{r}"
        spans = []

        def run_pass(name):
            pid = f"{rid}.{name}"
            invs = {}
            for s in STAGES:
                before = tree_state(self.out) if name == "noop" else None
                inv = self.stage(s, traced and f"{pid}.{s}")
                invs[s] = inv
                spans.append([f"{pid}.{s}", pid, f"stage.{s}", inv.start,
                              inv.start + inv.wall_s])
                if before is not None and inv.ok and \
                        tree_state(self.out) != before:
                    self.fail(f"no-op rerun of {s} changed the output tree")
            spans.append([pid, rid, f"pass.{name}", invs[STAGES[0]].start,
                          spans[-1][4]])
            return invs

        clean = run_pass("clean")
        self.gate(clean)
        noop = run_pass("noop")
        spans.append([rid, None, "rep", spans[0][3], spans[-1][4]])
        rec = {"rep": r, "traced": traced, "spans": spans,
               "total_s": sum(inv.wall_s for inv in clean.values()),
               "noop_rerun_s": sum(inv.wall_s for inv in noop.values())}
        for s in STAGES:
            rec[f"{s}_s"] = clean[s].wall_s
            rec[f"{s}_rss_mb"] = clean[s].rss_mb
            rec[f"{s}_cpu_s"] = clean[s].cpu_s
        return rec

    def gate(self, clean: dict):
        if not all(inv.ok for inv in clean.values()):
            return  # already counted per invocation
        try:
            problems = check_panel(self.out, self.expected)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"panel check: {exc}"]
        if problems:
            self.fail("; ".join(problems))
        manifest = json.loads((self.out / "manifest.json").read_text())
        digests = {s: manifest["stages"][s]["outputs"] for s in STAGES}
        if self.reference is None:
            self.reference = digests
            self.digest_file.parent.mkdir(parents=True, exist_ok=True)
            self.digest_file.write_text(json.dumps(digests, indent=1))
        for s in STAGES:
            if digests[s] != self.reference[s]:
                self.fail(f"{s} output digests differ from an earlier run "
                          f"of this source and seed")


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_untraced(bench: Bench, seconds: float):
    bench.setup()  # warm-up for page cache and bytecode; not timed
    reps, setups = [], []

    def body(i):
        reps.append(bench.rep(i, traced=False))
        setups.append(bench.setup())

    _repeat(body, seconds, MIN_REPS)
    values = {key: statistics.median([r[key] for r in reps])
              for key in reps[0] if key.endswith(("_s", "_mb"))}
    values.update(stage_times(reps))
    values["setup_s"] = statistics.median(setups)
    return values, {"reps": reps, "setup_s": setups}


def stage_times(reps) -> dict:
    return {f"stage.{s}_s": statistics.median([r[f"{s}_s"] for r in reps])
            for s in TIMED_STAGES}


def run_traced(bench: Bench, seconds: float):
    import tracer

    reps, per_rep = [], []

    def body(i):
        traced = i % 2 == 1
        rec = bench.rep(i, traced=traced)
        reps.append(rec)
        if not traced:
            return
        files = sorted(bench.traces.glob(f"rep{i}.*.json"))
        loaded = [json.loads(f.read_text()) for f in files]
        stats = tracer.merge_stats([d["stats"] for d in loaded])
        missing = tracer.missing_layers(stats, STAGES)
        if missing:
            bench.fail(f"traced run recorded no call of {missing}")
        m = tracer.layer_metrics(stats, STAGES)
        m["trace.total_s"] = rec["total_s"]
        per_rep.append(m)
        write_trace(bench, rec, files, loaded)

    _repeat(body, seconds, MIN_TRACE_REPS)
    plain = [r for r in reps if not r["traced"]]
    untraced = statistics.median([r["total_s"] for r in plain])
    values = {key: statistics.median([m[key] for m in per_rep]) for key in per_rep[0]}
    values.update(stage_times(plain))
    values["trace.untraced_total_s"] = untraced
    values["trace.overhead_ratio"] = values["trace.total_s"] / untraced
    return values, {"reps": reps, "layers": per_rep}


def write_trace(bench: Bench, rec: dict, files, loaded):
    """One span tree per traced repetition: repetition, pass and stage
    process from the runner, then the layer spans recorded inside each
    process. A runner span's self time is its time minus its children's."""
    spans = [list(sp) for sp in rec["spans"]]
    runner = {sp[0]: sp for sp in spans}
    for data in loaded:
        spans.extend(data["spans"])
    child_time = {}
    for sp in spans:
        child_time[sp[1]] = child_time.get(sp[1], 0.0) + sp[4] - sp[3]
    for sid, sp in runner.items():
        sp.append(sp[4] - sp[3] - child_time.get(sid, 0.0))
    (bench.traces / f"trace-rep{rec['rep']}.json").write_text(json.dumps(
        {"spans_columns": ["id", "parent", "name", "start", "end", "self_s"],
         "spans": spans,
         "per_process_totals": {f.stem: d["stats"]
                                for f, d in zip(files, loaded)}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "venturescape" / "cli.py").is_file():
        print(f"venturescape sources not found under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_specs()
    sys.path.insert(0, str(BENCH))
    import generate

    if args.workload not in generate.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(generate.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    env = environment()
    try:
        bench.prepare()
        if args.trace:
            values, detail = run_traced(bench, args.seconds)
        else:
            values, detail = run_untraced(bench, args.seconds)
    finally:
        bench.close()
    specs = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            bench.fail(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env,
              "expected": bench.expected, "problems": bench.problems,
              "metrics": metrics, "detail": detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))

    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    width = max(len(n) for n in [*metrics, *stage_times(detail["reps"])])
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in stage_times(detail["reps"]).items():
            print(f"{name:<{width}}  {value:.6g} s (not bounded)")
    print(f"error_rate: {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.4g}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

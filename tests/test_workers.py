"""Ingest's and atoms' per-slice workers (workers.per_slice): results in
slice order, the lowest failing slice's failure, no worker left behind, and
output trees that depend neither on the number of usable cores nor on the
caller's BLAS threads or string hash seed.

The subprocess tests run the CLI through _PATCHED_CLI, which can replace
the usable cores that per_slice sees and force a failure or a stall in
chosen slices."""

import errno
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from venturescape.config import WorkerError
from venturescape.corpus import InputError
from venturescape.workers import per_slice

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG = str(FIXTURES / "config.yaml")
CORES = len(os.sched_getaffinity(0))
PROGRESS = re.compile(r"INFO venturescape: stage \w+: wrote \d+ artifacts")


@pytest.fixture()
def cores(monkeypatch):
    """Sets the usable cores that per_slice sees to range(n)."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cores


def no_children_left():
    """Whether this process has no child process, live or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_results_in_slice_order_from_every_process(cores, tmp_path, n):
    """Slice t runs in process t mod W, W = min(T, cores), which writes its
    own files; the summaries come back in slice order."""
    cores(n)

    def work(t):
        (tmp_path / f"s{t}").write_text(str(os.getpid()))
        return t * t, str(t)

    assert per_slice(5, work) == [(t * t, str(t)) for t in range(5)]
    pids = [int((tmp_path / f"s{t}").read_text()) for t in range(5)]
    W = min(5, n)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == W
    assert all(pids[t] == pids[t % W] for t in range(5))
    assert no_children_left()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowest_failing_slice_is_raised(cores, n):
    """Slices 1 and 2 fail, in a worker and in this process when n > 1:
    slice 1's failure is raised, with its class, as a serial loop raises
    it."""
    cores(n)

    def work(t):
        if t:
            raise InputError(f"slice {t} failed")
        return t

    with pytest.raises(InputError, match="^slice 1 failed$"):
        per_slice(4, work)
    assert no_children_left()


def test_write_error_crosses_the_pipe(cores, tmp_path):
    """A write failure in a worker is raised as the WriteError that names
    its path."""
    from venturescape.config import WriteError, writing

    cores(2)

    def work(t):
        with writing(tmp_path / f"s{t}"):
            if t == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(WriteError) as failed:
        per_slice(2, work)
    assert str(failed.value) == (f"{tmp_path / 's1'}: "
                                 f"{os.strerror(errno.ENOSPC)}")


def test_exception_that_does_not_pickle(cores):
    """A worker whose exception cannot cross the pipe sends no report: the
    call ends with WorkerError, status 1."""
    cores(2)

    class Local(Exception):
        pass

    def work(t):
        if t == 1:
            raise Local("no way back")

    with pytest.raises(WorkerError, match=(
            "^the worker of slices 1 ended without a report, with status "
            "1$")):
        per_slice(2, work)
    assert no_children_left()


def test_worker_that_ends_without_a_report(cores):
    """A worker killed before it reports ends the call with WorkerError,
    naming its slices and status; the other workers are stopped."""
    cores(3)

    def work(t):
        if t == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        if t == 2:
            time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(WorkerError, match=(
            r"the worker of slices 1, 4 ended without a report, with status "
            rf"-{int(signal.SIGKILL)}")):
        per_slice(6, work)
    assert time.perf_counter() - start < 30
    assert no_children_left()


# Runs per_slice over six slices on two processes; each slice leaves the
# file <t>-<pid> in the directory sys.argv[1] and then takes a second.
_SLOW_SLICES = """
import os, sys, time
from venturescape.workers import per_slice
os.sched_getaffinity = lambda pid: {0, 1}
def work(t):
    open(os.path.join(sys.argv[1], f"{t}-{os.getpid()}"), "w").close()
    time.sleep(1)
per_slice(6, work)
"""


def running(pid):
    """Whether pid names a process that has not ended; an unreaped one has
    ended."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_worker_of_a_killed_stage_starts_no_slice(tmp_path):
    """A worker whose stage process is killed outright finishes the slice
    it is in, starts no other and exits."""
    proc = subprocess.Popen([sys.executable, "-c", _SLOW_SLICES,
                             str(tmp_path)])
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("1-*")):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    worker = int(next(tmp_path.glob("1-*")).name.split("-")[1])
    deadline = time.monotonic() + 30
    while running(worker):
        assert time.monotonic() < deadline
        time.sleep(0.05)
    assert not list(tmp_path.glob("3-*")) + list(tmp_path.glob("5-*"))


# Runs the CLI on sys.argv[3:] with the usable cores set to range(sys.argv[1])
# and, after the stages named in sys.argv[2] (comma-separated), forces a
# failure or a stall in the slices t >= 1 of that stage: "ingest" raises an
# InputError from counting slice t, "atoms" fails the write of
# atoms_<t>.npy with ENOSPC, and "stall" makes atoms record its pid in
# $STALL_DIR and sleep in every slice.
_PATCHED_CLI = """
import contextlib, errno, os, sys, time
import venturescape.cli as cli
from venturescape import atoms, config, corpus, storage
cores, forced = int(sys.argv[1]), sys.argv[2].split(",")
os.sched_getaffinity = lambda pid: set(range(cores))
if "ingest" in forced:
    count = corpus.count_cooccurrence
    def count_cooccurrence(tokenized, vocab, t, *args):
        if t >= 1:
            raise corpus.InputError(f"forced failure in slice {t}")
        return count(tokenized, vocab, t, *args)
    corpus.count_cooccurrence = count_cooccurrence
if "atoms" in forced:
    real = storage.artifact
    @contextlib.contextmanager
    def artifact(path, *args, **kwargs):
        if path.suffix == ".npy" and not path.name.endswith("000.npy"):
            with config.writing(path):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        with real(path, *args, **kwargs) as fh:
            yield fh
    storage.artifact = artifact
if "stall" in forced:
    def train_atoms(U_slice, cfg):
        open(os.path.join(os.environ["STALL_DIR"], str(os.getpid())),
             "w").close()
        time.sleep(120)
    atoms.train_atoms = train_atoms
cli.main(sys.argv[3:])
"""


def patched_cli(cores, forced, *args, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-c", _PATCHED_CLI, str(cores), ",".join(forced),
         *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "VENTURESCAPE_LOG": "WARNING",
             **kwargs.pop("env", {})}, **kwargs)


@pytest.mark.parametrize("stage, code, line", [
    ("ingest", 65, "input error: forced failure in slice 1"),
    ("atoms", 74, "io error: {out}/.tmp-atoms/atoms_001.npy: "
                  f"{os.strerror(errno.ENOSPC)}"),
])
def test_worker_failure_is_the_serial_failure(tmp_path, stage, code, line):
    """A failure forced in the slices t >= 1 of a stage ends run-all on two
    processes with the stderr line and exit code of a serial run: slice
    1's, raised in the worker, although slice 2 fails in the stage process
    too. The stage leaves no .tmp-<stage> and no manifest entry."""
    results = []
    for cores in (1, 2):
        out = tmp_path / "out"
        proc = patched_cli(cores, [stage], "run-all", "--config", CONFIG,
                      "--out", str(out))
        _, err = proc.communicate(timeout=300)
        manifest = out / "manifest.json"
        stages = json.loads(manifest.read_text())["stages"] \
            if manifest.exists() else {}
        results.append((proc.returncode, err, sorted(stages),
                        sorted(p.name for p in out.iterdir())))
        os.rename(out, tmp_path / f"out-{cores}")
    assert results[0] == results[1]
    assert results[0][:2] == (code, line.format(out=out) + "\n")
    assert stage not in results[0][2]
    assert f".tmp-{stage}" not in results[0][3]


@pytest.mark.parametrize("group", [False, True], ids=["stage", "group"])
def test_interrupt_during_two_worker_atoms(tmp_path, group):
    """SIGINT to the stage process, or to its whole process group as Ctrl-C
    sends it, while both processes of atoms are in a slice: exit 130 with
    the one line "interrupted", no .tmp-atoms, no atoms manifest entry and
    no process left behind."""
    stalls, out = tmp_path / "stalls", tmp_path / "out"
    stalls.mkdir()
    proc = patched_cli(2, ["stall"], "run-all", "--config", CONFIG, "--out",
                  str(out), env={"STALL_DIR": str(stalls)},
                  start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while len(list(stalls.iterdir())) < 2:
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        pids = sorted(int(p.name) for p in stalls.iterdir())
        assert proc.pid in pids
        if group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (130, "interrupted\n")
    assert not (out / ".tmp-atoms").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == ["ingest", "train"]
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_clean_run_prints_only_progress_lines(tmp_path):
    """A clean run-all, with every warning shown, prints nothing on stderr
    but its progress lines: no worker prints, and forking from the
    single-threaded stage process raises no DeprecationWarning (Python
    3.12 and later warn when a multi-threaded process forks)."""
    proc = subprocess.run(
        [sys.executable, "-m", "venturescape.cli", "run-all", "--config",
         CONFIG, "--out", str(tmp_path / "out")], capture_output=True,
        text=True, env={**os.environ, "VENTURESCAPE_LOG": "INFO",
                        "PYTHONWARNINGS": "default"})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 6 and all(PROGRESS.fullmatch(x) for x in lines), \
        proc.stderr


@pytest.fixture(scope="module")
def atoms_heavy(tmp_path_factory):
    """The inputs bench/generate.py writes for atoms_heavy, seed 1: the
    smallest generated workload whose atom bytes differ between one and
    two BLAS threads at a BLAS thread count left to the caller."""
    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).parents[1] / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generate  # dataclasses look their module up
    try:
        spec.loader.exec_module(generate)
        inputs = tmp_path_factory.mktemp("atoms_heavy")
        generate.generate("atoms_heavy", 1, inputs)
    finally:
        del sys.modules[spec.name]
    return inputs / "config.yaml"


def run_all_tree(config, out, env=(), preexec_fn=None) -> dict:
    """Every file of a run-all tree at out, manifest.json included, by
    relative path; the tree is removed, so that the next run may take the
    same path."""
    proc = subprocess.run(
        [sys.executable, "-m", "venturescape.cli", "run-all", "--config",
         str(config), "--out", str(out)], capture_output=True, text=True,
        env={**os.environ, "VENTURESCAPE_LOG": "WARNING", **dict(env)},
        preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    tree = {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    return tree


def test_tree_does_not_depend_on_blas_threads_or_hash_seed(atoms_heavy,
                                                           tmp_path):
    """c13 whatever the caller sets: OPENBLAS_NUM_THREADS 1 and 2 (the CLI
    pins one thread), PYTHONHASHSEED 0 and random."""
    trees = [run_all_tree(atoms_heavy, tmp_path / "out", env={
        "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
        "PYTHONHASHSEED": seed})
        for threads, seed in (("1", "0"), ("2", "0"), ("2", "random"),
                              ("1", "random"))]
    assert any(name.startswith("atoms_") for name in trees[0])
    for tree in trees[1:]:
        assert tree == trees[0]


@pytest.mark.skipif(CORES < 2, reason="needs two usable cores")
def test_tree_does_not_depend_on_the_usable_cores(atoms_heavy, tmp_path):
    """One usable core runs every slice in the stage process, all of them
    spread the slices over workers: the trees are byte-identical."""
    one = min(os.sched_getaffinity(0))
    serial = run_all_tree(atoms_heavy, tmp_path / "out",
                          preexec_fn=lambda: os.sched_setaffinity(0, {one}))
    assert run_all_tree(atoms_heavy, tmp_path / "out") == serial

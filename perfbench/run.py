"""Benchmark for xagsynth.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: it runs one op at a time,
and every op is a fresh process against this checkout's ``src/``, so an
op's time is what a user at a shell waits for and its peak memory is that
process's own. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same ops with timing shims installed (perfbench/tracer.py) and
prints the per-layer metrics. The last line of standard output is one JSON
object; results and traces are also kept under perfbench/_out/. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
PY = sys.executable

SETUP_REPEATS = 3  # setup_s is the median of this many fresh set-ups
OP_TIMEOUT_S = 60
STARTUP_SAMPLES = 5
NEGATIVE_CONTROL_N = 12
MIB = 1024  # ru_maxrss is in KiB


class BenchError(Exception):
    """The benchmark cannot run or measure here."""


class Op(NamedTuple):
    kind: str  # "cli": xagsynth CLI arguments; "convert": perfbench/convert.py paths
    args: list
    artifact: Path

    def argv(self) -> list[str]:
        if self.kind == "cli":
            return [PY, "-m", "xagsynth.cli", *self.args]
        return [PY, str(BENCH / "convert.py"), *self.args]


class Done(NamedTuple):
    wall_s: float
    maxrss_kib: int
    code: int
    stderr: str


def child_env(pycache: Path) -> dict:
    """The same interpreter settings on every commit: the checkout's src/
    first on the path, a run-private bytecode cache that set-up fills, and
    a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(pycache), PYTHONHASHSEED="0")
    return env


def run_process(argv: list[str], env: dict, stderr_path: Path) -> Done:
    """Run one process to its end; wall time and peak RSS come from wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(wall, usage.ru_maxrss, proc.returncode,
                stderr_path.read_text(errors="replace")[-2000:])


# -- workloads ----------------------------------------------------------------

class Workload:
    """One set of inputs. Parameters come from the seed alone."""

    deterministic = True  # every op writes the same bytes

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.check_seed = self.rng.randrange(1 << 32)

    def prepare(self, env: dict) -> None:
        """Make the inputs the ops read; part of set-up."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check_op(self, i: int, text: str) -> list[str]:
        """Per-op check for workloads whose artifacts differ between ops."""
        return []

    def check_artifact(self, text: str) -> list[str]:
        """Full independent check of one artifact."""
        raise NotImplementedError


class BuildExport(Workload):
    name = "build-export"
    BASE_N = 50_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.n = self.BASE_N + self.rng.randrange(-8, 9)

    def op(self, i):
        out = self.work / "circuit.bristol"
        return Op("cli", ["synth", "--n", str(self.n), "--format", "bristol",
                          "--out", str(out)], out)

    def check_artifact(self, text):
        return checker.check_bristol(text, self.n, self.check_seed)


class VerifyDense(Workload):
    name = "verify-dense"
    N = 20

    def op(self, i):
        out = self.work / "report.json"
        return Op("cli", ["verify", "--n", str(self.N), "--mode", "exhaustive",
                          "--expect-ands", str(2 * self.N - 3), "--report", str(out)], out)

    def check_artifact(self, text):
        return checker.check_report(text, self.N, inputs=1 << self.N,
                                    ands_expected=2 * self.N - 3)


class VerifySampled(Workload):
    name = "verify-sampled"
    deterministic = False
    N = 16384
    SAMPLES = 10000

    def op_seed(self, i: int) -> int:
        return random.Random(f"{self.seed}:op{i}").randrange(1 << 31)

    def op(self, i):
        out = self.work / "report.json"
        return Op("cli", ["verify", "--n", str(self.N), "--mode", "sample",
                          "--samples", str(self.SAMPLES), "--seed", str(self.op_seed(i)),
                          "--report", str(out)], out)

    def check_op(self, i, text):
        return checker.check_report(text, self.N, inputs=self.SAMPLES + self.N + 2,
                                    ands_expected=None, seed=self.op_seed(i))

    def check_artifact(self, text):
        return []  # every report is checked by check_op


class BristolToJson(Workload):
    name = "bristol-to-json"
    BASE_N = 10_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.n = self.BASE_N + self.rng.randrange(-8, 9)
        self.source = work / "source.bristol"
        self.source_digest = None

    def prepare(self, env):
        done = run_process([PY, "-m", "xagsynth.cli", "synth", "--n", str(self.n),
                            "--format", "bristol", "--out", str(self.source)],
                           env, self.work / "prepare.err")
        if done.code != 0:
            raise BenchError(f"writing the Bristol input failed: {done.stderr}")
        digest = hashlib.sha256(self.source.read_bytes()).hexdigest()
        if self.source_digest not in (None, digest):
            raise BenchError("the Bristol input differs between set-ups")
        self.source_digest = digest

    def op(self, i):
        out = self.work / "circuit.json"
        return Op("convert", [str(self.source), str(out)], out)

    def check_artifact(self, text):
        return (checker.check_bristol(self.source.read_text(), self.n, self.check_seed)
                + checker.check_json(text, self.n, self.check_seed))


WORKLOADS = {w.name: w for w in (BuildExport, VerifyDense, VerifySampled, BristolToJson)}


# -- one run ------------------------------------------------------------------

class Run:
    def __init__(self, workload: Workload, work: Path):
        self.wl = workload
        self.work = work
        self.reference: Path = work / "reference"  # first artifact of the run
        self.reference_digest = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set_up(self, k: int) -> tuple[dict, float]:
        """Fresh bytecode cache, the import check, the inputs and one
        untimed warm-up op; returns the child environment and its time."""
        start = time.perf_counter()
        env = child_env(self.work / f"pycache-{k}")
        where = self.work / "where.txt"
        done = run_process([PY, "-c", "import sys, xagsynth; sys.stderr.write(xagsynth.__file__)"],
                           env, where)
        expected = (SRC / "xagsynth" / "__init__.py").resolve()
        if done.code != 0 or Path(done.stderr).resolve() != expected:
            raise BenchError(f"xagsynth does not resolve to {expected}: {done.stderr}")
        self.wl.prepare(env)
        op = self.wl.op(-1)
        self.run_op(-1, op, op.argv(), env, counted=False)
        return env, time.perf_counter() - start

    def run_op(self, i: int, op: Op, argv: list[str], env: dict, counted: bool = True) -> Done:
        """Run one op and inspect its artifact. An op that is not counted
        in ``attempted`` stops the run if it fails."""
        done = run_process(argv, env, self.work / "op.err")
        if not counted and done.code != 0:
            raise BenchError(f"op {i} failed with exit {done.code}: {done.stderr}")
        self.attempted += counted
        if done.code != 0:
            self.failed += 1
            print(f"op {i} exited {done.code}: {done.stderr}", file=sys.stderr)
        else:
            self.inspect(i, op)
        return done

    def inspect(self, i: int, op: Op) -> None:
        """Untimed: compare the artifact with the run's first one, or check
        it on its own when artifacts differ between ops."""
        data = op.artifact.read_bytes()
        if self.reference_digest is None:
            self.reference_digest = hashlib.sha256(data).hexdigest()
            op.artifact.replace(self.reference)
        elif self.wl.deterministic and hashlib.sha256(data).hexdigest() != self.reference_digest:
            self.problems.append(f"op {i}: artifact differs from the run's first one")
        if not self.wl.deterministic:
            self.problems += [f"op {i}: {p}" for p in self.wl.check_op(i, data.decode())]

    def final_checks(self, env: dict) -> None:
        """Untimed: the full check of the first artifact, and a negative
        control that must make verify fail."""
        self.problems += self.wl.check_artifact(self.reference.read_text())
        n = NEGATIVE_CONTROL_N
        report = self.work / "negative.json"
        done = run_process([PY, "-m", "xagsynth.cli", "verify", "--n", str(n),
                            "--mode", "exhaustive", "--expect-ands", str(2 * n - 2),
                            "--report", str(report)], env, self.work / "negative.err")
        if done.code != 1 or not report.exists():
            self.problems.append(f"negative control exited {done.code}, expected 1")
        else:
            self.problems += [f"negative control: {p}" for p in checker.check_report(
                report.read_text(), n, inputs=1 << n, ands_expected=2 * n - 2, passed=False)]


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = []
    for k in range(SETUP_REPEATS):
        env, took = run.set_up(k)
        setups.append(took)
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        gc.collect()
        op = run.wl.op(i)
        done = run.run_op(i, op, op.argv(), env)
        rss.append(done.maxrss_kib)
        if done.code == 0:
            walls.append(done.wall_s)
        i += 1
    checks_start = time.perf_counter()
    run.final_checks(env)
    if not walls:
        raise BenchError("every op failed")
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "peak_rss_mib": max(rss) / MIB,
    }
    raw = {"setups_s": setups, "op_walls_s": walls, "op_maxrss_kib": rss,
           "checks_s": time.perf_counter() - checks_start}
    return metrics, raw


def measure_traced(run: Run, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    env, _ = run.set_up(0)
    tracer = BENCH / "tracer.py"
    spans_file = run.work / "spans.json"

    def traced(i: int, mode: str, counted: bool = True) -> tuple[Done, dict]:
        op = run.wl.op(i)
        done = run.run_op(i, op, [PY, str(tracer), str(spans_file), mode, op.kind, *op.args],
                          env, counted)
        return done, (json.loads(spans_file.read_text()) if done.code == 0 else None)

    _, memory_op = traced(-1, "memory", counted=False)
    startup = [run_process([PY, "-c", "import xagsynth.cli"], env, run.work / "startup.err").wall_s
               for _ in range(STARTUP_SAMPLES)]
    plain, timed, ops = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        gc.collect()
        op = run.wl.op(i)
        done = run.run_op(i, op, op.argv(), env)
        if done.code == 0:
            plain.append(done.wall_s)
        gc.collect()
        done, record = traced(i, "time")
        if record is not None:
            timed.append(done.wall_s)
            ops.append(record["spans"])
        i += 1
    checks_start = time.perf_counter()
    run.final_checks(env)
    if memory_op["missing"]:
        print(f"not found in this checkout, so not traced: {memory_op['missing']}",
              file=sys.stderr)
    if not timed or not plain:
        raise BenchError("every op failed")
    layers = layer_metrics(ops, memory_op["spans"])
    layers["cli.startup_s"] = statistics.median(startup)
    layers["trace.op_s"] = statistics.median(timed)
    layers["trace.overhead_s"] = layers["trace.op_s"] - statistics.median(plain)
    trace_path.write_text(json.dumps({"ops": [{"op": k, "spans": s} for k, s in enumerate(ops)],
                                      "memory_op": memory_op}))
    raw = {"startup_s": startup, "untraced_walls_s": plain, "traced_walls_s": timed,
           "checks_s": time.perf_counter() - checks_start}
    return layers, raw


def self_times(spans: list) -> dict:
    """Self time per span name: a span's duration minus its children's."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def layer_metrics(ops: list, memory_spans: list) -> dict:
    """Per-op medians over the traced ops: ``<span>.s`` is self time,
    ``<span>.calls`` a call count, ``*.peak_mib`` comes from the tracemalloc
    op, and any other name is a counter summed over the op's spans."""
    per_op = []
    for spans in ops:
        values: dict[str, float] = {}
        for name, t in self_times(spans).items():
            values[name + ".s"] = t
        for name, *_, counters in spans:
            values[name + ".calls"] = values.get(name + ".calls", 0) + 1
            for key, v in counters.items():
                values[key] = values.get(key, 0) + v
        per_op.append(values)
    peaks: dict[str, float] = {}
    for *_, counters in memory_spans:
        for key, v in counters.items():
            if key.endswith(".peak_mib"):
                peaks[key] = max(peaks.get(key, 0.0), v)
    names = {key for values in per_op for key in values}
    metrics = {key: statistics.median(values.get(key, 0) for values in per_op) for key in names}
    metrics.update(peaks)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xagsynth" / "__init__.py").is_file():
        print(f"error: no xagsynth sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload](args.seed, work), work)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, raw = measure_traced(run, args.seconds, results / f"{tag}.spans.json")
        else:
            values, raw = measure(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{tag}: {run.attempted} ops, {run.failed} failed, final checks "
          f"{raw['checks_s']:.1f} s", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    (results / f"{tag}.json").write_text(json.dumps({**result, "raw": raw}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

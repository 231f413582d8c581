#!/usr/bin/env python3
"""Layered benchmark for massbath.

Run from the repository root:

    python3 perfbench/run.py --workload figure-maps --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): figure-maps, thermal-maps, headlines. Each is
a closed loop with one client (one process, one thread, BLAS pinned to one
thread) that repeats the seeded batch of ops until --seconds have passed.
The package is imported from ./src of the checkout.

--trace 0 prints the end-to-end metrics: setup_s (median of five fresh
processes, from spawn to ready: import, input generation, the cheapest op of
each kind and route), wall_s (the batch with each op at its fastest
repetition), op_ms_p50/op_ms_p90 (over the ops' fastest repetitions),
peak_rss_mb. Timings are scaled to a reference machine's speed by a
calibration loop run before every op (see speed_factor). --trace 1 spends
half the time untraced and half with timing wrappers installed (tracing.py)
and prints the per-layer metrics.

The first batch of every run is checked op by op against independent
references (oracle.py); later batches must reproduce its outputs byte for
byte. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; the fixed epoch makes manifests repeatable.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "1700000000",
}
if __name__ == "__main__":
    os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
# Fastest time of calibration_loop() on the machine the bounds were set on
# (2 shared x86_64 vCPUs, Python 3.11.7).
CALIBRATION_REF_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    slot: int
    latency: float
    value: object = None
    error: str = ""
    digest: str = ""


def _spin() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        total += math.sqrt(i)
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> None:
    """Move this process to the allowed CPU that runs a short loop fastest.

    On a shared machine each core alternates, on a scale of seconds, between
    full speed and ~1.5x slower while a neighbour uses its sibling. The op
    loop is single-threaded, so running it on whichever core is fast right
    now is what keeps run-to-run spread small.
    """
    if len(ALLOWED_CPUS) < 2:
        return
    speed = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def calibration_loop() -> float:
    """Time of a fixed pure-Python loop: dict, tuple, repr and join.

    It runs no massbath code but the same kind of interpreter work as the
    ops, so it slows down with them when the machine is contended.
    """
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i, i * 0.5)] = repr(i * 1.1)
    ",".join(table.values())
    return time.perf_counter() - start


def speed_factor(calibrations: list[float]) -> float:
    """Scale from this run's speed to the reference machine's.

    Ops and the calibration loop slow down together under contention (their
    correlation was 0.9 over a three-minute trace), so timings multiplied by
    this factor move 5-7% where the raw fastest repetitions moved 40%.
    """
    return CALIBRATION_REF_S / min(calibrations)


class Runner:
    """Runs ops against the imported package and collects their outputs.

    With `pin`, each op starts on the fastest CPU right after a calibration
    loop, whose times are collected in `calibrations`.
    """

    def __init__(self, mb, tracer=None, pin=False):
        self.mb = mb
        self.tracer = tracer
        self.pin = pin
        self.calibrations: list[float] = []

    def call(self, op, outdir: Path):
        mb = self.mb
        p = op.params
        if op.kind == "lifetime":
            config = mb.FieldBathConfig.from_ratios(p["mass"], p["sep"])
            rates = mb.build_rate_matrix(mb.coefficients(config))
            initial = mb.XState.diagonal(p["e"], p["g"], p["a"], p["s"])
            taus = np.linspace(0.0, p["tmax"], p["samples"])
            events = mb.detect_events(mb.eigen_trajectory(initial, rates, taus), "concurrence")
            return events.death_times
        if op.kind == "enlargement":
            return mb.experiments.enlargement_factor(p["mass"])
        if op.kind == "threshold":
            return mb.experiments.thermal_generation_threshold(p["mass"])
        argv = list(op.argv)
        if op.kind != "verify":
            argv += ["--out", str(outdir / f"op{op.slot:02d}.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mb.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def run(self, op, outdir: Path) -> OpResult:
        if self.pin:
            pin_to_fastest_cpu()
            self.calibrations.append(calibration_loop())
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op.slot)
        try:
            value = self.call(op, outdir)
            error = ""
        except Exception as exc:  # an op that raises is counted as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end_op()
        latency = time.perf_counter() - start
        return OpResult(op.slot, latency, value, error)


def digest(op, result: OpResult, outdir: Path) -> str:
    """Fingerprint of an op's output: CSV and manifest bytes, or its value."""
    if op.kind in ("map-time-sep", "map-temp-sep", "evolve"):
        h = hashlib.sha256()
        csv_path = outdir / f"op{op.slot:02d}.csv"
        for path in (csv_path, csv_path.with_name(csv_path.name + ".manifest.json")):
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()
    return repr(result.value)


def run_batches(runner, ops, seconds: float, outdir_for) -> list[list[OpResult]]:
    """Repeat the batch until `seconds` have passed (at least once)."""
    batches = []
    deadline = time.perf_counter() + seconds
    while True:
        outdir = outdir_for(len(batches))
        outdir.mkdir(parents=True, exist_ok=True)
        results = [runner.run(op, outdir) for op in ops]
        for op, result in zip(ops, results):
            result.digest = digest(op, result, outdir)
        batches.append(results)
        if time.perf_counter() >= deadline:
            return batches


def best_latencies(batches: list[list[OpResult]]) -> np.ndarray:
    """Each op's fastest repetition in the run, in seconds.

    Interference from other work on the machine only ever slows an op down,
    so the fastest of several repetitions is the estimate that repeats.
    """
    return np.array([[r.latency for r in batch] for batch in batches]).min(axis=0)


def measure_setup(args) -> float:
    """Median time from spawning a fresh process to its first timed op,
    scaled to the reference machine's speed."""
    samples, calibrations = [], []
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        pin_to_fastest_cpu()
        calibrations.append(calibration_loop())
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {code}")
        samples.append(elapsed)
    return statistics.median(samples) * speed_factor(calibrations)


def check_outputs(mb, ops, first: list[OpResult], outdir: Path, seed: int):
    """Oracle verdict per slot: (ok, deviation, message)."""
    rng = np.random.default_rng([seed, 0x6f7261])
    massless = None
    verdicts = {}
    for op, result in zip(ops, first):
        if result.error:
            verdicts[op.slot] = oracle.Check(False, 0.0, result.error)
            continue
        csv_path = outdir / f"op{op.slot:02d}.csv"
        try:
            if op.kind == "map-time-sep":
                check = oracle.check_time_sep(mb, op, csv_path, rng)
            elif op.kind == "evolve":
                check = oracle.check_evolve(mb, op, csv_path, rng)
            elif op.kind == "map-temp-sep":
                check = oracle.check_temp_sep(mb, op, csv_path, rng)
            elif op.kind == "lifetime":
                check = oracle.check_lifetime(mb, op, result.value)
            elif op.kind == "enlargement":
                check = oracle.check_enlargement(op, result.value)
            elif op.kind == "threshold":
                if massless is None:
                    massless = mb.experiments.thermal_generation_threshold(0.0)
                check = oracle.check_threshold(result.value, massless)
            else:
                check = oracle.check_verify(result.value)
        except Exception as exc:  # an output the checker cannot digest fails
            check = oracle.Check(False, float("inf"), f"check raised {type(exc).__name__}: {exc}")
        verdicts[op.slot] = check
    return verdicts


def tally(batches: list[list[OpResult]], verdicts) -> tuple[int, int, float]:
    """(ops attempted, ops failed, share of repeats identical to the first).

    An op fails if it raised, if the first batch's output missed its oracle
    check, or if a later repetition's output differs from the first.
    """
    reference = {r.slot: r.digest for r in batches[0]}
    attempted = failed = repeats = identical = 0
    for index, batch in enumerate(batches):
        for result in batch:
            attempted += 1
            same = result.digest == reference[result.slot]
            if index:
                repeats += 1
                identical += same
            if result.error or not same or not verdicts[result.slot].ok:
                failed += 1
    return attempted, failed, identical / repeats if repeats else 1.0


def route_shares(ops, outdir: Path) -> dict[str, float]:
    """Share of map cells and trajectory rows per propagation route."""
    counts = {"closed_form": 0, "eigen": 0, "frozen": 0}
    total = 0
    for op in ops:
        csv_path = outdir / f"op{op.slot:02d}.csv"
        if op.kind == "evolve" and csv_path.exists():
            manifest = json.loads(csv_path.with_name(csv_path.name + ".manifest.json").read_text())
            method = manifest["params"].get("method")
            counts[method] = counts.get(method, 0) + op.params["steps"]
            total += op.params["steps"]
        elif op.kind.startswith("map") and csv_path.exists():
            with csv_path.open() as handle:
                for row in csv.DictReader(handle):
                    counts[row.get("method")] = counts.get(row.get("method"), 0) + 1
                    total += 1
    return {f"route.{k}_frac": counts[k] / total if total else 0.0
            for k in ("closed_form", "eigen", "frozen")}


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **{key: os.environ.get(key) for key in PINNED_ENV},
    }


def load_package():
    sys.path.insert(0, str(SRC))
    import massbath
    import massbath.cli  # noqa: F401  (imported for the CLI ops)

    return massbath


def probe(args, work: Path) -> int:
    mb = load_package()
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(mb)
    work.mkdir(parents=True)
    for op in workloads.warmup_ops(ops):
        result = runner.run(op, work)
        if result.error:
            raise RuntimeError(f"warm-up op failed: {result.error}")
    print("ready", flush=True)
    return 0


def run(args, work: Path) -> int:
    mb = load_package()
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(mb, pin=True)
    (work / "warmup").mkdir(parents=True)
    for op in workloads.warmup_ops(ops):
        runner.run(op, work / "warmup")

    def outdir_for(index):
        return work / ("first" if index == 0 else "repeat")

    metrics: dict[str, float] = {}
    if args.trace:
        batches = run_batches(runner, ops, args.seconds / 2, outdir_for)
        tracer = Tracer()
        tracer.install(mb)
        runner.tracer = tracer
        traced = run_batches(runner, ops, args.seconds / 2, lambda i: work / "repeat")
        tracer.uninstall()
        metrics.update(tracer.summary(len(traced)))
        # Per-layer numbers are per-batch averages, so they add up to this.
        metrics["trace.wall_s"] = statistics.fmean(sum(r.latency for r in b) for b in traced)
        metrics["trace.overhead_frac"] = (
            best_latencies(traced).sum() / best_latencies(batches).sum() - 1.0)
        batches += traced
        tracer.save(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz")
    else:
        setup_s = measure_setup(args)
        batches = run_batches(runner, ops, args.seconds, outdir_for)
        best = best_latencies(batches) * speed_factor(runner.calibrations)
        metrics.update(
            setup_s=setup_s,
            wall_s=float(best.sum()),
            op_ms_p50=float(np.percentile(best, 50)) * 1e3,
            op_ms_p90=float(np.percentile(best, 90)) * 1e3,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

    verdicts = check_outputs(mb, ops, batches[0], outdir_for(0), args.seed)
    attempted, failed, identical = tally(batches, verdicts)
    for slot, check in sorted(verdicts.items()):
        if not check.ok:
            print(f"op {slot} ({ops[slot].kind}) failed: {check.message}", file=sys.stderr)

    if args.trace:
        metrics.update(route_shares(ops, outdir_for(0)))
        metrics["check.out_dev_max"] = max(c.deviation for c in verdicts.values())
        metrics["check.csv_identical"] = identical
        metrics["check.failed_frac"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "massbath" / "__init__.py").is_file():
        print(f"massbath sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return probe(args, work) if args.setup_probe else run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

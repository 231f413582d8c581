"""Self-tests of the benchmark: metric names, a checker that is not vacuous,
trace accounting and the refusal to run without the package sources."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _map_op(slot: int) -> workloads.Op:
    axis = (0.5, 3.0, 2, "linear")
    argv = ["map", "time-sep", "--mass-ratio", "0.5", "--initial", "E"]
    argv += workloads._axis_args("tau", *axis) + workloads._axis_args("sep", *axis)
    params = dict(mass=0.5, temp=None, initial=workloads.NAMED_STATES["E"], tau=axis, sep=axis)
    return workloads.Op(slot, "map-time-sep", params, argv)


def _verify_op(slot: int, perturb: str) -> workloads.Op:
    return workloads.Op(slot, "verify", dict(seed=3),
                        ["verify", "--seed", "3", "--perturb", perturb])


def _run_batch(mb, ops, outdir: Path, tracer=None) -> list[run.OpResult]:
    runner = run.Runner(mb, tracer)
    results = [runner.run(op, outdir) for op in ops]
    for op, result in zip(ops, results):
        result.digest = run.digest(op, result, outdir)
    return results


def _corrupt_first_column(csv_path: Path) -> None:
    """Shift the concurrence of every smallest-separation cell by 1e-6 and
    refresh the manifest hash, so only the value check can notice."""
    lines = csv_path.read_text().splitlines()
    first_sep = lines[1].split(",")[1]
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[1] == first_sep:
            cells[2] = repr(float(cells[2]) + 1e-6)
            lines[i] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][0]["sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def test_printed_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = [(op.kind, op.argv, op.params) for op in workloads.build(name, 7)]
        again = [(op.kind, op.argv, op.params) for op in workloads.build(name, 7)]
        other = [(op.kind, op.argv, op.params) for op in workloads.build(name, 8)]
        assert first == again
        assert first != other


@pytest.mark.parametrize("broken", [False, True])
def test_failed_ops_are_counted(tmp_path, broken):
    mb = run.load_package()
    ops = [_verify_op(0, "1e-6" if broken else "0"), _map_op(1)]
    batch = _run_batch(mb, ops, tmp_path)
    if broken:
        _corrupt_first_column(tmp_path / "op01.csv")
    verdicts = run.check_outputs(mb, ops, batch, tmp_path, seed=0)
    attempted, failed, identical = run.tally([batch, batch], verdicts)
    assert attempted == 4
    assert failed == (4 if broken else 0)
    assert identical == 1.0
    if broken:
        assert "exit 1" in verdicts[0].message
        assert "off by" in verdicts[1].message


def test_traced_self_times_account_for_the_ops(tmp_path):
    mb = run.load_package()
    original = mb.xstate.EigenPropagator.state
    ops = [_map_op(0)] + [op for op in workloads.build("headlines", 1) if op.kind == "lifetime"]
    tracer = tracing.Tracer()
    tracer.install(mb)
    try:
        results = _run_batch(mb, ops, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert mb.xstate.EigenPropagator.state is original
    assert not any(r.error for r in results)
    summary = tracer.summary(1)
    assert summary["trace.hooks_missing"] == 0
    assert summary["xstate.trajectory.calls"] == 2
    self_times = sum(v for k, v in summary.items() if k.endswith(".s") or k == "trace.untraced_s")
    assert self_times == pytest.approx(sum(r.latency for r in results), rel=0.02)


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure-maps", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "headlines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Tests of the benchmark itself: span self time, smoke runs of every
workload, and the untraced run's freedom from wrappers.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import perlayer  # noqa: E402
from asrlab import adapt, losses, models  # noqa: E402
from spans import Tracer, is_wrapped, self_times, stage_of  # noqa: E402
from workloads import RECIPES, SIZES, WORKLOADS, Checks, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, name, parent, start, end):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "stage.run", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.0, 5.0),    # overlaps a: the union [1, 5] counts once
        _span(3, "c", 0, 8.0, 12.0),   # clipped to the parent's end
        _span(4, "d", 1, 1.5, 2.5),    # grandchild: only a's self time shrinks
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert stage_of(spans) == {0: "stage.run", 1: "stage.run", 2: "stage.run", 3: "stage.run", 4: "stage.run"}


def test_tracer_records_parents_and_restores_originals():
    tracer = Tracer()
    perlayer.install(tracer.wrap)
    try:
        assert adapt.ctc_loss is not losses.ctc_loss
        assert is_wrapped(models.LasModel.decode_logits)
        with tracer.span("stage.x"):
            with tracer.span("inner"):
                pass
    finally:
        tracer.restore()
    assert adapt.ctc_loss is losses.ctc_loss
    assert not any(is_wrapped(getattr(o, a)) for o, a in perlayer.traced_names())
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [("stage.x", None), ("inner", 0)]


def test_untraced_run_installs_no_wrapper(tmp_path):
    checks = Checks()
    wl = make_workload("ctc_recipe", SIZES["smoke"], seed=3)
    harness.measure_untraced(wl, SIZES["smoke"], 0.0, tmp_path, checks)
    assert "untraced run: no span wrapper installed" not in checks.failures
    assert checks.failures == []
    assert adapt.ctc_loss is losses.ctc_loss
    assert adapt.save_checkpoint is models.save_checkpoint


def _run(workload, trace, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = harness.GATED + harness.CKPT + (harness.RECIPE_ONLY if workload in RECIPES else ()) + (harness.FAILED_FRAC,)
    for name, unit, better in printed:
        assert any(line.split()[:1] == [name] and f" {unit}  ({better} is better)" in line
                   for line in proc.stdout.splitlines()), name

    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ctc_recipe", 0, cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

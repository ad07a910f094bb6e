"""Runs one workload untraced or traced and reports its metrics."""

from __future__ import annotations

import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from asrlab import adapt, losses

import perlayer
from spans import NullRecorder, Tracer, is_wrapped
from workloads import RECIPES, SIZES, WORKLOADS, Checks, fresh_dir, make_workload

# End-to-end metrics in the result line, which every workload reports: (name, unit, better)
GATED = (("setup_s", "s", "lower"), ("run_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
# Printed and kept in the report file only: checkpoint I/O is desk-size and
# sub-millisecond in the recipes, too noisy to bound there
CKPT = (("ckpt_save_s", "s", "lower"), ("ckpt_load_s", "s", "lower"))
# Printed and kept in the report file only: they apply to the recipes alone
RECIPE_ONLY = (("pretrain_frames_per_s", "frames/s", "higher"),
               ("finetune_frames_per_s", "frames/s", "higher"),
               ("tts_audio_s_per_s", "audio_s/s", "higher"), ("decode_ms_p50", "ms/utt", "lower"),
               ("decode_ms_tail", "ms/utt", "lower"), ("pretrain_loss", "loss/token", "lower"),
               ("finetune_loss", "loss/token", "lower"), ("test_wer", "ratio", "lower"),
               ("rescored_wer", "ratio", "lower"), ("oracle_wer", "ratio", "lower"))
FAILED_FRAC = ("failed_frac", "failed/attempted", "lower")


def environment(root: Path, blas_threads: int, nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": blas_threads, "nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "git_rev": git_rev(root)}


def git_rev(root: Path) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _no_wrappers() -> bool:
    return (adapt.ctc_loss is losses.ctc_loss
            and not any(is_wrapped(getattr(owner, attr)) for owner, attr in perlayer.traced_names()))


def _iterate(wl, inputs, work: Path, rec, checks: Checks) -> dict:
    run_dir = fresh_dir(work / "run")
    gc.collect()  # garbage of the previous iteration must not count against this one
    t0 = time.perf_counter()
    res = wl.iterate(inputs, run_dir, rec, checks)
    res["run_s"] = time.perf_counter() - t0
    return res


def measure_untraced(wl, size, seconds: float, work: Path, checks: Checks) -> tuple[dict, list[dict], dict]:
    """Median setup over size.setup_repeats, then iterations for `seconds`."""
    setup_s = []
    inputs = None
    for _ in range(size.setup_repeats):
        inputs = None  # free the previous inputs before building new ones
        gc.collect()
        setup_dir = fresh_dir(work / "setup")
        t0 = time.perf_counter()
        inputs = wl.setup(setup_dir)
        setup_s.append(time.perf_counter() - t0)

    iters: list[dict] = []
    start = time.perf_counter()
    while True:
        iters.append(_iterate(wl, inputs, work, NullRecorder(), checks))
        elapsed = time.perf_counter() - start
        if len(iters) >= wl.min_iterations and elapsed + iters[-1]["run_s"] > seconds:
            break
    checks.require(_no_wrappers(), "untraced run: no span wrapper installed")

    med = lambda key: statistics.median(it[key] for it in iters)  # noqa: E731
    values = {"setup_s": statistics.median(setup_s), "run_s": med("run_s"),
              "ckpt_save_s": med("ckpt_save_s"), "ckpt_load_s": med("ckpt_load_s"),
              "peak_rss_mb": peak_rss_mb()}
    extra = {"setup_runs_s": setup_s, "iterations": len(iters)}
    if "decode_latency_s" in iters[0]:
        lat = [x for it in iters for x in it["decode_latency_s"]]
        p = tail_percentile(len(lat))
        for key in ("pretrain_frames_per_s", "finetune_frames_per_s", "tts_audio_s_per_s"):
            values[key] = med(key)
        tail = float(np.percentile(lat, p))
        values["decode_ms_p50"] = 1000.0 * float(np.percentile(lat, 50))
        values["decode_ms_tail"] = 1000.0 * tail
        extra["decode_tail"] = {"percentile": p, "n": len(lat), "beyond": int(np.sum(np.asarray(lat) > tail))}
        for key in ("pretrain_loss", "finetune_loss", "test_wer", "rescored_wer", "oracle_wer"):
            values[key] = iters[0][key]
        extra["rescore_weights"] = iters[0]["rescore_weights"]
    return values, iters, extra


def measure_traced(wl, work: Path, checks: Checks) -> tuple[dict, list[dict], list[dict]]:
    """One untraced iteration, then setup and one iteration under the tracer."""
    inputs = wl.setup(fresh_dir(work / "setup"))
    base = _iterate(wl, inputs, work, NullRecorder(), checks)
    inputs = None
    gc.collect()
    tracer = Tracer()
    perlayer.install(tracer.wrap)
    try:
        setup_dir = fresh_dir(work / "setup")
        with tracer.span("stage.data"):
            inputs = wl.setup(setup_dir)
        traced = _iterate(wl, inputs, work, tracer, checks)
    finally:
        tracer.restore()
    per = perlayer.compute(tracer.spans, traced.get("step_ms", []), traced["run_s"] / base["run_s"])
    return per, [base, traced], tracer.spans


def _fmt_line(name, value, unit, better=None) -> str:
    tail = f"  ({better} is better)" if better else ""
    return f"  {name:<44} {value:>16.6g} {unit}{tail}"


def run_one(args, root: Path, env: dict) -> int:
    size = SIZES[args.size]
    wl = make_workload(args.workload, size, args.seed)
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    checks = Checks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    print(f"perfbench {tag}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            per, iters, spans = measure_traced(wl, work, checks)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per.items()}
            report_extra = {}
        else:
            values, iters, report_extra = measure_untraced(wl, size, args.seconds, work, checks)
            spans = None
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in GATED}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    if args.trace:
        for name, m in metrics.items():
            print(_fmt_line(name, m["value"], m["unit"]))
        full = metrics
    else:
        values[FAILED_FRAC[0]] = failed / attempted
        table = GATED + CKPT + (RECIPE_ONLY if args.workload in RECIPES else ()) + (FAILED_FRAC,)
        for name, unit, better in table:
            print(_fmt_line(name, values[name], unit, better))
        if "decode_tail" in report_extra:
            t = report_extra["decode_tail"]
            print(f"  decode_ms_tail is p{t['percentile']} of n={t['n']} utterance decodes")
        full = {name: {"value": values[name], "unit": unit, "better": better} for name, unit, better in table}
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for what in checks.failures:
        print(f"  FAILED: {what}")

    out_dir.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "env": env, "metrics": full, "checks_failed": checks.failures,
              "stage_s": [it["stage_s"] for it in iters], "run_s": [it["run_s"] for it in iters],
              **report_extra}
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, run_py: Path) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(run_py), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(args, root: Path, blas_threads: int, nproc: int) -> int:
    if args.workload == "all":
        return run_all(args, root / "perfbench" / "run.py")
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, root, environment(root, blas_threads, nproc))

"""Repeat a workload for the run's seconds and turn the repeats into metrics.

End-to-end runs (--trace 0) wrap only the two phase functions, which costs
a handful of calls per repeat. Traced runs (--trace 1) alternate fully
traced repeats with repeats that wrap nothing; the wall ratio of the two is
the tracing overhead. Every repeat's reproducible artifacts must hash the
same as the first repeat's, traced or not; a repeat that raises, fails its
checks or hashes differently counts as failed.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 7
# Repeats a run makes whatever --seconds says: two, so that artifacts can be
# compared, and traced, untraced, traced when tracing.
MIN_REPEATS = 2
MIN_TRACED_REPEATS = 3
# No repeat starts if a typical one would end past this point of the run.
HARD_LIMIT_S = 140.0


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    """Hash of src/ukd/*.py; identifies the code when the checkout has no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ukd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas_threads() -> int | None:
    """The thread count OpenBLAS reports, when numpy bundles a known build."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: workloads.Workload, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "seed_block": workload.block(seed),
    }


def setup_seconds(workload: workloads.Workload, seed: int, work: Path) -> list[float]:
    """Fresh interpreter to first training step, SETUP_PROBES times.

    One untimed probe goes first to fill the bytecode and page caches, a cost
    a user pays once per install rather than once per run.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        argv = workload.argv(seed, work / f"probe{i}")
        cmd = [sys.executable, str(HERE / "probe.py"), *argv]
        started = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout.split()[-1]) - started)
    return times


class Repeats:
    """Whole-workload repeats of one run, and what each produced."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.tracer = spans.Tracer()
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.walls: list[float] = []
        self.reps: list[spans.Repeat] = []
        self.traced: list[bool] = []
        self.digest: str | None = None
        self.val_top1: tuple[float, float] | None = None

    def more(self, minimum: int, seconds: int) -> bool:
        """Whether to start another repeat: below the minimum, or one fits."""
        if self.attempted < minimum:
            return True
        typical = statistics.median(self.walls) if self.walls else 0.0
        elapsed = time.perf_counter() - self.started
        return elapsed + typical <= min(seconds, HARD_LIMIT_S)

    def run(self, targets, traced: bool) -> None:
        out_dir = self.work / f"rep{self.attempted}"
        argv = self.workload.argv(self.seed, out_dir)
        self.attempted += 1
        gc.collect()
        restore = spans.install(self.tracer, targets)
        try:
            started = time.perf_counter()
            workloads.run(argv)
            wall = time.perf_counter() - started
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            return
        finally:
            restore()
            rep = self.tracer.take()
        try:
            val = workloads.check(self.workload, self.seed, out_dir)
            digest = workloads.digest(out_dir)
            if self.digest not in (None, digest):
                raise workloads.CheckFailed(f"artifact digest {digest} differs from "
                                            f"the first repeat's {self.digest}")
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as err:
            self.failed += 1
            print(f"perfbench: repeat {self.attempted - 1}: {err}", file=sys.stderr)
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.digest, self.val_top1 = digest, val
        self.walls.append(wall)
        self.reps.append(rep)
        self.traced.append(traced)


def end_to_end(workload, seed: int, seconds: int, work: Path):
    setup = setup_seconds(workload, seed, work)
    repeats = Repeats(workload, seed, work)
    while repeats.more(MIN_REPEATS, seconds):
        repeats.run(spans.PHASES, traced=False)
    if not repeats.reps:
        return repeats, None, {}
    rows_teacher, rows_student = workload.phase_rows(seed)
    teacher_rate, student_rate = [], []
    for rep in repeats.reps:
        t_wall, t_calls, s_wall, s_calls = spans.phase_walls(rep)
        teacher_rate.append(rows_teacher * t_calls / t_wall)
        student_rate.append(rows_student * s_calls / s_wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(repeats.walls),
        "teacher_samples_per_s": statistics.median(teacher_rate),
        "student_samples_per_s": statistics.median(student_rate),
        "val_top1_s1": repeats.val_top1[0],
        "val_top1_s2": repeats.val_top1[1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": setup, "wall_s": repeats.walls,
           "teacher_samples_per_s": teacher_rate, "student_samples_per_s": student_rate}
    return repeats, metrics, raw


def per_layer(workload, seed: int, seconds: int, work: Path, span_file: Path):
    repeats = Repeats(workload, seed, work)
    while repeats.more(MIN_TRACED_REPEATS, seconds):
        if repeats.attempted % 2 == 0:
            repeats.run(spans.LAYERS, traced=True)
        else:
            repeats.run((), traced=False)
    reps = [r for r, t in zip(repeats.reps, repeats.traced) if t]
    on = [w for w, t in zip(repeats.walls, repeats.traced) if t]
    off = [w for w, t in zip(repeats.walls, repeats.traced) if not t]
    if len(reps) < 2 or not off:
        return repeats, None, {}
    spans.write_spans(span_file, reps)
    per_rep = [spans.layer_metrics(r) for r in reps]
    counts = {k: [m[k] for m in per_rep] for k in spans.EXACT_COUNTS}
    counts["nodes per sampled dual step"] = [n for r in reps for n in r.node_counts]
    differing = {k: v for k, v in counts.items() if len(set(v)) != 1}
    if differing:
        raise workloads.CheckFailed(f"counts differ between repeats: {differing}")
    metrics = {k: per_rep[0][k] if k in counts else statistics.median(m[k] for m in per_rep)
               for k in per_rep[0]}
    steps = [s for r in reps for s in spans.step_seconds(r)]
    metrics["harness.step_p50_s"] = spans.percentile(steps, 50)
    metrics["harness.step_p99_s"] = spans.percentile(steps, 99)
    metrics["trace.overhead_ratio"] = statistics.median(on) / statistics.median(off)
    raw = {"per_repeat": per_rep, "wall_traced_s": on, "wall_off_s": off,
           "step_samples": len(steps)}
    return repeats, metrics, raw


def main(args, spec: dict, blas_threads: int) -> int:
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            repeats, metrics, raw = per_layer(workload, args.seed, args.seconds, work,
                                              WORK / f"spans-{tag}.tsv.gz")
        else:
            repeats, metrics, raw = end_to_end(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = metrics is not None and repeats.failed == 0
    head = {"provenance": provenance(workload, args.seed, blas_threads),
            "digest": repeats.digest}
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {**head, "attempted": repeats.attempted, "failed": repeats.failed,
         "metrics": metrics, "raw": raw}, indent=1) + "\n", encoding="utf-8")
    result = {"correct": correct, "attempted": repeats.attempted, "failed": repeats.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted} if metrics else {}}
    print(json.dumps(head))
    print(json.dumps(result))
    return 0 if correct else 1

"""One benchmark run in a fresh interpreter: set up, time, check.

run.py starts this script once per run (and once per extra set-up
sample) and reads the JSON object it prints last. Operations run in a
closed loop: one client, one thread, each operation started only after
the previous one returned. The program's own stdout is discarded.

The speed of a shared host drifts by tens of percent over seconds to
minutes, and pure-Python code feels it most. So on a workload whose
operations are pure-Python work (`reference_scaled`), untraced runs also
time a fixed pure-Python reference pass (`reference_pass`, code of the
benchmark's own) between operations and report the operations' times at
the reference speed: measured time x REF_NOMINAL_S / median reference
pass of the run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The reference speed: one reference pass takes this long (its median on
# a 2-core shared VM, CPython 3.11). It only fixes the unit of the times.
REF_NOMINAL_S = 0.5e-3
REF_SHARE = 0.1  # reference time after each operation, as a share of the operation's


def reference_pass() -> float:
    """Fixed interpreter work that allocates no containers, so the
    program's heap and the garbage collector do not change its cost."""
    x, acc = 1, 0.0
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += (x % 1000) * 0.001
    return acc


def time_reference(seconds: float, into: list[float]) -> None:
    """Append the times of reference passes until ``seconds`` have passed
    (at least one pass)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            reference_pass()
            into.append(time.perf_counter() - t)
            if t + into[-1] - start >= seconds:
                break
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Record:
    key: Any
    primary: bool
    seconds: float
    out: Any  # kept for the first output of each key only, so memory stays flat
    digest: str | None
    error: str | None
    problem: str | None = None


def run_ops(wl, seconds: float | None = None, count: int | None = None,
            reference: list[float] | None = None) -> list[Record]:
    """Run operations 0, 1, ... until ``seconds`` have passed (and the
    workload's minimum count is reached), or exactly ``count`` of them.
    With a ``reference`` list, each operation is followed by reference
    passes for REF_SHARE of its time, so the passes sample the machine's
    speed in proportion to the time operations take."""
    records = []
    seen: set = set()
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - start >= seconds and i >= wl.min_ops:
            break
        r = _run_one(wl, wl.key(i))
        if reference is not None:
            time_reference(REF_SHARE * r.seconds, reference)
        if r.key in seen:
            r.out = None
        elif r.error is None:
            seen.add(r.key)
        records.append(r)
        i += 1
    return records


def _run_one(wl, key) -> Record:
    t = time.perf_counter()
    try:
        out, error = wl.run_key(key), None
    except Exception as e:  # a raising operation is a failed one
        out, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t
    digest = None if error else hashlib.sha256(json.dumps(out).encode()).hexdigest()
    return Record(key, wl.primary(key), seconds, out, digest, error)


def gate(wl, records: list[Record], seed: int, golden: dict) -> None:
    """Mark each record whose output is wrong.

    Rules for any seed: the operation returned, repetitions of one input
    agree byte for byte, and the workload's own check passes. For a
    recorded seed, the digest over all inputs' outputs must also match
    the one recorded at the seed commit; inputs the timed loop did not
    reach are run here, untimed.
    """
    recorded = golden.get(wl.name, {}).get(str(seed))
    by_key: dict = defaultdict(list)
    for r in records:
        by_key[r.key].append(r)
    if recorded is not None:
        for key in wl.keys():
            if key not in by_key:
                r = _run_one(wl, key)
                records.append(r)
                by_key[key].append(r)
    outputs = {}
    for key, recs in by_key.items():
        for r in recs:
            if r.error:
                r.problem = r.error
        good = [r for r in recs if not r.error]
        if not good:
            continue
        out = next(r.out for r in good if r.out is not None)
        if len({r.digest for r in good}) > 1:
            problems = [f"{key}: outputs differ between repetitions"]
        else:
            try:
                problems = wl.check(key, out)
            except Exception as e:
                problems = [f"{key}: check raised {type(e).__name__}: {e}"]
        if problems:
            for r in good:
                r.problem = "; ".join(problems)
        else:
            outputs[key] = out
    if recorded is not None:
        h = hashlib.sha256()
        for key in wl.keys():
            if key in outputs:
                h.update(wl.golden_digest(key, outputs[key]).encode())
        if h.hexdigest() != recorded:
            for r in records:
                r.problem = r.problem or f"seed {seed}: outputs differ from the recorded golden digest"


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def per_input(wl, prim: list[Record]) -> tuple[list[float], float]:
    """Each distinct input's median time over its repetitions, and the
    work per second of one pass over those inputs. Taking each input's
    median keeps bursts of noise from other processes out of the figures."""
    times: dict = defaultdict(list)
    work = {}
    for r in prim:
        times[r.key].append(r.seconds)
        if r.out is not None:
            work[r.key] = wl.work(r.out)
    medians = [statistics.median(t) for t in times.values()]
    return medians, (sum(work.values()) / sum(medians) if medians else 0.0)


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpython": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(wl, timed: list[Record], rss_mb: float, scale: float) -> tuple[dict, dict]:
    """Contract metrics, plus the workload's own metric names for people.
    ``rss_mb`` is the worker's peak resident memory after the timed loop;
    ``scale`` converts measured times to times at the reference speed."""
    returned = [r for r in timed if r.error is None]
    prim = [r for r in returned if r.primary]
    lat, wall_work_per_s = per_input(wl, prim)
    wall_p50 = statistics.median(lat) if lat else 0.0
    lat = [t * scale for t in lat]
    work_per_s, p50 = wall_work_per_s / scale, wall_p50 * scale
    metrics = {
        "work_per_s": (work_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = {}
    if wl.name in ("sweep", "simulate-overheads"):
        named["task_frames_per_s"] = (work_per_s, "1/s", f"{len(prim)} CLI runs")
        named["cli_run_p50_s"] = (p50, "s", f"{len(lat)} inputs")
    elif wl.name == "verify":
        named["systems_per_s"] = (work_per_s, "1/s", f"{len(prim)} systems")
        named["system_p50_ms"] = (p50 * 1e3, "ms", f"{len(lat)} systems")
        named["system_p90_ms"] = (_pct(lat, 90) * 1e3 if lat else 0.0, "ms", f"{len(lat)} systems")
    else:
        named["report_p50_s"] = (p50, "s", f"{len(lat)} xscale-shaped inputs")
        hist = [r.seconds * scale for r in returned if not r.primary]
        named["hist_report_p50_ms"] = (
            statistics.median(hist) * 1e3 if hist else 0.0, "ms", f"ppc405-shaped, n={len(hist)}")
    named["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss")
    if wl.reference_scaled:
        named["wall_work_per_s"] = (wall_work_per_s, "1/s", "work_per_s in wall time, not scaled")
        named["wall_op_p50_ms"] = (wall_p50 * 1e3, "ms", "op_p50_ms in wall time, not scaled")
    return metrics, named


def run(args) -> dict:
    sys.path.insert(0, str(HERE))
    golden = json.loads((HERE / "golden.json").read_text())
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT, Path(args.workdir), golden)
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.uninstall()
        tracer.end_setup()
    if args.setup_only:
        return {"setup_s": setup_s}
    ref: list[float] = []
    if tracer is None:
        records = run_ops(wl, seconds=args.seconds, reference=ref if wl.reference_scaled else None)
    else:
        # Same operations twice, untraced then traced, for the overhead ratio.
        records = run_ops(wl, seconds=args.seconds / 2)
        tracer.install()
        try:
            traced = run_ops(wl, count=len(records))
        finally:
            tracer.uninstall()
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in records) - 1
        records += traced
    timed = list(records)
    # Read before the gate, which runs the benchmark's own checker.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate(wl, records, args.seed, golden)
    failures = sorted({r.problem for r in records if r.problem})
    result = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problem),
        "failures": failures[:20],
        "setup_s": setup_s,
        "machine": machine(),
    }
    if tracer is None:
        scale = 1.0
        if ref:
            scale = REF_NOMINAL_S / statistics.median(ref)
            result["machine"]["reference_pass_ms"] = statistics.median(ref) * 1e3
        metrics, named = end_to_end(wl, timed, rss_mb, scale)
        result["metrics"], result["named"] = metrics, named
    else:
        result["metrics"] = tracer.metrics(overhead)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    real_stdout = sys.stdout
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        result = run(args)
    print(json.dumps(result), file=real_stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

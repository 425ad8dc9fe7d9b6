"""framedvs benchmark: one seeded workload per run, checked and measured.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. Each run starts fresh interpreters with
numpy/OpenBLAS pinned to one thread: with --trace 0, a few set-up-only
samples and then the measured run; with --trace 1, one run that times
the same operations untraced and then traced, and reports per-layer
numbers. `verify` gives its operation times at a fixed reference speed
(see worker.py). Human-readable lines come first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "simulate-overheads", "verify", "soft-deadline")
SETUP_SAMPLES = 2  # extra set-up-only interpreters per untraced run
# The whole run may take twice --seconds (a traced run times the same
# operations twice) plus this margin for set-up samples, the last
# operation's overrun and the correctness gate.
TIME_MARGIN_S = 100


class RunFailed(Exception):
    pass


def _child(args, workdir: Path, env: dict, limit: float, extra: list[str]) -> dict:
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, limit - t0))
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"worker exceeded the time limit: {e}") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    missing = [x for x in ("src/framedvs/__init__.py", "configs/xscale.json", "configs/ppc405.json")
               if not (ROOT / x).is_file()]
    if missing:
        print(f"error: not a framedvs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    limit = time.monotonic() + 2 * args.seconds + TIME_MARGIN_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            res = _child(args, workdir, env, limit, run)
        else:
            samples = [_child(args, workdir, env, limit, ["--setup-only"])
                       for _ in range(SETUP_SAMPLES)]
            res = _child(args, workdir, env, limit, run)
            samples.append(res)
            setup_s = statistics.median(r["setup_s"] for r in samples)
            res["metrics"]["setup_s"] = (setup_s, "s")
            res["named"]["setup_s"] = (setup_s, "s", f"median of {len(samples)}")
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("machine " + json.dumps(res["machine"]))
    for name, value in res.get("named", {}).items():
        print(f"{args.workload} {name} = {value[0]!r} {value[1]} ({value[2]})")
    error_rate = res["failed"] / res["attempted"]
    print(f"{args.workload} error_rate = {error_rate!r} ({res['failed']}/{res['attempted']} operations)")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

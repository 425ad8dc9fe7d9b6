"""Record the golden values the benchmark's correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run from the repository root at a commit whose outputs are trusted. It
writes perfbench/golden.json: for each recorded seed of `sweep`,
`simulate-overheads` and `verify`, one sha256 over every input's output
(CSV bytes and `framedvs build` strategy files, or the verify records),
and the soft-deadline kappa and frame percentile of configs/xscale.json
at each benchmark eps. An input whose output fails the workload's own
check is not recorded: the script stops instead.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_SEEDS = range(32)
HASHED = ("sweep", "simulate-overheads", "verify")


def main() -> int:
    sys.path.insert(0, str(HERE))
    from framedvs import config, workload

    import inputs
    import workloads

    xscale = config.load_system(ROOT / "configs" / "xscale.json")
    golden: dict = {"soft-deadline": {"xscale": {}}}
    for eps in inputs.SOFT_EPS:
        r = workload.soft_deadline(xscale, eps)
        golden["soft-deadline"]["xscale"][repr(eps)] = {
            "kappa": list(r.kappa), "frame_percentile": r.frame_percentile}
    workdir = ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in HASHED:
            golden[name] = {}
            for seed in RECORDED_SEEDS:
                wl = workloads.make(name, seed, ROOT, workdir, golden)
                h = hashlib.sha256()
                for key in wl.keys():
                    out = wl.run_key(key)
                    problems = wl.check(key, out)
                    if problems:
                        print(f"{name} seed {seed} input {key}: {problems}", file=sys.stderr)
                        return 1
                    h.update(wl.golden_digest(key, out).encode())
                golden[name][str(seed)] = h.hexdigest()
                print(f"{name} seed {seed}: {golden[name][str(seed)]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

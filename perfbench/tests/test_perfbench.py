"""Self-tests of the benchmark; not part of the repository's test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from framedvs import config, schedulability, strategies, workload  # noqa: E402
from framedvs.core import StrategySet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH / "golden.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")
NAMED = {
    "sweep": ["task_frames_per_s", "setup_s", "peak_rss_mb", "error_rate"],
    "simulate-overheads": ["task_frames_per_s", "setup_s", "peak_rss_mb", "error_rate"],
    "verify": ["systems_per_s", "system_p50_ms", "system_p90_ms", "setup_s", "peak_rss_mb", "error_rate"],
    "soft-deadline": ["report_p50_s", "setup_s", "peak_rss_mb", "error_rate"],
}
# the un-scaled figures a reference-scaled workload prints as well
WALL = {"verify": ["wall_work_per_s", "wall_op_p50_ms"]}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metric_names_and_units_match_the_tracer():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    traced = tracer.Tracer().metrics(0.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in traced.items()}
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in NAMED[workload] + WALL.get(workload, []):
        assert any(re.match(rf"{workload} {name} = \S+ ", ln) for ln in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = _run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


# operations per workload for the determinism test: index range
_OPS = {"sweep": 1, "simulate-overheads": 1, "verify": 40, "soft-deadline": 4}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs_outputs_and_counts(workload, tmp_path):
    runs = []
    for rep in range(2):
        wd = tmp_path / str(rep)
        wd.mkdir()
        t = tracer.Tracer()
        t.install()
        try:
            wl = workloads.make(workload, 11, ROOT, wd, GOLDEN)
            t.end_setup()
            outs = [json.dumps(wl.run_key(wl.key(i))) for i in range(_OPS[workload])]
        finally:
            t.uninstall()
        exact = {k: v for k, (v, u) in t.metrics(0.0).items()
                 if u in ("count", "ratio") and k != "trace.overhead_ratio"}
        files = {p.name: p.read_text().replace(str(wd), "WORKDIR") for p in wd.glob("*.json")
                 if not p.name.startswith("strategy-")}
        runs.append((outs, exact, files))
    assert runs[0] == runs[1]


def test_traced_counts_leave_out_set_up(tmp_path):
    """The soft-deadline set-up convolves once to pay the FFT import;
    that call must not reach the per-operation counters."""
    t = tracer.Tracer()
    t.install()
    try:
        wl = workloads.make("soft-deadline", 3, ROOT, tmp_path, GOLDEN)
        t.end_setup()
        keys = [wl.key(0), wl.key(1)]  # one xscale-shaped, one histogram report
        for key in keys:
            wl.run_key(key)
    finally:
        t.uninstall()
    systems = [wl.uniform[k].system if kind == "u" else wl.hist[k] for kind, k, _ in keys]
    atoms = sum(len(workload.convolve(x.dist for x in s.tasks).values) for s in systems)
    assert t.spans["workload.convolve"].calls == len(keys)
    assert t.counts["support_atoms"] == atoms
    assert t.metrics(0.0)["config.load.busy_s"][0] > 0


def test_reference_pass_allocates_no_containers():
    def allocations(f):
        gc.collect()
        before = gc.get_count()
        f()
        return gc.get_count()[0] - before[0]

    assert allocations(worker.reference_pass) == allocations(lambda: 0.0)


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    wl = workloads.Verify(0, ROOT, tmp_path)
    recs = [worker.Record(k, True, 0.01 * (k + 1), {}, None, None) for k in range(3)]
    at_ref, _ = worker.end_to_end(wl, recs, 10.0, 1.0)
    slower, named = worker.end_to_end(wl, recs, 10.0, 2.0)
    assert slower["work_per_s"][0] == at_ref["work_per_s"][0] / 2
    assert slower["op_p50_ms"][0] == at_ref["op_p50_ms"][0] * 2
    assert named["wall_work_per_s"][0] == at_ref["work_per_s"][0]
    assert slower["peak_rss_mb"] == at_ref["peak_rss_mb"]


def test_generated_inputs_pass_program_validation(tmp_path):
    for seed in (0, 1):
        for inp in inputs.sweep_inputs(seed, ROOT, tmp_path):
            assert config.load_experiment(inp.experiment).sweep.n_points == inputs.SWEEP_POINTS
        for inp in inputs.simulate_inputs(seed, ROOT, tmp_path):
            assert config.load_experiment(inp.experiment).system == inp.system
            assert inp.system.cpu.change_penalty_max > 0
        for inp in inputs.verify_inputs(seed)[:60]:
            zones = schedulability.danger_zones(inp.system)
            if zones.z[0] < 0:
                continue
            strat = inputs.perturb(strategies.build_limit(inp.system, zones), inp.system.cpu,
                                   inp.perturbation)
            assert isinstance(strat, StrategySet) and len(strat) == inp.system.n_tasks
        uniform, hist = inputs.soft_inputs(seed, ROOT)
        assert all(u.system.n_tasks == 12 for u in uniform) and len(hist) == inputs.SOFT_HIST_INPUTS


def test_exact_soft_reference_matches_the_shipped_ppc405_report():
    system = config.load_system(ROOT / "configs" / "ppc405.json")
    kappa, frame = workloads.exact_soft_reference(system, 0.05)
    assert frame == 189_500
    assert kappa == (27000, 40000, 36000, 54000, 22500, 40500, 28000, 49500)


def test_gate_rejects_a_miss_in_the_csv(tmp_path):
    wl = workloads.Sweep(0, ROOT, tmp_path)
    rc, csv, svg = wl.run_key(0)
    assert wl.check(0, (rc, csv, svg)) == []
    lines = csv.splitlines()
    row = next(i for i, ln in enumerate(lines) if ",limit," in ln and ",NA," not in ln)
    cells = lines[row].split(",")
    cells[4] = "0.0001"
    lines[row] = ",".join(cells)
    assert wl.check(0, (rc, "\n".join(lines) + "\n", svg))

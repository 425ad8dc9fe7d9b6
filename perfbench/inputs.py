"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (workload seed, input index): the same
seed gives byte-identical config files and identical in-memory systems.
The program under test only ever sees what this module produces.

Shapes follow the shipped configs: `xscale` (12 uniform tasks, 5 modes,
no switch penalties) and `ppc405` (8 histogram tasks, 4 modes). Penalty
tables keep their worst entry at slowest->fastest, which
`FrequencyTable` requires.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framedvs import config
from framedvs.core import FrameSystem, FrequencyTable, StepFunction, StrategySet, TaskSpec
from framedvs.workload import CycleDistribution

# Distinct stream ids keep the workloads' random streams independent.
_STREAM = {"sweep": 1, "simulate-overheads": 2, "verify": 3, "soft-deadline": 4}

# (name, kind, mode): the five strategy variants the CLI experiments run.
VARIANTS = (
    ("limit", "limit", "up"),
    ("dpms_up", "dpms", "up"),
    ("dpms_closest", "dpms", "closest"),
    ("pitdvs_up", "pitdvs", "up"),
    ("pitdvs_closest", "pitdvs", "closest"),
)

# Grid size and frame count of the shipped sweep experiment,
# configs/experiment_showcase.json.
SWEEP_INPUTS = 3
SWEEP_POINTS = 25
SWEEP_INFEASIBLE_POINTS = 3
SWEEP_FRAMES = 20_000

# The frame count of ROADMAP's Baseline table: one 1e6 x n_tasks cycle matrix.
SIMULATE_INPUTS = 2
SIMULATE_FRAMES = 1_000_000

VERIFY_POOL = 240

SOFT_EPS = (0.01, 0.05, 0.1, 0.2)
SOFT_UNIFORM_INPUTS = 2
SOFT_HIST_INPUTS = 20


def rng_for(workload: str, seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed, *index])


def _beta(rng, n: int) -> list[float]:
    return [round(float(b), 3) for b in rng.uniform(0.5, 1.0, n)]


def _strategy_entries(beta: list[float]) -> list[dict]:
    out = []
    for name, kind, mode in VARIANTS:
        entry = {"name": name, "kind": kind, "mode": mode}
        if kind == "pitdvs":
            entry["params"] = {"beta": beta}
        out.append(entry)
    return out


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def _dirichlet_probs(rng, k: int) -> list[float]:
    p = rng.uniform(0.2, 1.0, k)
    return [float(x) for x in p / p.sum()]


def penalty_tables(rng, m: int, pt_max: float) -> tuple[list[list[float]], list[float]]:
    """Nonzero pairwise change penalties with the maximum at [0][m-1]."""
    pt = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                pt[i][j] = float(rng.uniform(0.1, 0.9)) * pt_max
    pt[0][m - 1] = pt_max
    st = [float(rng.uniform(0.05, 0.5)) * pt_max for _ in range(m)]
    return pt, st


# -- sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    experiment: Path
    system_file: Path
    beta: tuple[float, ...]
    infeasible_below: float  # total worst-case work at top speed, seconds


def sweep_inputs(seed: int, root: Path, workdir: Path) -> list[SweepInput]:
    """Deadline sweeps over configs/xscale.json whose grids start infeasible.

    The first SWEEP_INFEASIBLE_POINTS grid points lie below the
    all-at-top-speed bound by at least 0.3 grid steps, so every input
    does the same amount of simulation and no point sits on the
    feasibility boundary.
    """
    system_file = root / "configs" / "xscale.json"
    system = config.load_system(system_file)
    base = sum(system.wcecs) / system.cpu.f_max
    out = []
    for k in range(SWEEP_INPUTS):
        rng = rng_for("sweep", seed, k)
        a = SWEEP_INFEASIBLE_POINTS - 0.5 + float(rng.uniform(-0.2, 0.2))
        d_hi = base * float(rng.uniform(3.0, 5.0))
        h = (d_hi - base) / (SWEEP_POINTS - 1 - a)
        beta = _beta(rng, system.n_tasks)
        exp = {
            "system_file": str(system_file),
            "strategies": _strategy_entries(beta),
            "simulation": {
                "n_frames": SWEEP_FRAMES,
                "seed": int(rng.integers(2**31)),
                "overheads": "off",
            },
            "sweep": {
                "d_lo": base - a * h,
                "d_hi": d_hi,
                "n_points": SWEEP_POINTS,
                "baseline": "dpms_closest",
            },
        }
        path = _write_json(workdir / f"sweep-{k}.json", exp)
        out.append(SweepInput(path, system_file, tuple(beta), base))
    return out


# -- simulate-overheads -----------------------------------------------------


@dataclass(frozen=True)
class SimulateInput:
    experiment: Path
    system_file: Path
    system: FrameSystem
    beta: tuple[float, ...]


def ppc405_shaped(rng, base: FrameSystem, pt_max: float) -> FrameSystem:
    """ppc405 CPU and bin sizes with fresh bin masses and penalty tables."""
    tasks = tuple(
        TaskSpec(
            t.wcec,
            CycleDistribution.histogram(t.dist.bin_size, _dirichlet_probs(rng, len(t.dist.probs))),
            t.label,
        )
        for t in base.tasks
    )
    m = base.cpu.n_modes
    if pt_max > 0:
        pt, st = penalty_tables(rng, m, pt_max)
        cpu = FrequencyTable(base.cpu.freqs, base.cpu.power, pt, st)
    else:
        cpu = base.cpu
    return FrameSystem(tasks, base.deadline, cpu)


def simulate_inputs(seed: int, root: Path, workdir: Path) -> list[SimulateInput]:
    """Histogram systems with nonzero penalties, feasible under sufficient zones."""
    base = config.load_system(root / "configs" / "ppc405.json")
    work = sum(base.wcecs) / base.cpu.f_max
    out = []
    for k in range(SIMULATE_INPUTS):
        rng = rng_for("simulate-overheads", seed, k)
        pt_max = float(rng.uniform(5e-6, 25e-6))
        shaped = ppc405_shaped(rng, base, pt_max)
        deadline = (work + base.n_tasks * pt_max) * float(rng.uniform(1.4, 3.0))
        system = FrameSystem(shaped.tasks, deadline, shaped.cpu)
        system_file = _write_json(workdir / f"simulate-system-{k}.json", config.system_to_dict(system))
        beta = _beta(rng, system.n_tasks)
        exp = {
            "system_file": str(system_file),
            "strategies": _strategy_entries(beta),
            "simulation": {
                "n_frames": SIMULATE_FRAMES,
                "seed": int(rng.integers(2**31)),
                "overheads": "on",
            },
        }
        path = _write_json(workdir / f"simulate-{k}.json", exp)
        out.append(SimulateInput(path, system_file, system, tuple(beta)))
    return out


# -- verify -----------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Applied to a system's plain limit strategy: lower one step's
    frequency by one table level, or move one step time later."""

    task: int
    kind: str  # "freq" | "time"
    pick: float  # chooses the step, in [0, 1)
    amount: float  # fraction of the gap to the next step, in (0, 1)


@dataclass(frozen=True)
class VerifyInput:
    system: FrameSystem
    perturbation: Perturbation


def _random_cpu(rng, m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    while True:
        freqs = np.sort(rng.uniform(100e6, 1500e6, m))
        if np.min(np.diff(freqs)) > 20e6:
            break
    # power grows faster than frequency, like the shipped tables
    power = 0.02 + 1.8 * (freqs / 1e9) ** 2.5 * rng.uniform(0.8, 1.2)
    return tuple(float(f) for f in freqs), tuple(float(p) for p in np.sort(power))


def _random_task(rng, kind: str, label: str) -> TaskSpec:
    wcec = int(rng.integers(20_000, 400_000))
    if kind == "uniform":
        lo = max(1, int(wcec * rng.uniform(0.1, 0.5)))
        return TaskSpec(wcec, CycleDistribution.uniform(lo, wcec), label)
    bins = int(rng.integers(4, 13))
    b = wcec // bins
    return TaskSpec(b * bins, CycleDistribution.histogram(b, _dirichlet_probs(rng, bins)), label)


def verify_system(rng, n: int, m: int, task_kind: str, penalties: bool) -> FrameSystem:
    freqs, power = _random_cpu(rng, m)
    kinds = [task_kind] * n if task_kind != "mixed" else [
        "uniform" if rng.random() < 0.5 else "histogram" for _ in range(n)
    ]
    tasks = tuple(_random_task(rng, kd, f"T{i + 1}") for i, kd in enumerate(kinds))
    work = sum(t.wcec for t in tasks) / freqs[-1]
    pt_max = float(rng.uniform(0.005, 0.05)) * work / n if penalties else 0.0
    if pt_max > 0:
        pt, st = penalty_tables(rng, m, pt_max)
        cpu = FrequencyTable(freqs, power, pt, st)
    else:
        cpu = FrequencyTable(freqs, power)
    # Slack factor against the sufficient-zone budget; the gap around 1
    # keeps every system clear of the feasibility boundary in both modes.
    factor = float(rng.uniform(0.85, 2.5))
    while 0.94 < factor < 1.06:
        factor = float(rng.uniform(0.85, 2.5))
    deadline = (work + n * pt_max) * factor
    return FrameSystem(tasks, deadline, cpu)


def verify_inputs(seed: int) -> list[VerifyInput]:
    """A pool whose shape mix (tasks, modes, task kinds, penalties) is the
    same for every seed; only the values are drawn."""
    out = []
    for k in range(VERIFY_POOL):
        rng = rng_for("verify", seed, k)
        n = 4 + k % 10
        m = 2 + (k // 10) % 4
        task_kind = ("uniform", "histogram", "mixed")[k % 3]
        system = verify_system(rng, n, m, task_kind, penalties=k % 4 != 3)
        pert = Perturbation(
            task=int(rng.integers(n)),
            kind="freq" if rng.random() < 0.5 else "time",
            pick=float(rng.random()),
            amount=float(rng.uniform(0.05, 0.95)),
        )
        out.append(VerifyInput(system, pert))
    return out


def perturb(strategy, cpu: FrequencyTable, p: Perturbation):
    """Apply a perturbation; the program's types validate the result."""
    funcs = list(strategy.funcs)
    pts = list(funcs[p.task].points)
    if p.kind == "freq" or len(pts) == 1:
        k = int(p.pick * len(pts))
        t, f = pts[k]
        idx = cpu.index_of(f)
        pts[k] = (t, cpu.freqs[max(idx - 1, 0)])
    else:
        k = 1 + int(p.pick * (len(pts) - 1))
        t, f = pts[k]
        t_next = pts[k + 1][0] if k + 1 < len(pts) else 2.0 * t + 1e-6
        pts[k] = (t + p.amount * (t_next - t), f)
    funcs[p.task] = StepFunction(tuple(pts))
    return StrategySet(tuple(funcs))


# -- soft-deadline ------------------------------------------------------------


@dataclass(frozen=True)
class UniformSoftInput:
    """configs/xscale.json with every task's range shifted by ``shift``.

    Widths are unchanged, so the convolution does the same work for
    every seed and its result is the recorded one moved by sum(shift).
    """

    system: FrameSystem
    shift: tuple[int, ...]


def soft_inputs(seed: int, root: Path):
    xs = config.load_system(root / "configs" / "xscale.json")
    pp = config.load_system(root / "configs" / "ppc405.json")
    uniform = []
    for k in range(SOFT_UNIFORM_INPUTS):
        rng = rng_for("soft-deadline", seed, 0, k)
        shift, tasks = [], []
        for t in xs.tasks:
            d = int(rng.integers(-(t.dist.lo // 2), t.dist.lo + 1))
            shift.append(d)
            lo, hi = t.dist.lo + d, t.dist.hi + d
            tasks.append(TaskSpec(hi, CycleDistribution.uniform(lo, hi), t.label))
        uniform.append(UniformSoftInput(FrameSystem(tuple(tasks), xs.deadline, xs.cpu), tuple(shift)))
    hist = [
        ppc405_shaped(rng_for("soft-deadline", seed, 1, k), pp, 0.0)
        for k in range(SOFT_HIST_INPUTS)
    ]
    return uniform, hist

"""Config file ingestion and artifact serialization.

System configs are JSON with frequencies in MHz (converted to cycles/s
on load), power in Watts, penalties in seconds. Strategy files store one
list of [t_seconds, f_hz] points per task. Histogram files are CSV with
a bin_upper_cycles,probability header.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import FrameSystem, FrequencyTable, StepFunction, StrategySet, TaskSpec
from .workload import CycleDistribution

__all__ = [
    "StrategyEntry",
    "SimulationSettings",
    "SweepSettings",
    "ExperimentConfig",
    "load_system",
    "system_to_dict",
    "system_from_dict",
    "load_strategy",
    "save_strategy",
    "strategy_to_dict",
    "strategy_from_dict",
    "load_experiment",
    "experiment_from_dict",
    "experiment_to_dict",
    "read_histogram_csv",
    "write_histogram_csv",
    "read_trace",
]

MHZ = 1e6


def _dist_from_dict(d: dict, base: Path | None) -> CycleDistribution:
    kind = d.get("kind")
    if kind == "uniform":
        return CycleDistribution.uniform(d["lo"], d["hi"])
    if kind == "histogram":
        if "histogram_file" in d:
            path = Path(d["histogram_file"])
            if base is not None and not path.is_absolute():
                path = base / path
            return read_histogram_csv(path)
        return CycleDistribution.histogram(d["bin_size"], list(d["probs"]))
    raise ValueError(f"unknown distribution kind {kind!r}")


def _dist_to_dict(dist: CycleDistribution) -> dict:
    if dist.kind == "uniform":
        return {"kind": "uniform", "lo": dist.lo, "hi": dist.hi}
    if dist.kind == "histogram":
        return {
            "kind": "histogram",
            "bin_size": dist.bin_size,
            "probs": dist.probs.tolist(),
        }
    raise ValueError("only uniform and histogram distributions serialize to config")


def system_from_dict(d: dict, base: Path | None = None) -> FrameSystem:
    cpu_d = d["cpu"]
    freqs = tuple(float(f) * MHZ for f in cpu_d["freqs_mhz"])
    power = tuple(float(p) for p in cpu_d["power_w"])
    pt = tuple(tuple(float(x) for x in row) for row in cpu_d.get("pt_matrix_s", ()))
    st = tuple(float(x) for x in cpu_d.get("st_vector_s", ()))
    cpu = FrequencyTable(freqs, power, pt, st)
    tasks = []
    for k, td in enumerate(d["tasks"]):
        dist = _dist_from_dict(td["dist"], base)
        tasks.append(TaskSpec(td["wcec"], dist, label=td.get("label", f"T{k + 1}")))
    return FrameSystem(tuple(tasks), float(d["deadline_s"]), cpu)


def system_to_dict(sys: FrameSystem) -> dict:
    return {
        "deadline_s": sys.deadline,
        "cpu": {
            "freqs_mhz": [f / MHZ for f in sys.cpu.freqs],
            "power_w": list(sys.cpu.power),
            "pt_matrix_s": [list(r) for r in sys.cpu.switch_penalty],
            "st_vector_s": list(sys.cpu.same_speed_switch),
        },
        "tasks": [
            {"wcec": t.wcec, "label": t.label, "dist": _dist_to_dict(t.dist)}
            for t in sys.tasks
        ],
    }


def load_system(path: str | Path) -> FrameSystem:
    path = Path(path)
    return system_from_dict(json.loads(path.read_text()), base=path.parent)


def strategy_to_dict(strategy: StrategySet) -> dict:
    return {"funcs": [[[t, f] for t, f in fn.points] for fn in strategy.funcs]}


def strategy_from_dict(d: dict) -> StrategySet:
    funcs = tuple(
        StepFunction(tuple((float(t), float(f)) for t, f in pts)) for pts in d["funcs"]
    )
    return StrategySet(funcs)


def load_strategy(path: str | Path) -> StrategySet:
    return strategy_from_dict(json.loads(Path(path).read_text()))


def save_strategy(strategy: StrategySet, path: str | Path) -> None:
    text = json.dumps(strategy_to_dict(strategy), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


@dataclass(frozen=True)
class StrategyEntry:
    name: str
    kind: str  # limit | dpms | pitdvs
    mode: str = "closest"  # up | closest
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("limit", "dpms", "pitdvs"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.mode not in ("up", "closest"):
            raise ValueError(f"unknown strategy mode {self.mode!r}")


@dataclass(frozen=True)
class SimulationSettings:
    n_frames: int = 10_000
    seed: int = 0
    overheads: str = "off"  # on | off
    soft_eps: float | None = None
    soft_wcec: str = "true_wcec"  # kappa | true_wcec

    def __post_init__(self) -> None:
        if self.overheads not in ("on", "off"):
            raise ValueError("overheads must be 'on' or 'off'")
        if self.soft_wcec not in ("kappa", "true_wcec"):
            raise ValueError("soft_wcec must be 'kappa' or 'true_wcec'")
        if self.n_frames < 1:
            raise ValueError("n_frames must be positive")


@dataclass(frozen=True)
class SweepSettings:
    d_lo: float
    d_hi: float
    n_points: int
    baseline: str


@dataclass(frozen=True)
class ExperimentConfig:
    system: FrameSystem
    strategies: tuple[StrategyEntry, ...]
    simulation: SimulationSettings
    sweep: SweepSettings | None = None

    def __post_init__(self) -> None:
        names = [s.name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ValueError("strategy names must be unique")
        if self.sweep is not None and self.sweep.baseline not in names:
            raise ValueError("sweep baseline must name a strategy entry")


def experiment_from_dict(d: dict, base: Path | None = None) -> ExperimentConfig:
    if "system_file" in d:
        path = Path(d["system_file"])
        if base is not None and not path.is_absolute():
            path = base / path
        system = load_system(path)
    else:
        system = system_from_dict(d["system"], base)
    strategies = tuple(
        StrategyEntry(
            name=s["name"],
            kind=s["kind"],
            mode=s.get("mode", "closest"),
            params=dict(s.get("params", {})),
        )
        for s in d["strategies"]
    )
    sim_d = d.get("simulation", {})
    simulation = SimulationSettings(
        n_frames=int(sim_d.get("n_frames", 10_000)),
        seed=int(sim_d.get("seed", 0)),
        overheads=sim_d.get("overheads", "off"),
        soft_eps=(None if sim_d.get("soft_eps") is None else float(sim_d["soft_eps"])),
        soft_wcec=sim_d.get("soft_wcec", "true_wcec"),
    )
    sweep = None
    if "sweep" in d and d["sweep"] is not None:
        sw = d["sweep"]
        sweep = SweepSettings(
            d_lo=float(sw["d_lo"]),
            d_hi=float(sw["d_hi"]),
            n_points=int(sw["n_points"]),
            baseline=sw.get("baseline", strategies[0].name),
        )
    return ExperimentConfig(system, strategies, simulation, sweep)


def experiment_to_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {
        "system": system_to_dict(cfg.system),
        "strategies": [
            {"name": s.name, "kind": s.kind, "mode": s.mode, "params": dict(s.params)}
            for s in cfg.strategies
        ],
        "simulation": {
            "n_frames": cfg.simulation.n_frames,
            "seed": cfg.simulation.seed,
            "overheads": cfg.simulation.overheads,
            "soft_eps": cfg.simulation.soft_eps,
            "soft_wcec": cfg.simulation.soft_wcec,
        },
    }
    if cfg.sweep is not None:
        out["sweep"] = {
            "d_lo": cfg.sweep.d_lo,
            "d_hi": cfg.sweep.d_hi,
            "n_points": cfg.sweep.n_points,
            "baseline": cfg.sweep.baseline,
        }
    return out


def load_experiment(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return experiment_from_dict(json.loads(path.read_text()), base=path.parent)


def read_histogram_csv(path: str | Path) -> CycleDistribution:
    """Parse bin_upper_cycles,probability rows into a histogram."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "bin_upper_cycles,probability":
        raise ValueError(f"{path}: expected 'bin_upper_cycles,probability' header")
    uppers: list[int] = []
    probs: list[float] = []
    for ln in lines[1:]:
        u_s, p_s = ln.split(",")
        uppers.append(int(u_s))
        probs.append(float(p_s))
    if not uppers:
        raise ValueError(f"{path}: no bins")
    b = math.gcd(*uppers) if len(uppers) > 1 else uppers[0]
    kmax = max(uppers) // b
    full = [0.0] * kmax
    for u, p in zip(uppers, probs):
        if u % b != 0:
            raise ValueError(f"{path}: bin edge {u} is not a multiple of {b}")
        full[u // b - 1] += p
    return CycleDistribution.histogram(b, full)


def write_histogram_csv(dist: CycleDistribution, path: str | Path) -> None:
    if dist.kind != "histogram":
        raise ValueError("only histogram distributions have a CSV form")
    lines = ["bin_upper_cycles,probability"]
    for k, p in enumerate(dist.probs.tolist(), start=1):
        lines.append(f"{k * dist.bin_size},{p!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: str | Path) -> list[int]:
    """One observed cycle count per line."""
    out = []
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if ln:
            out.append(int(ln))
    if not out:
        raise ValueError(f"{path}: empty trace")
    return out

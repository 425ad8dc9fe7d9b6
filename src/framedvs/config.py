"""Config file ingestion and artifact serialization.

System configs are JSON with frequencies in MHz (converted to cycles/s
on load), power in Watts, penalties in seconds. Strategy files store one
list of [t_seconds, f_hz] points per task. Histogram files are CSV with
a bin_upper_cycles,probability header.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import workload
from .core import (
    CapExceededError, FrameSystem, FrequencyTable, StepFunction, StrategySet, TaskSpec, as_cycles
)
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


def _refuse_unknown(section: str, d: dict, known: set[str]) -> None:
    unknown = d.keys() - known
    if unknown:
        raise ValueError(f"unknown {section} keys {sorted(unknown)}")


def system_from_dict(d: dict, base: Path | None = None) -> FrameSystem:
    _refuse_unknown("system", d, {"deadline_s", "cpu", "tasks", "notes"})
    cpu_d = d["cpu"]
    _refuse_unknown("cpu", cpu_d, {"freqs_mhz", "power_w", "pt_matrix_s", "st_vector_s"})
    freqs = tuple(float(f) * MHZ for f in cpu_d["freqs_mhz"])
    power = tuple(float(p) for p in cpu_d["power_w"])
    pt = tuple(tuple(float(x) for x in row) for row in cpu_d.get("pt_matrix_s", ()))
    st = tuple(float(x) for x in cpu_d.get("st_vector_s", ()))
    cpu = FrequencyTable(freqs, power, pt, st)
    tasks = []
    for k, td in enumerate(d["tasks"]):
        _refuse_unknown("task", td, {"wcec", "dist", "label"})
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


def _load_json(path: str | Path, build):
    """``build(json, path.parent)``; any malformed content raises ValueError naming the file."""
    path = Path(path)
    try:
        return build(json.loads(path.read_text()), path.parent)
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from e
    except (ValueError, TypeError, AttributeError, IndexError) as e:
        raise ValueError(f"{path}: {e}") from e


def load_system(path: str | Path) -> FrameSystem:
    return _load_json(path, system_from_dict)


def strategy_to_dict(strategy: StrategySet) -> dict:
    return {"funcs": [[[t, f] for t, f in fn.points] for fn in strategy.funcs]}


def strategy_from_dict(d: dict) -> StrategySet:
    funcs = tuple(
        StepFunction(tuple((float(t), float(f)) for t, f in pts)) for pts in d["funcs"]
    )
    return StrategySet(funcs)


def load_strategy(path: str | Path) -> StrategySet:
    return _load_json(path, lambda d, base: strategy_from_dict(d))


def save_strategy(strategy: StrategySet, path: str | Path) -> None:
    text = json.dumps(strategy_to_dict(strategy), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


@dataclass(frozen=True)
class StrategyEntry:
    name: str
    kind: str  # limit | dpms | pitdvs
    mode: str = "closest"  # up | closest
    params: dict = field(default_factory=dict)  # pitdvs only: beta (float tuple), pt (float)

    def __post_init__(self) -> None:
        if self.kind not in ("limit", "dpms", "pitdvs"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.mode not in ("up", "closest"):
            raise ValueError(f"unknown strategy mode {self.mode!r}")
        params = dict(self.params)
        if params.keys() - {"beta", "pt"}:
            raise ValueError(f"strategy params may hold only beta and pt, got {sorted(params)}")
        if params and self.kind != "pitdvs":
            raise ValueError(f"strategy params are for pitdvs only; {self.kind} takes none")
        if "beta" in params:
            if not isinstance(params["beta"], (list, tuple)):
                raise ValueError(f"pitdvs beta must be a list of numbers, got {params['beta']!r}")
            params["beta"] = tuple(float(b) for b in params["beta"])
        if "pt" in params:
            if not isinstance(params["pt"], (int, float)):
                raise ValueError(f"pitdvs pt must be a number, got {params['pt']!r}")
            params["pt"] = float(params["pt"])
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class SimulationSettings:
    n_frames: int = 10_000
    seed: int = 0
    overheads: str = "off"  # on | off
    soft_eps: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_frames", _count("n_frames", self.n_frames))
        object.__setattr__(self, "seed", _count("seed", self.seed))
        if self.soft_eps is not None:
            object.__setattr__(self, "soft_eps", float(self.soft_eps))
        if self.overheads not in ("on", "off"):
            raise ValueError("overheads must be 'on' or 'off'")
        if self.n_frames < 1:
            raise ValueError("n_frames must be positive")


@dataclass(frozen=True)
class SweepSettings:
    d_lo: float
    d_hi: float
    n_points: int
    baseline: str | None = None  # None: the first strategy entry

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_lo", float(self.d_lo))
        object.__setattr__(self, "d_hi", float(self.d_hi))
        object.__setattr__(self, "n_points", _count("n_points", self.n_points))


@dataclass(frozen=True)
class ExperimentConfig:
    system: FrameSystem
    strategies: tuple[StrategyEntry, ...]
    simulation: SimulationSettings
    sweep: SweepSettings | None = None

    def __post_init__(self) -> None:
        names = [s.name for s in self.strategies]
        if not names:
            raise ValueError("strategies must list at least one entry")
        if len(set(names)) != len(names):
            raise ValueError("strategy names must be unique")
        if self.sweep is not None and self.sweep.baseline not in (None, *names):
            raise ValueError("sweep baseline must name a strategy entry")


def _count(key: str, v) -> int:
    """``v`` as an int under the ``as_cycles`` rule, naming ``key`` on error."""
    try:
        return as_cycles(v)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {v!r}") from None


def experiment_from_dict(d: dict, base: Path | None = None) -> ExperimentConfig:
    _refuse_unknown("experiment", d, {"system", "system_file", "strategies", "simulation", "sweep"})
    if "system" in d and "system_file" in d:
        raise ValueError("experiment has both system and system_file; give one")
    if "system_file" in d:
        path = Path(d["system_file"])
        if base is not None and not path.is_absolute():
            path = base / path
        system = load_system(path)
    else:
        system = system_from_dict(d["system"], base)
    sweep = d.get("sweep")
    return ExperimentConfig(
        system,
        tuple(StrategyEntry(**s) for s in d["strategies"]),
        SimulationSettings(**d.get("simulation", {})),
        None if sweep is None else SweepSettings(**sweep),
    )


def experiment_to_dict(cfg: ExperimentConfig) -> dict:
    """Kept as the inverse of ``experiment_from_dict``, which the tests round-trip."""
    out: dict = {
        "system": system_to_dict(cfg.system),
        "strategies": [asdict(s) for s in cfg.strategies],
        "simulation": asdict(cfg.simulation),
    }
    if cfg.sweep is not None:
        out["sweep"] = asdict(cfg.sweep)
    return out


def load_experiment(path: str | Path) -> ExperimentConfig:
    return _load_json(path, experiment_from_dict)


def read_histogram_csv(path: str | Path) -> CycleDistribution:
    """Parse bin_upper_cycles,probability rows into a histogram."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "bin_upper_cycles,probability":
        raise ValueError(f"{path}: expected 'bin_upper_cycles,probability' header")
    uppers: list[int] = []
    probs: list[float] = []
    for ln in lines[1:]:
        u_s, p_s = ln.split(",")
        u = int(u_s)
        if u <= 0:
            raise ValueError(f"{path}: bin edge {u} is not positive")
        uppers.append(u)
        probs.append(float(p_s))
    if not uppers:
        raise ValueError(f"{path}: no bins")
    b = math.gcd(*uppers)
    n_bins = max(uppers) // b
    if n_bins > workload.CONVOLVE_CAP:
        raise CapExceededError(
            f"{path}: histogram grid of {n_bins} bins exceeds cap {workload.CONVOLVE_CAP}"
        )
    # every edge is a multiple of b; repeated edges add their masses in file order
    return CycleDistribution.histogram(b, np.bincount([u // b - 1 for u in uppers], probs))


def write_histogram_csv(dist: CycleDistribution, path: str | Path) -> None:
    """Kept as the writer of the ``histogram_file`` format that ``read_histogram_csv`` reads."""
    if dist.kind != "histogram":
        raise ValueError("only histogram distributions have a CSV form")
    lines = ["bin_upper_cycles,probability"]
    for k, p in enumerate(dist.probs.tolist(), start=1):
        lines.append(f"{k * dist.bin_size},{p!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: str | Path) -> list[int]:
    """One observed cycle count per line; kept for trace ingestion with ``bin_trace``."""
    out = []
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if ln:
            out.append(int(ln))
    if not out:
        raise ValueError(f"{path}: empty trace")
    return out

"""Command line entry point.

Subcommands: check, build, simulate, sweep, soft-deadline, oracle.
Exit codes: 0 success/schedulable, 1 not schedulable or infeasible,
2 invalid input, 3 valid input too large for an exact answer. Outputs
are deterministic for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import sys as _sys
from functools import partial
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    StrategyEntry,
    load_experiment,
    load_strategy,
    load_system,
    save_strategy,
)
from .core import (
    CapExceededError,
    FrameDvsError,
    FrameSystem,
    InfeasibleSystemError,
    StrategySet,
    TaskSpec,
)
# danger_zones, run_frames and _stats have no caller here; they stay for the
# per-layer tracer in perfbench/, which wraps this module's names
from .schedulability import check, danger_zones, danger_zones_overhead  # noqa: F401
from .simulator import _stats, evaluate, run_frames, sample_cycles, sweep_deadlines  # noqa: F401
from .strategies import BetaVector, build_limit, discretize, dpms_rule, pitdvs_rule
from .oracle import worst_finish_oracle
from .workload import soft_deadline

__all__ = ["main"]


def _build_entry(entry: StrategyEntry, system: FrameSystem, zones) -> StrategySet:
    """Build one strategy entry; pitdvs reads ``beta`` and ``pt`` from its params,
    which ``StrategyEntry`` has already converted to a float tuple and a float."""
    mode = entry.mode
    if entry.kind == "limit":
        return build_limit(system, zones)
    if entry.kind == "dpms":
        return discretize(system, zones, dpms_rule(system, mode), mode)
    beta, pt = entry.params.get("beta"), entry.params.get("pt")
    bv = BetaVector.ones(system.n_tasks) if beta is None else BetaVector(beta)
    penalty = system.cpu.change_penalty_max if pt is None else pt
    return discretize(system, zones, pitdvs_rule(system, bv, penalty, mode), mode)


def _soft_build_system(system: FrameSystem, eps: float) -> FrameSystem:
    """Tasks truncated at their eps-percentiles kappa_i, at the true deadline: a frame
    misses only if some c_i > kappa_i, with probability at most N * eps."""
    kappa = [t.dist.percentile(eps) for t in system.tasks]
    tasks = tuple(TaskSpec(k, t.dist.truncated(k), t.label) for t, k in zip(system.tasks, kappa))
    return FrameSystem(tasks, system.deadline, system.cpu)


def _print_json(obj) -> None:
    """Strict JSON: a non-finite float raises ValueError (exit 2) instead of printing NaN."""
    print(json.dumps(obj, indent=2, allow_nan=False))


def cmd_check(args) -> int:
    system = load_system(args.system)
    strategy = load_strategy(args.strategy)
    zones = danger_zones_overhead(system, args.mode)
    report = check(system, strategy, zones)
    _print_json(report.to_dict())
    return 0 if report.schedulable else 1


def cmd_build(args) -> int:
    system = load_system(args.system)
    zones = danger_zones_overhead(system, args.zones)
    beta = None
    if args.beta is not None:
        beta = args.beta.split(",") if args.beta else []
    params = {k: v for k, v in (("beta", beta), ("pt", args.pt)) if v is not None}
    entry = StrategyEntry(args.kind, args.kind, args.mode, params)
    strategy = _build_entry(entry, system, zones)
    save_strategy(strategy, args.out)
    print(f"wrote {args.out}")
    return 0


def _experiment_builders(cfg: ExperimentConfig):
    return [(entry.name, partial(_build_entry, entry)) for entry in cfg.strategies]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text, end="")


def cmd_simulate(args) -> int:
    cfg = load_experiment(args.config)
    sim = cfg.simulation
    seed = sim.seed if args.seed is None else args.seed
    overheads = (args.overheads or sim.overheads) == "on"
    system = cfg.system
    build_sys = system
    if sim.soft_eps is not None:
        build_sys = _soft_build_system(system, sim.soft_eps)
    cycles = sample_cycles(system, np.random.default_rng(seed), sim.n_frames)
    results = evaluate(system, build_sys, _experiment_builders(cfg), cycles, overheads)
    lines = [
        "strategy,frames,mean_energy_j,stderr_j,miss_rate,mean_freq_changes,mean_switch_time_s"
    ]
    for name, st in results.items():
        if st is None:
            lines.append(f"{name},{sim.n_frames},NA,NA,NA,NA,NA")
        else:
            lines.append(
                f"{name},{st.frames},{st.mean_energy!r},{st.energy_stderr!r},"
                f"{st.miss_rate!r},{st.mean_frequency_changes!r},{st.mean_switch_time!r}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_experiment(args.config)
    if cfg.sweep is None:
        raise ValueError("config has no sweep section")
    sim = cfg.simulation
    if sim.soft_eps is not None:
        raise ValueError(
            "sweep does not support simulation.soft_eps; use simulate for soft deadlines"
        )
    seed = sim.seed if args.seed is None else args.seed
    overheads = (args.overheads or sim.overheads) == "on"
    table = sweep_deadlines(
        cfg.system,
        _experiment_builders(cfg),
        cfg.sweep.d_lo,
        cfg.sweep.d_hi,
        cfg.sweep.n_points,
        sim.n_frames,
        seed,
        baseline=cfg.sweep.baseline,
        overheads=overheads,
    )
    _emit(table.to_csv(), args.out)
    if args.svg:
        from .svgchart import write_ratio_chart

        write_ratio_chart(table, args.svg, title=f"energy relative to {table.baseline}")
        print(f"wrote {args.svg}")
    return 0


def cmd_soft_deadline(args) -> int:
    system = load_system(args.system)
    result = soft_deadline(system, args.eps)
    _print_json(
        {
            "kappa": list(result.kappa),
            "frame_wcec": result.frame_wcec,
            "frame_percentile": result.frame_percentile,
            "adjusted_deadline_s": result.adjusted_deadline,
        }
    )
    return 0


def cmd_oracle(args) -> int:
    system = load_system(args.system)
    strategy = load_strategy(args.strategy)
    report = worst_finish_oracle(system, strategy, overheads=args.overheads == "on")
    worst = report.tau[-1]
    _print_json(
        {
            "tau_s": list(report.tau),
            "witness_cycles": [list(w) for w in report.witness],
            "deadline_s": system.deadline,
            "worst_case_miss": worst > system.deadline,
        }
    )
    return 0 if worst <= system.deadline else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="framedvs",
        description="Frame-based inter-task DVS: build, verify and simulate "
        "discrete-frequency scheduling strategies.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify a strategy against a system")
    c.add_argument("--system", required=True)
    c.add_argument("--strategy", required=True)
    c.add_argument("--mode", choices=["plain", "sufficient"], default="plain")
    c.set_defaults(fn=cmd_check)

    b = sub.add_parser("build", help="build a strategy file for a system")
    b.add_argument("--system", required=True)
    b.add_argument("--kind", choices=["limit", "dpms", "pitdvs"], required=True)
    b.add_argument("--mode", choices=["up", "closest"], default="closest")
    b.add_argument("--zones", choices=["plain", "sufficient"], default="plain")
    b.add_argument("--beta", help="comma-separated per-task values for pitdvs")
    b.add_argument("--pt", type=float, help="scalar change penalty for pitdvs")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("simulate", help="Monte Carlo stats for configured strategies")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--seed", type=int)
    s.add_argument("--overheads", choices=["on", "off"])
    s.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("sweep", help="deadline sweep with energy ratio CSV")
    w.add_argument("--config", required=True)
    w.add_argument("--out")
    w.add_argument("--svg")
    w.add_argument("--seed", type=int)
    w.add_argument("--overheads", choices=["on", "off"])
    w.set_defaults(fn=cmd_sweep)

    d = sub.add_parser("soft-deadline", help="percentile-relaxed deadline report")
    d.add_argument("--system", required=True)
    d.add_argument("--eps", type=float, required=True)
    d.set_defaults(fn=cmd_soft_deadline)

    o = sub.add_parser("oracle", help="worst-case finishing time report")
    o.add_argument("--system", required=True)
    o.add_argument("--strategy", required=True)
    o.add_argument("--overheads", choices=["on", "off"], default="off")
    o.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; re-raise as our invalid-input code
        raise SystemExit(2 if e.code not in (0, None) else e.code)
    try:
        return args.fn(args)
    except InfeasibleSystemError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"error: input is valid but too large for an exact answer: {e}", file=_sys.stderr)
        return 3
    except (FrameDvsError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

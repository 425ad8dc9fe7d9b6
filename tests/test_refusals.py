"""Every input a constructor or entry point refuses, with its exception type and message.

Each row builds one bad input; the first rule it breaks names itself.
Rows that read or write a file get a path under ``tmp_path``, and their
message may name it as ``{path}``.
"""
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from framedvs import (
    CapExceededError,
    CycleDistribution,
    FrameSystem,
    FrequencyTable,
    StepFunction,
    StrategySet,
    SweepCell,
    SweepTable,
    TaskSpec,
    bin_trace,
    build_limit,
    convolve,
    danger_zones,
    danger_zones_overhead,
    discretize,
    dpms_rule,
    monte_carlo,
    quantize,
    run_frames,
    sweep_deadlines,
    workload,
)
from framedvs.cli import main
from framedvs.config import (
    ExperimentConfig,
    SimulationSettings,
    StrategyEntry,
    SweepSettings,
    load_system,
    read_histogram_csv,
    read_trace,
    system_from_dict,
    system_to_dict,
    write_histogram_csv,
)
from framedvs.svgchart import write_ratio_chart

CPU = FrequencyTable((500.0, 1000.0), (0.9, 1.6))
SYS = FrameSystem((TaskSpec(100, CycleDistribution.degenerate(100)),), 1.0, CPU)
TOP = StrategySet((StepFunction(((0.0, 1000.0),)),))
LIMIT = [("limit", build_limit)]
SYS_DICT = {
    "deadline_s": 1.0,
    "cpu": {"freqs_mhz": [500.0, 1000.0], "power_w": [0.5, 0.5]},
    "tasks": [{"wcec": 600, "dist": {"kind": "uniform", "lo": 300, "hi": 600}}],
}
PT_MSG = "switch penalty diagonal must be 0: same-speed switch times go in same_speed_switch (st_vector_s)"


def _table(pt=(), st=(), freqs=(1e8, 1e9), power=(0.1, 1.0)):
    return lambda: FrequencyTable(freqs, power, pt, st)


def _points(values, probs):
    return lambda: CycleDistribution("points", values=values, probs=probs)


def _system_dict(**dist):
    return lambda: system_from_dict({**SYS_DICT, "tasks": [{"wcec": 600, "dist": dist}]})


def _draw_into(out):
    CycleDistribution.uniform(1, 9).sample_array(np.random.default_rng(0), 4, out=out)


def _experiment(names, baseline=None):
    sweep = None if baseline is None else SweepSettings(0.1, 1.0, 3, baseline)
    entries = tuple(StrategyEntry(n, "limit") for n in names)
    return lambda: ExperimentConfig(SYS, entries, SimulationSettings(), sweep)


@pytest.mark.parametrize(
    "build,exc,message",
    [
        # core.FrequencyTable
        pytest.param(_table(freqs=(), power=()), ValueError, "frequency table is empty",
                     id="table-empty"),
        pytest.param(_table(freqs=(0.0, 1e9)), ValueError, "frequencies must be positive",
                     id="table-freq-zero"),
        pytest.param(_table(power=(0.1,)), ValueError,
                     "power table length does not match frequencies", id="table-power-length"),
        pytest.param(_table(power=(-0.1, 1.0)), ValueError, "power values must be nonnegative",
                     id="table-power-negative"),
        pytest.param(_table(pt=((0.0, 1e-6),)), ValueError, "switch penalty table must be MxM",
                     id="table-pt-rows"),
        pytest.param(_table(pt=((0.0, 1e-6), (1e-6,))), ValueError,
                     "switch penalty table must be MxM", id="table-pt-row-length"),
        pytest.param(_table(pt=((0.0, 1e-6), (-1e-6, 0.0))), ValueError,
                     "switch penalties must be nonnegative", id="table-pt-negative"),
        pytest.param(_table(pt=((5e-7, 2e-6), (1e-6, 5e-7))), ValueError, PT_MSG,
                     id="table-pt-diagonal"),
        pytest.param(_table(pt=((0.0, 2e-6), (1e-6, 5e-6))), ValueError, PT_MSG,
                     id="table-pt-diagonal-above-worst"),
        pytest.param(_table(pt=((0.0, 1e-6), (2e-6, 0.0))), ValueError,
                     "worst change penalty must be the slowest-to-fastest entry",
                     id="table-pt-worst-not-corner"),
        pytest.param(_table(st=(0.0,)), ValueError,
                     "same-speed switch table length does not match", id="table-st-length"),
        pytest.param(_table(st=(0.0, -1e-6)), ValueError,
                     "same-speed switch times must be nonnegative", id="table-st-negative"),
        # core: tasks, systems, strategies, quantize
        pytest.param(lambda: TaskSpec(0, CycleDistribution.degenerate(1)), ValueError,
                     "wcec must be a positive cycle count", id="task-wcec-zero"),
        pytest.param(lambda: FrameSystem((), 1.0, CPU), ValueError,
                     "system needs at least one task", id="system-empty"),
        pytest.param(lambda: StrategySet(()), ValueError, "strategy set is empty",
                     id="strategy-set-empty"),
        pytest.param(lambda: quantize(CPU, 600.0, "down"), ValueError,
                     "unknown quantize mode 'down'", id="quantize-mode"),
        # workload.CycleDistribution
        pytest.param(lambda: CycleDistribution.uniform(0, 5), ValueError,
                     "uniform needs 0 < lo <= hi", id="uniform-lo-zero"),
        pytest.param(lambda: CycleDistribution.uniform(5, 4), ValueError,
                     "uniform needs 0 < lo <= hi", id="uniform-hi-below-lo"),
        pytest.param(lambda: CycleDistribution.histogram(0, (1.0,)), ValueError,
                     "bin size must be positive", id="histogram-bin-zero"),
        pytest.param(_points((), ()), ValueError, "empty support", id="points-empty"),
        pytest.param(_points((1, 2), (1.0,)), ValueError, "values and probs lengths differ",
                     id="points-lengths"),
        pytest.param(_points((2, 2), (0.5, 0.5)), ValueError,
                     "support must be strictly increasing", id="points-repeated"),
        pytest.param(_points((0, 2), (0.5, 0.5)), ValueError, "cycle counts must be positive",
                     id="points-zero"),
        pytest.param(lambda: CycleDistribution("normal"), ValueError,
                     "unknown distribution kind 'normal'", id="dist-kind"),
        pytest.param(_points((1, 2), (-0.5, 1.5)), ValueError,
                     "probabilities must be nonnegative", id="points-negative-mass"),
        pytest.param(_points((1, 2), (0.5, 0.25)), ValueError, "probabilities must sum to 1",
                     id="points-mass-short"),
        # workload functions
        pytest.param(lambda: CycleDistribution.uniform(5, 9).truncated(4), ValueError,
                     "cap below the smallest support value", id="truncated-below-support"),
        *(
            pytest.param(partial(_draw_into, out), ValueError,
                         "out must be a contiguous float64 array of size elements",
                         id=f"sample-array-out-{why}")
            for why, out in (
                ("int64", np.empty(4, dtype=np.int64)),
                ("float32", np.empty(4, dtype=np.float32)),
                ("short", np.empty(3)),
                ("long", np.empty(5)),
                ("2d", np.empty((4, 1))),
                ("strided", np.empty(8)[::2]),
                ("list", [0.0] * 4),
            )
        ),
        pytest.param(lambda: bin_trace([], 10), ValueError, "empty trace", id="bin-trace-empty"),
        pytest.param(lambda: bin_trace([5, 7], 0), ValueError, "bin size must be positive",
                     id="bin-trace-bin-zero"),
        pytest.param(lambda: bin_trace([5, 0], 10), ValueError, "cycle counts must be positive",
                     id="bin-trace-count-zero"),
        pytest.param(lambda: convolve([]), ValueError, "nothing to convolve", id="convolve-none"),
        # schedulability
        pytest.param(lambda: danger_zones_overhead(SYS, "loose"), ValueError,
                     "unknown overhead mode 'loose'", id="zones-mode"),
        # strategies
        pytest.param(lambda: discretize(SYS, danger_zones(SYS), dpms_rule(SYS), "down"),
                     ValueError, "unknown discretize mode 'down'", id="discretize-mode"),
        # simulator
        pytest.param(lambda: run_frames(SYS, TOP, np.ones(3)), ValueError,
                     "cycles must be (frames, tasks)", id="run-frames-1d"),
        pytest.param(lambda: run_frames(SYS, TOP, np.ones((3, 2))), ValueError,
                     "cycles must be (frames, tasks)", id="run-frames-columns"),
        pytest.param(lambda: monte_carlo(SYS, TOP, 0, 1), ValueError,
                     "need at least one frame", id="monte-carlo-no-frames"),
        pytest.param(lambda: sweep_deadlines(SYS, LIMIT, 1.0, 1.0, 3, 10, 1), ValueError,
                     "need d_lo < d_hi", id="sweep-empty-range"),
        pytest.param(lambda: sweep_deadlines(SYS, LIMIT, 0.5, 1.0, 1, 10, 1), ValueError,
                     "need at least two grid points", id="sweep-one-point"),
        pytest.param(lambda: sweep_deadlines(SYS, LIMIT, 0.5, 1.0, 3, 10, 1, baseline="dpms"),
                     ValueError, "baseline 'dpms' is not a strategy name", id="sweep-baseline"),
        # config sections and serialization
        pytest.param(lambda: StrategyEntry("a", "optimal"), ValueError,
                     "unknown strategy kind 'optimal'", id="entry-kind"),
        pytest.param(lambda: StrategyEntry("a", "dpms", "down"), ValueError,
                     "unknown strategy mode 'down'", id="entry-mode"),
        pytest.param(lambda: SimulationSettings(overheads="yes"), ValueError,
                     "overheads must be 'on' or 'off'", id="simulation-overheads"),
        pytest.param(lambda: SimulationSettings(n_frames=0), ValueError,
                     "n_frames must be positive", id="simulation-no-frames"),
        pytest.param(_experiment(("a", "a")), ValueError, "strategy names must be unique",
                     id="experiment-duplicate-names"),
        pytest.param(_experiment(("a",), baseline="b"), ValueError,
                     "sweep baseline must name a strategy entry", id="experiment-baseline"),
        pytest.param(_system_dict(kind="normal", lo=1, hi=600), ValueError,
                     "unknown distribution kind 'normal'", id="config-dist-kind"),
        pytest.param(lambda: system_to_dict(FrameSystem(
            (TaskSpec(2, CycleDistribution.from_points({1: 0.5, 2: 0.5})),), 1.0, CPU)),
            ValueError, "only uniform and histogram distributions serialize to config",
            id="config-points-dist"),
        # svgchart
        pytest.param(lambda: write_ratio_chart(SweepTable((SweepCell(1.0, "a", None, None),), "a"),
                                               "unused.svg"),
                     ValueError, "nothing to plot: all cells are NA", id="chart-all-na"),
    ],
)
def test_refusal(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def _write(name, text):
    def make(tmp: Path) -> Path:
        path = tmp / name
        path.write_text(text)
        return path
    return make


@pytest.mark.parametrize(
    "make,read,message",
    [
        pytest.param(_write("h.csv", "edge,p\n3000,1.0\n"), read_histogram_csv,
                     "{path}: expected 'bin_upper_cycles,probability' header", id="csv-header"),
        pytest.param(_write("h.csv", ""), read_histogram_csv,
                     "{path}: expected 'bin_upper_cycles,probability' header", id="csv-empty-file"),
        pytest.param(_write("h.csv", "bin_upper_cycles,probability\n"), read_histogram_csv,
                     "{path}: no bins", id="csv-no-bins"),
        pytest.param(_write("t.txt", "\n  \n"), read_trace, "{path}: empty trace",
                     id="trace-empty"),
        pytest.param(_write("s.json", '{"deadline_s": 1.0, "tasks": []}'), load_system,
                     "{path}: missing key 'cpu'", id="system-missing-key"),
        pytest.param(lambda tmp: tmp / "h.csv",
                     lambda path: write_histogram_csv(CycleDistribution.uniform(1, 5), path),
                     "only histogram distributions have a CSV form", id="csv-write-uniform"),
    ],
)
def test_file_refusal(tmp_path, make, read, message):
    path = make(tmp_path)
    with pytest.raises(ValueError) as info:
        read(path)
    assert type(info.value) is ValueError
    assert str(info.value) == message.format(path=path)


def test_convolve_grid_cap(monkeypatch):
    """Three atoms pass the atom-count bound, but their grid of 10**8 slots does not."""
    monkeypatch.setattr(workload, "CONVOLVE_CAP", 1_000)
    wide = CycleDistribution.from_points({1: 0.25, 2: 0.25, 10**8: 0.5})
    with pytest.raises(CapExceededError) as info:
        convolve([wide])
    assert str(info.value) == "convolution support exceeds cap"


def test_truncation_cap(monkeypatch):
    """A truncation refuses before it builds more atoms than the cap."""
    monkeypatch.setattr(workload, "CONVOLVE_CAP", 1_000)
    with pytest.raises(CapExceededError) as info:
        CycleDistribution.uniform(1, 5_000).truncated(4_000)
    assert str(info.value) == "truncation of 5000 atoms exceeds cap 1000"


def test_soft_eps_on_a_wide_uniform_exits_three(tmp_path, capsys):
    """simulate's soft_eps truncation of a 2**45-value uniform is too large, not out of memory."""
    task = {"wcec": 2**45, "dist": {"kind": "uniform", "lo": 1, "hi": 2**45}}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "system": {**SYS_DICT, "tasks": [task]},
        "strategies": [{"name": "dpms", "kind": "dpms"}],
        "simulation": {"n_frames": 10, "soft_eps": 0.05},
    }))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: input is valid but too large for an exact answer: "
        f"truncation of {2**45} atoms exceeds cap {workload.CONVOLVE_CAP}\n"
    )

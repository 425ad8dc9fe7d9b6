"""Per-layer tracing from outside the program.

The traced run replaces module attributes that callers look up at call
time with timing wrappers (`cli` binds its imports at import time, so
its names are wrapped beside the defining modules'). Each wrapped call
is a span; a span's self time is its duration minus the time of the
spans it encloses. Layer busy time counts only a layer's outermost
spans, so nested calls within one layer are not counted twice.
Untraced runs never import this module.
"""
from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from framedvs import (
    cli,
    config,
    oracle,
    schedulability,
    simulator,
    strategies,
    svgchart,
    workload,
)
from framedvs.core import CapExceededError, InfeasibleSystemError

from workloads import meets

LAYERS = (
    "cli",
    "config",
    "workload",
    "simulator",
    "strategies",
    "schedulability",
    "oracle",
    "svgchart",
)

# (owner, attribute, span name)
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "load_experiment", "config.load"),
    (config, "load_experiment", "config.load"),
    (config, "load_system", "config.load"),
    (cli, "sweep_deadlines", "simulator.sweep_deadlines"),
    (simulator, "sweep_deadlines", "simulator.sweep_deadlines"),
    (cli, "sample_cycles", "simulator.sample_cycles"),
    (simulator, "sample_cycles", "simulator.sample_cycles"),
    (cli, "run_frames", "simulator.run_frames"),
    (simulator, "run_frames", "simulator.run_frames"),
    (cli, "_stats", "simulator.stats"),
    (simulator, "_stats", "simulator.stats"),
    (simulator.SweepTable, "to_csv", "simulator.to_csv"),
    (svgchart, "write_ratio_chart", "svgchart.write_ratio_chart"),
    (cli, "build_limit", "strategies.build"),
    (cli, "discretize", "strategies.build"),
    (strategies, "build_limit", "strategies.build"),
    (strategies, "discretize", "strategies.build"),
    (cli, "dpms_rule", "strategies.rule"),
    (cli, "pitdvs_rule", "strategies.rule"),
    (strategies, "dpms_rule", "strategies.rule"),
    (strategies, "pitdvs_rule", "strategies.rule"),
    (cli, "danger_zones", "schedulability.danger_zones"),
    (cli, "danger_zones_overhead", "schedulability.danger_zones"),
    (simulator, "danger_zones", "schedulability.danger_zones"),
    (simulator, "danger_zones_overhead", "schedulability.danger_zones"),
    (schedulability, "danger_zones", "schedulability.danger_zones"),
    (schedulability, "danger_zones_overhead", "schedulability.danger_zones"),
    (cli, "check", "schedulability.check"),
    (schedulability, "check", "schedulability.check"),
    (cli, "worst_finish_oracle", "oracle.worst_finish"),
    (oracle, "worst_finish_oracle", "oracle.worst_finish"),
    (cli, "soft_deadline", "workload.soft_deadline"),
    (workload, "soft_deadline", "workload.soft_deadline"),
    (workload, "convolve", "workload.convolve"),
    (workload.CycleDistribution, "sample_array", "workload.sample_array"),
)


class _Span:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.setup_config_s = 0.0
        self.reset()
        self._patches = []
        for owner, attr, span in TARGETS:
            orig = getattr(owner, attr)
            hook = getattr(self, "_after_" + span.split(".", 1)[1], None)
            self._patches.append((owner, attr, orig, self._wrap(orig, span, hook)))

    def reset(self) -> None:
        """Drop everything recorded so far, so that set-up work stays out
        of the per-operation figures."""
        self._open: list[float] = []  # child time of each open span
        self._depth: Counter = Counter()  # open spans per layer
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.layers: dict[str, _Span] = defaultdict(_Span)
        self.counts: Counter = Counter()
        self.oracle_s = {False: 0.0, True: 0.0}
        self._live: dict[int, list] = {}  # id(cycle matrix) -> [draws, used]
        self._last_reject = None

    def end_setup(self) -> None:
        """Keep the set-up phase's config loads, then reset."""
        self.setup_config_s = self.layers["config"].busy
        self.reset()

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _wrap(self, fn, span: str, hook):
        layer = span.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            self._open.append(0.0)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                dur = perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dur
                self._depth[layer] -= 1
                s = self.spans[span]
                s.calls += 1
                s.busy += dur
                s.self_time += dur - child
                lay = self.layers[layer]
                lay.self_time += dur - child
                if outermost:
                    lay.calls += 1
                    lay.busy += dur
                if hook is not None:
                    hook(args, kwargs, result, error, dur)

        return wrapper

    # -- counters recorded where the work happens --------------------------

    def _after_sample_cycles(self, args, kwargs, result, error, dur):
        if result is None:
            return
        draws = int(result.size)
        self.counts["draws"] += draws
        self._live[id(result)] = entry = [draws, False]
        weakref.finalize(result, self._retire, id(result), entry)

    def _retire(self, key, entry):
        if self._live.get(key) is entry:
            del self._live[key]
        if entry[1]:
            self.counts["useful_draws"] += entry[0]

    def _after_run_frames(self, args, kwargs, result, error, dur):
        cycles = args[2] if len(args) > 2 else kwargs["cycles"]
        self.counts["task_frames"] += int(cycles.size)
        entry = self._live.get(id(cycles))
        if entry is not None:
            entry[1] = True

    def _after_build(self, args, kwargs, result, error, dur):
        if isinstance(error, InfeasibleSystemError):
            self.counts["build_infeasible"] += 1

    def _after_check(self, args, kwargs, result, error, dur):
        if result is None:
            return
        if result.schedulable:
            self.counts["check_accept"] += 1
            self._last_reject = None
        else:
            self.counts["check_reject"] += 1
            self._last_reject = (id(args[0]), id(args[1]))

    def _after_worst_finish(self, args, kwargs, result, error, dur):
        overheads = bool(kwargs.get("overheads", args[2] if len(args) > 2 else False))
        self.counts["oracle_on" if overheads else "oracle_off"] += 1
        self.oracle_s[overheads] += dur
        if isinstance(error, CapExceededError):
            self.counts["cap_exceeded"] += 1
        system, strategy = args[0], args[1]
        if result is not None and self._last_reject == (id(system), id(strategy)):
            # the oracle just ran on a strategy the check rejected
            self._last_reject = None
            if meets(result.tau[-1], system.deadline):
                self.counts["safe_reject"] += 1

    def _after_convolve(self, args, kwargs, result, error, dur):
        if result is not None:
            self.counts["support_atoms"] += len(result.values)

    # -- report -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        sp, c = self.spans, Counter(self.counts)
        c["useful_draws"] += sum(draws for draws, used in self._live.values() if used)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            lay = self.layers[name]
            out[f"{name}.calls"] = (lay.calls, "count")
            out[f"{name}.busy_s"] = (lay.busy, "s")
            out[f"{name}.self_s"] = (lay.self_time, "s")
        rf, sc = sp["simulator.run_frames"], sp["simulator.sample_cycles"]
        build, check = sp["strategies.build"], sp["schedulability.check"]
        n_oracle = c["oracle_off"] + c["oracle_on"]
        out.update({
            "simulator.run_frames.ns_per_task_frame": (per(rf.busy, c["task_frames"], 1e9), "ns"),
            "simulator.run_frames.busy_s": (rf.busy, "s"),
            "simulator.run_frames.task_frames": (c["task_frames"], "count"),
            "simulator.sample_cycles.ns_per_draw": (per(sc.busy, c["draws"], 1e9), "ns"),
            "simulator.sample_cycles.busy_s": (sc.busy, "s"),
            "simulator.sample_cycles.useful_ratio": (per(c["useful_draws"], c["draws"]), "ratio"),
            "simulator.sweep_deadlines.self_s": (sp["simulator.sweep_deadlines"].self_time, "s"),
            "simulator.stats.busy_s": (sp["simulator.stats"].busy, "s"),
            "simulator.to_csv.busy_s": (sp["simulator.to_csv"].busy, "s"),
            "cli.main.self_s": (sp["cli.main"].self_time, "s"),
            "config.load.busy_s": (self.setup_config_s, "s"),
            "svgchart.write_ratio_chart.busy_s": (sp["svgchart.write_ratio_chart"].busy, "s"),
            "strategies.build.us_per_call": (per(build.busy, build.calls, 1e6), "us"),
            "strategies.build.calls": (build.calls, "count"),
            "strategies.build.infeasible_ratio": (per(c["build_infeasible"], build.calls), "ratio"),
            "schedulability.danger_zones.us_per_call": (
                per(sp["schedulability.danger_zones"].busy, sp["schedulability.danger_zones"].calls, 1e6), "us"),
            "schedulability.check.us_per_call": (per(check.busy, check.calls, 1e6), "us"),
            "schedulability.check.accept_ratio": (per(c["check_accept"], check.calls), "ratio"),
            "schedulability.check.oracle_safe_reject_ratio": (
                per(c["safe_reject"], c["check_reject"]), "ratio"),
            "oracle.worst_finish_off.us_per_call": (per(self.oracle_s[False], c["oracle_off"], 1e6), "us"),
            "oracle.worst_finish_on.us_per_call": (per(self.oracle_s[True], c["oracle_on"], 1e6), "us"),
            "oracle.worst_finish.calls": (n_oracle, "count"),
            "oracle.worst_finish.cap_exceeded": (c["cap_exceeded"], "count"),
            "workload.convolve.busy_s": (sp["workload.convolve"].busy, "s"),
            "workload.convolve.support_atoms": (c["support_atoms"], "count"),
            "workload.soft_deadline.self_s": (sp["workload.soft_deadline"].self_time, "s"),
            "workload.sample_array.busy_s": (sp["workload.sample_array"].busy, "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        return out

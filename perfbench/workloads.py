"""The four benchmark workloads: their operations, work counts and output checks.

Each workload maps an operation index to a key that names its input
(`key`) and runs the operation for a key (`run_key`). Operations cycle
over the seeded inputs, so equal keys must give byte-equal outputs.
Primary operations (`primary`) feed work_per_s and op_p50_ms. `check`
holds the correctness rules that apply to any seed; `golden_digest`
feeds the recorded-seed hash gate.

Every call into the program goes through a module attribute
(`cli.main`, `strategies.discretize`, ...), so the traced run sees it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from framedvs import cli, config, oracle, schedulability, strategies, workload
from framedvs.core import InfeasibleSystemError
from framedvs.strategies import BetaVector
from framedvs.workload import CycleDistribution

import inputs

CSV_SWEEP_HEADER = "deadline_s,strategy,mean_energy_j,energy_ratio,miss_rate,stderr_j"
CSV_SIM_HEADER = (
    "strategy,frames,mean_energy_j,stderr_j,miss_rate,mean_freq_changes,mean_switch_time_s"
)
_CDF_GRACE = 1e-9  # the program's grace on cumulative-probability comparisons
# The oracle sums one finish time per task in float64, so a strategy that
# finishes exactly at D can read a few ulps above it (the acceptance suite
# allows 1e-9 s). A real miss is many orders of magnitude larger.
ORACLE_RTOL = 1e-12


def meets(tau: float, deadline: float) -> bool:
    return tau <= deadline * (1.0 + ORACLE_RTOL)


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def build_variant(system, zones, kind: str, mode: str, beta):
    """Build one variant through the public API, the way the CLI does."""
    if kind == "limit":
        return strategies.build_limit(system, zones)
    if kind == "dpms":
        return strategies.discretize(system, zones, strategies.dpms_rule(system, mode), mode)
    rule = strategies.pitdvs_rule(system, BetaVector(tuple(beta)), system.cpu.change_penalty_max, mode)
    return strategies.discretize(system, zones, rule, mode)


def check_built(system, zones, beta, overheads: bool) -> list[str]:
    """Every built variant passes its own check, and the oracle confirms it."""
    problems = []
    for name, kind, mode in inputs.VARIANTS:
        strat = build_variant(system, zones, kind, mode, beta)
        if not schedulability.check(system, strat, zones).schedulable:
            problems.append(f"{name} fails its own check at D={system.deadline!r}")
            continue
        tau = oracle.worst_finish_oracle(system, strat, overheads=overheads).tau[-1]
        if not meets(tau, system.deadline):
            problems.append(f"{name} passes check but oracle finish {tau!r} > D={system.deadline!r}")
    return problems


def cli_built_strategies(system_file: Path, workdir: Path, beta, zones: str) -> str:
    """sha256 over the strategy files `framedvs build` writes for each variant."""
    h = hashlib.sha256()
    for name, kind, mode in inputs.VARIANTS:
        out = workdir / f"strategy-{name}.json"
        argv = ["build", "--system", str(system_file), "--kind", kind, "--mode", mode,
                "--zones", zones, "--out", str(out)]
        if kind == "pitdvs":
            argv += ["--beta", ",".join(repr(b) for b in beta)]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"framedvs build {name} exited {rc}")
        h.update(out.read_bytes())
    return h.hexdigest()


def _rows(csv: str, header: str) -> list[list[str]]:
    lines = csv.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("unexpected CSV header")
    return [ln.split(",") for ln in lines[1:]]


class _OneInputPerOp:
    """Operation i runs input i mod len(inputs); every operation is primary."""

    inputs: list
    min_ops = 1
    reference_scaled = False  # see worker.py

    def keys(self):
        return range(len(self.inputs))

    def key(self, i: int):
        return i % len(self.inputs)

    def primary(self, key) -> bool:
        return True


class Sweep(_OneInputPerOp):
    name = "sweep"

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.workdir = workdir
        self.inputs = inputs.sweep_inputs(seed, root, workdir)
        self.system = config.load_system(self.inputs[0].system_file)
        self.csv = workdir / "sweep-out.csv"
        self.svg = workdir / "sweep-out.svg"

    def run_key(self, k):
        argv = ["sweep", "--config", str(self.inputs[k].experiment),
                "--out", str(self.csv), "--svg", str(self.svg)]
        rc = cli.main(argv)
        return rc, self.csv.read_text(), sha(self.svg.read_bytes())

    def work(self, out) -> float:
        """Task-frames simulated: feasible cells x frames x tasks."""
        feasible = sum(1 for row in _rows(out[1], CSV_SWEEP_HEADER) if row[2] != "NA")
        return feasible * inputs.SWEEP_FRAMES * self.system.n_tasks

    def check(self, k, out) -> list[str]:
        rc, csv, _ = out
        if rc != 0:
            return [f"sweep exited {rc}"]
        inp = self.inputs[k]
        rows = _rows(csv, CSV_SWEEP_HEADER)
        if len(rows) != inputs.SWEEP_POINTS * len(inputs.VARIANTS):
            return [f"sweep wrote {len(rows)} rows"]
        problems = []
        feasible = set()
        for d_s, name, energy, ratio, miss, _ in rows:
            d = float(d_s)
            if d < inp.infeasible_below:
                if energy != "NA":
                    problems.append(f"{name} simulated at infeasible D={d_s}")
                continue
            if energy == "NA":
                problems.append(f"{name} NA at feasible D={d_s}")
                continue
            feasible.add(d)
            if float(miss) != 0.0:
                problems.append(f"{name} misses {miss} of frames at D={d_s}")
            if not float(energy) > 0.0:
                problems.append(f"{name} energy {energy} at D={d_s}")
            if name == "dpms_closest" and float(ratio) != 1.0:
                problems.append(f"baseline ratio {ratio} at D={d_s}")
        for d in sorted(feasible):
            sys_d = replace(self.system, deadline=d)
            problems += check_built(sys_d, schedulability.danger_zones(sys_d), inp.beta, False)
        return problems

    def golden_digest(self, k, out) -> str:
        inp = self.inputs[k]
        return sha(out[1]) + cli_built_strategies(inp.system_file, self.workdir, inp.beta, "plain")


class SimulateOverheads(_OneInputPerOp):
    name = "simulate-overheads"

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.workdir = workdir
        self.inputs = inputs.simulate_inputs(seed, root, workdir)
        self.csv = workdir / "simulate-out.csv"

    def run_key(self, k):
        rc = cli.main(["simulate", "--config", str(self.inputs[k].experiment), "--out", str(self.csv)])
        return rc, self.csv.read_text()

    def work(self, out) -> float:
        rows = [r for r in _rows(out[1], CSV_SIM_HEADER) if r[2] != "NA"]
        return len(rows) * inputs.SIMULATE_FRAMES * self.inputs[0].system.n_tasks

    def check(self, k, out) -> list[str]:
        rc, csv = out
        if rc != 0:
            return [f"simulate exited {rc}"]
        rows = _rows(csv, CSV_SIM_HEADER)
        names = [r[0] for r in rows]
        if names != [v[0] for v in inputs.VARIANTS]:
            return [f"simulate rows {names}"]
        problems = []
        for name, frames, energy, _, miss, _, switch in rows:
            if energy == "NA":
                problems.append(f"{name} infeasible under sufficient zones")
                continue
            if int(frames) != inputs.SIMULATE_FRAMES:
                problems.append(f"{name} ran {frames} frames")
            if float(miss) != 0.0:
                problems.append(f"{name} misses {miss} of frames with overheads on")
            if not float(energy) > 0.0 or not float(switch) > 0.0:
                problems.append(f"{name} energy {energy} switch time {switch}")
        inp = self.inputs[k]
        zones = schedulability.danger_zones_overhead(inp.system, "sufficient")
        return problems + check_built(inp.system, zones, inp.beta, True)

    def golden_digest(self, k, out) -> str:
        inp = self.inputs[k]
        return sha(out[1]) + cli_built_strategies(inp.system_file, self.workdir, inp.beta, "sufficient")


class Verify(_OneInputPerOp):
    name = "verify"
    min_ops = 100  # p90 needs at least ten samples beyond it
    # Builders, check and oracle are pure-Python work, like worker.reference_pass.
    reference_scaled = True

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.inputs = inputs.verify_inputs(seed)

    def run_key(self, k) -> dict:
        """Zones, all five builds, check and oracle per build, in plain
        mode (overheads off) and sufficient mode (overheads on), plus
        check and oracle on one perturbed plain strategy."""
        inp = self.inputs[k]
        system = inp.system
        out: dict = {}
        zone_sets = (
            ("plain", schedulability.danger_zones(system), False),
            ("sufficient", schedulability.danger_zones_overhead(system, "sufficient"), True),
        )
        beta = [1.0] * system.n_tasks
        for label, zones, overheads in zone_sets:
            rows = []
            for name, kind, mode in inputs.VARIANTS:
                try:
                    strat = build_variant(system, zones, kind, mode, beta)
                except InfeasibleSystemError:
                    rows.append([name, None])
                    continue
                verdict = schedulability.check(system, strat, zones).schedulable
                tau = oracle.worst_finish_oracle(system, strat, overheads=overheads).tau[-1]
                rows.append([name, [list(f.points) for f in strat.funcs], verdict, tau])
                if label == "plain" and name == "limit":
                    limit_plain = strat
            out[label] = rows
        if out["plain"][0][1] is not None:
            strat = inputs.perturb(limit_plain, system.cpu, inp.perturbation)
            verdict = schedulability.check(system, strat, zone_sets[0][1]).schedulable
            tau = oracle.worst_finish_oracle(system, strat, overheads=False).tau[-1]
            out["perturbed"] = [verdict, tau]
        return out

    def work(self, out) -> float:
        return 1.0

    def check(self, k, out) -> list[str]:
        system = self.inputs[k].system
        top = sum(system.wcecs) / system.cpu.f_max
        budgets = {"plain": top, "sufficient": top + system.n_tasks * system.cpu.change_penalty_max}
        problems = []
        for label, budget in budgets.items():
            infeasible = budget > system.deadline
            for row in out[label]:
                if (row[1] is None) != infeasible:
                    problems.append(f"{label} {row[0]}: built={row[1] is not None}, infeasible={infeasible}")
                elif row[1] is not None and not row[2]:
                    problems.append(f"{label} {row[0]} fails its own check")
                elif row[1] is not None and not meets(row[3], system.deadline):
                    problems.append(f"{label} {row[0]} oracle finish {row[3]!r} > D")
        if "perturbed" in out:
            accepted, tau = out["perturbed"]
            if accepted and not meets(tau, system.deadline):
                problems.append(f"perturbed strategy accepted but oracle finish {tau!r} > D")
        return problems

    def golden_digest(self, k, out) -> str:
        return sha(json.dumps(out))


def _int_masses(dist: CycleDistribution) -> tuple[list[int], list[int], int]:
    """Support values and probabilities as exact integers over 2**shift."""
    vals, probs = dist.atoms()
    ratios = [float(p).as_integer_ratio() for p in probs]
    shift = max(d.bit_length() - 1 for _, d in ratios)
    return [int(v) for v in vals], [n << (shift - (d.bit_length() - 1)) for n, d in ratios], shift


def _cmp(mass: int, shift: int, threshold: float) -> int:
    """Sign of mass / 2**shift - threshold, computed exactly."""
    num, den = threshold.as_integer_ratio()
    lhs, rhs = mass * den, num << shift
    return (lhs > rhs) - (lhs < rhs)


def exact_soft_reference(system, eps: float) -> tuple[tuple[int, ...], int]:
    """kappa and frame percentile in exact integer arithmetic, with the
    program's float thresholds; the reference for histogram systems."""
    kappa = []
    total = {0: 1}
    total_shift = 0
    for t in system.tasks:
        vals, masses, shift = _int_masses(t.dist)
        # smallest value whose cumulative mass reaches 1 - eps - grace
        cum, pick = 0, vals[-1]
        for v, m in zip(vals, masses):
            cum += m
            if _cmp(cum, shift, 1.0 - eps - _CDF_GRACE) >= 0:
                pick = v
                break
        kappa.append(pick)
        nxt: dict[int, int] = {}
        for s, ps in total.items():
            for v, m in zip(vals, masses):
                nxt[s + v] = nxt.get(s + v, 0) + ps * m
        total, total_shift = nxt, total_shift + shift
    # smallest total c with P[total < c] > 1 - eps + grace
    support = sorted(total)
    below, frame = 0, support[-1]
    for c in support:
        if _cmp(below, total_shift, 1.0 - eps + _CDF_GRACE) > 0:
            frame = c
            break
        below += total[c]
    return tuple(kappa), frame


class SoftDeadline:
    """Blocks of one xscale-shaped report (the primary operation) followed
    by one report on each ppc405-shaped histogram system. Its outputs are
    checked against exact values for every seed, so it has no golden hash."""

    name = "soft-deadline"
    min_ops = 1
    reference_scaled = False

    def __init__(self, seed: int, root: Path, workdir: Path, recorded: dict):
        self.uniform, self.hist = inputs.soft_inputs(seed, root)
        self.base = recorded
        self.block = 1 + len(self.hist)
        # Pays the program's lazy FFT set-up (today: the scipy.signal
        # import in `convolve`) here, so it lands in setup_s.
        warm = [CycleDistribution.uniform(1, 3000), CycleDistribution.uniform(1, 3000)]
        workload.convolve(warm)

    def key(self, i: int):
        b, j = divmod(i, self.block)
        n = len(inputs.SOFT_EPS)
        return ("u", b % len(self.uniform), b % n) if j == 0 else ("h", j - 1, (b + j) % n)

    def primary(self, key) -> bool:
        return key[0] == "u"

    def run_key(self, key):
        kind, k, e = key
        system = self.uniform[k].system if kind == "u" else self.hist[k]
        r = workload.soft_deadline(system, inputs.SOFT_EPS[e])
        return list(r.kappa), r.frame_wcec, r.frame_percentile, r.adjusted_deadline

    def work(self, out) -> float:
        return 1.0

    def check(self, key, out) -> list[str]:
        kind, k, e = key
        eps = inputs.SOFT_EPS[e]
        kappa, frame_wcec, frame, _ = out
        if kind == "u":
            inp = self.uniform[k]
            rec = self.base[repr(eps)]
            want_kappa = [a + d for a, d in zip(rec["kappa"], inp.shift)]
            want_frame = rec["frame_percentile"] + sum(inp.shift)
            want_wcec = sum(inp.system.wcecs)
        else:
            system = self.hist[k]
            want_kappa, want_frame = exact_soft_reference(system, eps)
            want_kappa = list(want_kappa)
            want_wcec = sum(system.wcecs)
        problems = []
        if kappa != want_kappa:
            problems.append(f"{key}: kappa {kappa} != {want_kappa}")
        if frame != want_frame:
            problems.append(f"{key}: frame_percentile {frame} != {want_frame}")
        if frame_wcec != want_wcec:
            problems.append(f"{key}: frame_wcec {frame_wcec} != {want_wcec}")
        return problems


def make(name: str, seed: int, root: Path, workdir: Path, golden: dict):
    if name == "soft-deadline":
        return SoftDeadline(seed, root, workdir, golden["soft-deadline"]["xscale"])
    return {"sweep": Sweep, "simulate-overheads": SimulateOverheads, "verify": Verify}[name](
        seed, root, workdir
    )


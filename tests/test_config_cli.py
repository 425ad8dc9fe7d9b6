import json
import math
from pathlib import Path

import pytest

from framedvs.cli import main
from framedvs.config import (
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
    load_strategy,
    load_system,
    read_histogram_csv,
    read_trace,
    system_from_dict,
    system_to_dict,
    write_histogram_csv,
)
from framedvs.workload import CycleDistribution

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path


def small_system_dict(deadline_s=1.0, freqs=(500.0, 1000.0), wcecs=(600,)):
    return {
        "deadline_s": deadline_s,
        "cpu": {"freqs_mhz": list(freqs), "power_w": [0.5] * len(freqs)},
        "tasks": [
            {"wcec": w, "dist": {"kind": "uniform", "lo": max(1, w // 2), "hi": w}}
            for w in wcecs
        ],
    }


class TestConfigRoundTrip:
    def test_system_roundtrip_identity(self):
        d = small_system_dict(wcecs=(600, 400))
        sys1 = system_from_dict(d)
        canon = system_to_dict(sys1)
        sys2 = system_from_dict(canon)
        assert system_to_dict(sys2) == canon

    def test_mhz_conversion(self):
        sys1 = system_from_dict(small_system_dict(freqs=(150.0, 1000.0)))
        assert sys1.cpu.freqs == (150e6, 1000e6)

    def test_experiment_roundtrip_identity(self):
        d = {
            "system": small_system_dict(wcecs=(500, 300)),
            "strategies": [
                {"name": "a", "kind": "limit"},
                {"name": "b", "kind": "dpms", "mode": "up"},
            ],
            "simulation": {"n_frames": 100, "seed": 7, "overheads": "off"},
            "sweep": {"d_lo": 0.1, "d_hi": 1.0, "n_points": 4, "baseline": "b"},
        }
        cfg = experiment_from_dict(d)
        canon = experiment_to_dict(cfg)
        assert experiment_to_dict(experiment_from_dict(canon)) == canon

    def test_shipped_configs_parse(self):
        for name in ("xscale.json", "ppc405.json", "two_freq_showcase.json"):
            sysd = load_system(CONFIGS / name)
            assert sysd.n_tasks >= 1
        cfg = load_experiment(CONFIGS / "experiment_showcase.json")
        assert cfg.sweep is not None

    def test_histogram_csv_roundtrip(self, tmp_path):
        d = CycleDistribution.histogram(250, (0.1, 0.0, 0.4, 0.5))
        path = tmp_path / "h.csv"
        write_histogram_csv(d, path)
        back = read_histogram_csv(path)
        assert back.bin_size == 250
        assert back.probs.tolist() == d.probs.tolist()

    def test_histogram_file_reference(self, tmp_path):
        d = CycleDistribution.histogram(100, (0.5, 0.5))
        write_histogram_csv(d, tmp_path / "dist.csv")
        cfg = small_system_dict()
        cfg["tasks"] = [
            {"wcec": 200, "dist": {"kind": "histogram", "histogram_file": "dist.csv"}}
        ]
        sysd = load_system(write_json(tmp_path / "sys.json", cfg))
        assert sysd.tasks[0].dist.bin_size == 100

    def test_trace_reading(self, tmp_path):
        p = tmp_path / "trace.txt"
        p.write_text("100\n250\n\n90\n")
        assert read_trace(p) == [100, 250, 90]


class TestCmdCheckBuild:
    def test_build_then_check_passes(self, tmp_path):
        sys_file = write_json(
            tmp_path / "sys.json", small_system_dict(wcecs=(600_000_000,))
        )
        out = tmp_path / "strategy.json"
        assert main(["build", "--system", str(sys_file), "--kind", "limit",
                     "--out", str(out)]) == 0
        assert main(["check", "--system", str(sys_file), "--strategy", str(out)]) == 0
        strat = load_strategy(out)
        # the clamp collapses the slow step: top speed from the start
        assert strat.funcs[0].points == ((0.0, 1e9),)

    def test_slow_strategy_fails_check(self, tmp_path, capsys):
        sys_file = write_json(tmp_path / "sys.json", small_system_dict())
        strat_file = write_json(tmp_path / "slow.json", {"funcs": [[[0.0, 500e6]]]})
        assert main(["check", "--system", str(sys_file), "--strategy", str(strat_file)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violation"]["task"] == 1
        assert report["violation"]["provided_hz"] == 500e6

    def test_truncated_json_is_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"deadline_s": 1.0, "cpu": {')
        strat_file = write_json(tmp_path / "s.json", {"funcs": [[[0.0, 500e6]]]})
        assert main(["check", "--system", str(bad), "--strategy", str(strat_file)]) == 2

    def test_build_infeasible_exits_one(self, tmp_path):
        sys_file = write_json(
            tmp_path / "sys.json",
            small_system_dict(deadline_s=0.0001, wcecs=(600_000_000,)),
        )
        assert main(["build", "--system", str(sys_file), "--kind", "limit",
                     "--out", str(tmp_path / "o.json")]) == 1

    def test_pitdvs_build_round_trips(self, tmp_path):
        sys_file = write_json(tmp_path / "sys.json", small_system_dict(wcecs=(300, 200)))
        out = tmp_path / "p.json"
        assert main(["build", "--system", str(sys_file), "--kind", "pitdvs",
                     "--mode", "closest", "--beta", "1.0,0.9", "--pt", "0.0",
                     "--out", str(out)]) == 0
        assert main(["check", "--system", str(sys_file), "--strategy", str(out)]) == 0


class TestCmdSimulateSweep:
    def experiment(self, tmp_path, n_frames=500):
        d = {
            "system": small_system_dict(deadline_s=0.5, wcecs=(400, 300, 500)),
            "strategies": [
                {"name": "dpms_up", "kind": "dpms", "mode": "up"},
                {"name": "dpms_closest", "kind": "dpms", "mode": "closest"},
                {"name": "dpms_closest_2", "kind": "dpms", "mode": "closest"},
            ],
            "simulation": {"n_frames": n_frames, "seed": 11, "overheads": "off"},
            "sweep": {"d_lo": 1.0e-6, "d_hi": 4.0e-6, "n_points": 5,
                      "baseline": "dpms_closest"},
        }
        return write_json(tmp_path / "exp.json", d)

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = self.experiment(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_deterministic_bytes_and_svg(self, tmp_path):
        cfg = self.experiment(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        svg = tmp_path / "curves.svg"
        assert main(["sweep", "--config", str(cfg), "--out", str(a),
                     "--svg", str(svg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert svg.read_text().startswith("<svg")

    def test_duplicate_strategy_entries_ratio_one(self, tmp_path):
        cfg = self.experiment(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            d, name, energy, ratio, miss, stderr = line.split(",")
            if name == "dpms_closest_2" and ratio != "NA":
                assert float(ratio) == 1.0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self.experiment(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a),
                     "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestOtherCommands:
    def test_soft_deadline_output(self, tmp_path, capsys):
        sys_file = write_json(tmp_path / "sys.json", small_system_dict(wcecs=(100, 200)))
        assert main(["soft-deadline", "--system", str(sys_file), "--eps", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["frame_wcec"] == 300
        assert out["adjusted_deadline_s"] >= 1.0

    def test_oracle_exit_codes(self, tmp_path, capsys):
        sys_file = write_json(
            tmp_path / "sys.json", small_system_dict(wcecs=(600_000_000,))
        )
        fast = write_json(tmp_path / "fast.json", {"funcs": [[[0.0, 1000e6]]]})
        slow = write_json(tmp_path / "slow.json", {"funcs": [[[0.0, 500e6]]]})
        assert main(["oracle", "--system", str(sys_file), "--strategy", str(fast)]) == 0
        fast_report = json.loads(capsys.readouterr().out)
        assert fast_report["tau_s"][-1] == pytest.approx(0.6, rel=1e-9)
        assert not fast_report["worst_case_miss"]
        assert main(["oracle", "--system", str(sys_file), "--strategy", str(slow)]) == 1


def _set(path, value):
    """System-dict patch that sets the entry at ``path`` to ``value``."""

    def apply(d):
        *head, last = path
        for key in head:
            d = d[key]
        d[last] = value

    return apply


class TestNonFiniteInput:
    """Inputs a verdict cannot rest on are invalid input (exit 2)."""

    @pytest.mark.parametrize(
        "patch,strategy,build_args",
        [
            pytest.param(_set(("deadline_s",), math.nan), None, [], id="deadline-nan-build"),
            pytest.param(_set(("deadline_s",), math.nan), {"funcs": [[[0.0, 1e9]]]}, [],
                         id="deadline-nan-check"),
            pytest.param(_set(("deadline_s",), math.inf), {"funcs": [[[0.0, 1e9]]]}, [],
                         id="deadline-inf-check"),
            pytest.param(_set(("cpu", "freqs_mhz", 0), math.nan), None, [], id="freq-nan"),
            pytest.param(_set(("cpu", "power_w", 1), math.inf), None, [], id="power-inf"),
            pytest.param(_set(("cpu", "pt_matrix_s"), [[0.0, 1e-6], [math.nan, 0.0]]),
                         None, [], id="penalty-nan"),
            pytest.param(_set(("cpu", "st_vector_s"), [0.0, math.inf]), None, [],
                         id="same-speed-switch-inf"),
            pytest.param(_set(("tasks", 0, "wcec"), 600_000_000.5), None, [],
                         id="wcec-fraction"),
            pytest.param(None, {"funcs": [[[0.0, 500e6], [math.nan, 1e9]]]}, [],
                         id="step-time-nan"),
            pytest.param(None, {"funcs": [[[0.0, math.inf]]]}, [], id="step-freq-inf"),
            pytest.param(_set(("tasks", 0, "dist"), {"kind": "histogram", "bin_size": 300_000_000,
                                                     "probs": [math.nan, 1.0]}),
                         None, [], id="histogram-prob-nan"),
            pytest.param(None, None, ["--kind", "pitdvs", "--pt", "nan"], id="pitdvs-pt-nan"),
            pytest.param(_set(("tasks",), [{"wcec": 100, "dist": {"kind": "uniform", "lo": 50,
                                                                  "hi": 100}}] * 2),
                         None, ["--kind", "pitdvs", "--pt", "inf"], id="pitdvs-pt-inf"),
        ],
    )
    def test_exits_two(self, tmp_path, patch, strategy, build_args):
        d = small_system_dict(wcecs=(600_000_000,))
        if patch is not None:
            patch(d)
        sys_file = write_json(tmp_path / "sys.json", d)
        if strategy is None:
            argv = ["build", "--system", str(sys_file), "--out", str(tmp_path / "o.json")]
            argv += build_args or ["--kind", "limit"]
        else:
            strat_file = write_json(tmp_path / "strategy.json", strategy)
            argv = ["check", "--system", str(sys_file), "--strategy", str(strat_file)]
        assert main(argv) == 2


class TestSoftDeadlineExperiments:
    """simulate builds against the relaxed system; sweep refuses soft_eps."""

    def experiment(self, tmp_path, **simulation):
        system = {
            "deadline_s": 9.0e-7,
            "cpu": {"freqs_mhz": [500.0, 1000.0], "power_w": [0.4, 1.6]},
            "tasks": [
                {"wcec": 400, "dist": {"kind": "histogram", "bin_size": 100,
                                       "probs": [0.4, 0.3, 0.2, 0.1]}},
                {"wcec": 300, "dist": {"kind": "histogram", "bin_size": 100,
                                       "probs": [0.5, 0.3, 0.2]}},
            ],
        }
        d = {
            "system": system,
            "strategies": [
                {"name": "limit", "kind": "limit"},
                {"name": "dpms_up", "kind": "dpms", "mode": "up"},
                {"name": "dpms_closest", "kind": "dpms", "mode": "closest"},
                {"name": "pitdvs", "kind": "pitdvs", "mode": "closest"},
            ],
            "simulation": {"n_frames": 2000, "seed": 5, "overheads": "off", **simulation},
            "sweep": {"d_lo": 8.0e-7, "d_hi": 1.2e-6, "n_points": 3, "baseline": "limit"},
        }
        return write_json(tmp_path / "exp.json", d)

    def rows(self, tmp_path, **simulation) -> list[str]:
        out = tmp_path / "stats.csv"
        assert main(["simulate", "--config", str(self.experiment(tmp_path, **simulation)),
                     "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    @pytest.mark.parametrize("soft_wcec", ["kappa", "true_wcec"])
    def test_simulate_builds_for_the_relaxed_deadline(self, tmp_path, soft_wcec):
        hard = self.rows(tmp_path)
        soft = self.rows(tmp_path, soft_eps=0.2, soft_wcec=soft_wcec)
        assert [r.split(",")[0] for r in soft] == [r.split(",")[0] for r in hard]
        assert all("NA" not in r.split(",") for r in soft)
        assert soft != hard

    def test_sweep_rejects_soft_eps(self, tmp_path, capsys):
        cfg = self.experiment(tmp_path, soft_eps=0.2)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
        assert "soft_eps" in capsys.readouterr().err

import json
import math
import tracemalloc
from pathlib import Path

import pytest

from framedvs import cli, workload
from framedvs.cli import main
from framedvs.config import (
    SimulationSettings,
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
from framedvs.core import CapExceededError
from framedvs.simulator import SimStats, SweepCell, SweepTable, evaluate
from framedvs.svgchart import write_ratio_chart
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

    def test_defaults_live_in_the_settings_classes(self):
        cfg = experiment_from_dict({
            "system": small_system_dict(),
            "strategies": [{"name": "a", "kind": "dpms"}],
            "sweep": {"d_lo": 0.1, "d_hi": 1.0, "n_points": 4},
        })
        assert cfg.simulation == SimulationSettings()
        assert cfg.strategies[0].mode == "closest"
        assert cfg.strategies[0].params == {}
        assert cfg.sweep.baseline is None

    def test_shipped_configs_parse(self):
        for name in ("xscale.json", "ppc405.json", "two_freq_showcase.json"):
            sysd = load_system(CONFIGS / name)
            assert sysd.n_tasks >= 1
        cfg = load_experiment(CONFIGS / "experiment_showcase.json")
        assert cfg.sweep is not None

    def test_histogram_system_roundtrip(self):
        system = load_system(CONFIGS / "ppc405.json")
        d = system_to_dict(system)
        assert {t["dist"]["kind"] for t in d["tasks"]} == {"histogram"}
        assert system_from_dict(d) == system
        cfg = experiment_from_dict({"system": d, "strategies": [{"name": "a", "kind": "limit"}]})
        assert experiment_to_dict(cfg)["system"] == d

    def test_histogram_csv_roundtrip(self, tmp_path):
        d = CycleDistribution.histogram(250, (0.1, 0.0, 0.4, 0.5))
        path = tmp_path / "h.csv"
        write_histogram_csv(d, path)
        back = read_histogram_csv(path)
        assert back.bin_size == 250
        assert back.probs.tolist() == d.probs.tolist()

    def test_histogram_repeated_edges_add_their_masses(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_upper_cycles,probability\n20,0.1\n10,0.1\n20,0.1\n20,0.7\n")
        back = read_histogram_csv(path)
        assert back.bin_size == 10
        # in file order, as a running sum from zero
        assert back.probs.tolist() == [0.1, ((0.0 + 0.1) + 0.1) + 0.7]

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

    def test_check_has_no_necessary_mode(self, tmp_path):
        """Passing necessary zones is no schedulability verdict, so check refuses them."""
        sys_file = write_json(tmp_path / "sys.json", small_system_dict())
        strat_file = write_json(tmp_path / "fast.json", {"funcs": [[[0.0, 1000e6]]]})
        with pytest.raises(SystemExit) as exc:
            main(["check", "--system", str(sys_file), "--strategy", str(strat_file),
                  "--mode", "necessary"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "kind,flags",
        [("limit", ["--pt", "0"]), ("dpms", ["--beta", "1.0"]), ("dpms", ["--pt", "0"])],
    )
    def test_params_refused_outside_pitdvs(self, tmp_path, capsys, kind, flags):
        sys_file = write_json(tmp_path / "sys.json", small_system_dict())
        out = tmp_path / "o.json"
        assert main(["build", "--system", str(sys_file), "--kind", kind, *flags,
                     "--out", str(out)]) == 2
        assert "pitdvs only" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_beta_flag_is_a_length_mismatch(self, tmp_path, capsys):
        sys_file = write_json(tmp_path / "sys.json", small_system_dict(wcecs=(300, 200)))
        out = tmp_path / "p.json"
        assert main(["build", "--system", str(sys_file), "--kind", "pitdvs", "--beta", "",
                     "--out", str(out)]) == 2
        assert "beta length does not match task count" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_beta_param_is_a_length_mismatch(self, tmp_path, capsys):
        exp = {
            "system": small_system_dict(deadline_s=0.5, wcecs=(400, 300)),
            "strategies": [{"name": "p", "kind": "pitdvs", "params": {"beta": []}}],
            "simulation": {"n_frames": 10},
        }
        cfg = write_json(tmp_path / "exp.json", exp)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "beta length does not match task count" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "section,key,text",
        [
            ("simulation", "n_frames", "1e400"),
            ("simulation", "n_frames", "1.5"),
            ("simulation", "seed", "1.7"),
            ("simulation", "seed", "null"),
            ("sweep", "n_points", "2.5"),
        ],
    )
    def test_counts_that_are_not_integers_exit_two(self, tmp_path, section, key, text):
        cfg = self.experiment(tmp_path)
        d = json.loads(cfg.read_text())
        d[section][key] = "@COUNT@"
        cfg.write_text(json.dumps(d).replace('"@COUNT@"', text))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_without_out_prints_the_csv(self, tmp_path, capsys, command):
        cfg = self.experiment(tmp_path)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_simulate_prints_na_for_an_infeasible_strategy(self, tmp_path, capsys):
        d = json.loads(self.experiment(tmp_path).read_text())
        d["system"]["deadline_s"] = 1.0e-7  # below the total work at top speed
        cfg = write_json(tmp_path / "exp.json", d)
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == [f"{s['name']},500,NA,NA,NA,NA,NA" for s in d["strategies"]]

    def test_sweep_without_sweep_section_exits_two(self, tmp_path, capsys):
        d = json.loads(self.experiment(tmp_path).read_text())
        del d["sweep"]
        cfg = write_json(tmp_path / "exp.json", d)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config has no sweep section\n"

    def test_one_deadline_chart(self, tmp_path):
        stats = SimStats(10, 1.0, 0.0, 0.0, 0.0)
        table = SweepTable((SweepCell(0.5, "a", stats, 1.0), SweepCell(0.5, "b", stats, 0.8)), "a")
        svg = tmp_path / "one.svg"
        write_ratio_chart(table, svg)
        text = svg.read_text()
        assert text.startswith("<svg") and "nan" not in text and "inf" not in text

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

    def test_cap_exceeded_exits_three(self, tmp_path, capsys):
        """A valid input too large for an exact answer is not invalid input."""
        d = small_system_dict(wcecs=(5_000_000,) * 3)
        for task in d["tasks"]:
            task["dist"]["lo"] = 1
        sys_file = write_json(tmp_path / "sys.json", d)
        assert main(["soft-deadline", "--system", str(sys_file), "--eps", "0.05"]) == 3
        assert "valid but too large for an exact answer" in capsys.readouterr().err


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
            pytest.param(None, {"funcs": [[[0.0, 5000e6]]]}, [], id="step-freq-off-table"),
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
    """simulate builds for the tasks truncated at their percentiles; sweep refuses soft_eps."""

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

    @pytest.mark.parametrize("built_for", ["kappa", "true_deadline"])
    def test_simulate_builds_for_the_relaxed_deadline(self, tmp_path, monkeypatch, built_for):
        """soft_eps relaxes the deadline by percentile: the strategies are built for the
        tasks truncated at their percentiles kappa_i, against the true deadline."""
        seen = []

        def spy(system, build_sys, *rest):
            seen.append((system, build_sys))
            return evaluate(system, build_sys, *rest)

        monkeypatch.setattr(cli, "evaluate", spy)
        hard = self.rows(tmp_path)
        soft = self.rows(tmp_path, soft_eps=0.2)
        assert [r.split(",")[0] for r in soft] == [r.split(",")[0] for r in hard]
        assert all("NA" not in r.split(",") for r in soft)
        assert soft != hard
        system, build_sys = seen[-1]
        if built_for == "kappa":
            kappa = [t.dist.percentile(0.2) for t in system.tasks]
            assert kappa == [300, 200]
            assert [t.wcec for t in build_sys.tasks] == kappa
            assert [int(t.dist.atoms()[0].max()) for t in build_sys.tasks] == kappa
        else:
            assert build_sys.deadline == system.deadline == 9.0e-7
            assert build_sys.cpu == system.cpu

    @pytest.mark.parametrize("name", ["ppc405", "xscale"])
    def test_miss_rate_within_the_union_bound(self, tmp_path, name):
        """Only a frame with some task above its percentile kappa_i can miss."""
        eps, n_frames = 0.05, 20_000
        d = {
            "system_file": str(CONFIGS / f"{name}.json"),
            "strategies": json.loads(self.experiment(tmp_path).read_text())["strategies"],
            "simulation": {"n_frames": n_frames, "seed": 11, "soft_eps": eps},
        }
        out = tmp_path / "stats.csv"
        assert main(["simulate", "--config", str(write_json(tmp_path / "exp.json", d)),
                     "--out", str(out)]) == 0
        bound = 0.0
        for t in load_system(CONFIGS / f"{name}.json").tasks:
            vals, mass = t.dist.atoms()
            bound += math.fsum(mass[vals > t.dist.percentile(eps)].tolist())
        assert 0.0 < bound < 1.0
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / n_frames)
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["limit", "dpms_up", "dpms_closest", "pitdvs"]
        for r in rows:
            assert float(r[4]) <= bound + slack, r

    def test_sweep_rejects_soft_eps(self, tmp_path, capsys):
        cfg = self.experiment(tmp_path, soft_eps=0.2)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
        assert "soft_eps" in capsys.readouterr().err


class TestMalformedFiles:
    """A file of the wrong shape is invalid input (exit 2), never a verdict (0 or 1)."""

    @pytest.mark.parametrize(
        "command,target,patch,key",
        [
            pytest.param("simulate", "exp", _set(("strategies",), []), "strategies",
                         id="no-strategies"),
            pytest.param("sweep", "exp", _set(("strategies",), []), "strategies",
                         id="no-strategies-sweep"),
            pytest.param("simulate", "exp", _set(("strategies",), "x"), None,
                         id="strategies-string"),
            pytest.param("simulate", "exp", _set(("simulation",), []), None,
                         id="simulation-list"),
            pytest.param("simulate", "exp", _set(("strategies", 0, "params"), [1]), None,
                         id="params-list"),
            pytest.param("simulate", "exp", _set(("strategies", 0, "params"), {"betas": [1]}),
                         "betas", id="params-unknown-key"),
            pytest.param("simulate", "exp", _set(("strategies", 0, "params"), {"beta": [1.0] * 3}),
                         "pitdvs only", id="params-on-dpms"),
            pytest.param("sweep", "exp", _set(("simulation", "n_frame"), 5), "n_frame",
                         id="simulation-unknown-key"),
            pytest.param("simulate", "exp", _set(("simulation", "soft_wcec"), "kappa"), "soft_wcec",
                         id="simulation-soft_wcec"),
            pytest.param("check", "sys", _set(("cpu",), []), None, id="system-cpu-list"),
            pytest.param("check", "sys", _set(("tasks", 0, "dist"), []), None,
                         id="system-dist-list"),
            pytest.param("check", "strategy", _set(("funcs",), 5), None,
                         id="strategy-funcs-int"),
        ],
    )
    def test_exits_two_naming_the_file(self, tmp_path, capsys, command, target, patch, key):
        files = {
            "exp": TestCmdSimulateSweep().experiment(tmp_path),
            "sys": write_json(tmp_path / "sys.json", small_system_dict(wcecs=(600_000_000,))),
            "strategy": write_json(tmp_path / "strategy.json", {"funcs": [[[0.0, 1000e6]]]}),
        }
        d = json.loads(files[target].read_text())
        patch(d)
        write_json(files[target], d)
        if command == "check":
            argv = ["check", "--system", str(files["sys"]), "--strategy", str(files["strategy"])]
        else:
            argv = [command, "--config", str(files["exp"]), "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(files[target]) in err
        if key is not None:
            assert key in err

    @pytest.mark.parametrize(
        "patch,key",
        [
            pytest.param(_set(("cpu", "pt_matrix"), [[0.0, 1e-4, 2e-4, 3e-4]] * 4), "pt_matrix",
                         id="cpu-pt_matrix-typo"),
            pytest.param(_set(("deadline",), 0.02), "deadline", id="top-level-typo"),
            pytest.param(_set(("tasks", 2, "lable"), "x"), "lable", id="task-typo"),
        ],
    )
    def test_system_unknown_key_exits_two(self, tmp_path, capsys, patch, key):
        """A typo must not quietly change the model, e.g. drop every switch penalty."""
        d = json.loads((CONFIGS / "ppc405.json").read_text())
        patch(d)
        path = write_json(tmp_path / "ppc405.json", d)
        assert main(["soft-deadline", "--system", str(path), "--eps", "0.05"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert key in err

    @pytest.mark.parametrize(
        "rows,edge",
        [
            pytest.param("0,0.5\n3000,0.25\n6000,0.25", "0", id="zero-edge"),
            pytest.param("-3000,0.5\n3000,0.25\n6000,0.25", "-3000", id="negative-edge"),
            pytest.param("0,1.0", "0", id="only-edge-zero"),
        ],
    )
    def test_histogram_edge_not_positive_exits_two(self, tmp_path, capsys, rows, edge):
        """A nonpositive bin edge must not index a bin from the end or divide by zero."""
        csv = tmp_path / "dist.csv"
        csv.write_text("bin_upper_cycles,probability\n" + rows + "\n")
        d = small_system_dict()
        d["tasks"] = [{"wcec": 6000, "dist": {"kind": "histogram", "histogram_file": "dist.csv"}}]
        sys_file = write_json(tmp_path / "sys.json", d)
        assert main(["soft-deadline", "--system", str(sys_file), "--eps", "0.05"]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err
        assert f"bin edge {edge} " in err

    def test_switch_penalty_diagonal_exits_two(self, tmp_path, capsys):
        """Same-speed times on the pt_matrix_s diagonal would be read as zero."""
        d = small_system_dict()
        d["cpu"]["pt_matrix_s"] = [[5e-7, 2e-6], [1e-6, 5e-7]]
        path = write_json(tmp_path / "sys.json", d)
        assert main(["soft-deadline", "--system", str(path), "--eps", "0.05"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "st_vector_s" in err

    def test_system_and_system_file_together_exit_two(self, tmp_path, capsys):
        exp = TestCmdSimulateSweep().experiment(tmp_path)
        d = json.loads(exp.read_text())
        write_json(tmp_path / "sys.json", d["system"])
        d["system"], d["system_file"] = {"bogus": 1}, "sys.json"
        write_json(exp, d)
        assert main(["simulate", "--config", str(exp), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert str(exp) in err
        assert "system_file" in err


class TestHistogramGridCap:
    """A histogram CSV's grid is max(edge) / gcd(edges) bins, capped like a convolution."""

    def write(self, tmp_path, rows: str) -> Path:
        csv = tmp_path / "dist.csv"
        csv.write_text("bin_upper_cycles,probability\n" + rows + "\n")
        return csv

    def test_wide_grid_exits_three_before_allocating(self, tmp_path, capsys):
        csv = self.write(tmp_path, "1,0.5\n10000000000,0.5")
        d = small_system_dict()
        d["tasks"] = [{"wcec": 10**10, "dist": {"kind": "histogram", "histogram_file": "dist.csv"}}]
        sys_file = write_json(tmp_path / "sys.json", d)
        tracemalloc.start()
        try:
            assert main(["soft-deadline", "--system", str(sys_file), "--eps", "0.05"]) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        err = capsys.readouterr().err
        assert str(csv) in err
        assert "10000000000 bins" in err

    def test_cap_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workload, "CONVOLVE_CAP", 4)
        assert len(read_histogram_csv(self.write(tmp_path, "3,0.5\n12,0.5")).probs) == 4
        with pytest.raises(CapExceededError):
            read_histogram_csv(self.write(tmp_path, "3,0.5\n15,0.5"))

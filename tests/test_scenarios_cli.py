"""Tests for the scenario driver, report serialization, and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from symquant import groups, spin
from symquant.cli import main
from symquant.reporting import Check, dumps, make_check, strip_timing
from symquant.scenarios import (
    BUILTIN_SCENARIOS,
    ConfigParseError,
    UnknownScenarioError,
    parse_config,
    run_all,
    run_scenario,
)


class TestReporting:
    def test_passed_consistency_enforced(self):
        with pytest.raises(ValueError):
            Check(name="x", passed=True, max_error=2.0, tolerance=1.0)

    def test_make_check(self):
        c = make_check("x", 0.5, 1.0)
        assert c.passed
        c = make_check("x", 2.0, 1.0)
        assert not c.passed

    def test_float_serialization_17_digits(self):
        text = dumps({"a": 0.1, "b": 1.0, "c": 12345})
        assert '"a": 0.10000000000000001' in text
        assert '"c": 12345' in text

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"a": value})

    def test_fixed_field_order(self):
        rep = run_scenario({"scenario": "phase"})
        obj = json.loads(dumps(rep))
        assert list(obj) == ["scenario", "checks", "timing_ms", "config_echo"]
        assert list(obj["checks"][0]) == [
            "name", "passed", "max_error", "tolerance", "details",
        ]


class TestConfig:
    def test_requires_object(self):
        with pytest.raises(ConfigParseError):
            parse_config([1, 2, 3])

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config({})

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            parse_config({"scenario": "nope"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "phase", "extra": 1})
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "phase", "params": {"m": 3}})

    def test_defaults_filled(self):
        resolved = parse_config({"scenario": "spin"})
        assert resolved["params"]["j"] == 0.5
        assert resolved["seed"] == 2026

    def test_bad_seed(self):
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "phase", "seed": "abc"})

    def test_bad_param_types(self):
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "spin", "params": {"j": "abc"}})
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "spin", "params": {"direction": "up"}})
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "phase", "params": {"n": 2.5}})

    def test_semantically_bad_params(self):
        with pytest.raises(ConfigParseError):
            run_scenario({"scenario": "spin", "params": {"j": 0.3}})
        with pytest.raises(ConfigParseError):
            run_scenario({"scenario": "phase", "params": {"n": 1}})
        with pytest.raises(ConfigParseError):
            run_scenario({"scenario": "spin",
                          "params": {"direction": [0.0, 0.0, 0.0]}})

    @pytest.mark.parametrize("params", [
        {"n_directions": -5, "n_angle_pairs": 0},
        {"n_directions": 0},
        {"n_angle_pairs": 0},
        {"n_directions": 20, "n_angle_pairs": 10},
        {"group_source": "binary_tetrahedal"},
        {"group_source": ""},
        {"group_source": "Sampled"},
        {"group_source": "sampled"},
        {"j": 1.0, "group_source": "binary_tetrahedral"},
        {"j": 0.5, "group_source": "binary_tetrahedral"},
    ])
    def test_retired_spin_params_rejected(self, params):
        # the spin checks are proved on finite groups: no sample counts and
        # no choice of group are left to configure
        with pytest.raises(ConfigParseError, match="unknown params"):
            parse_config({"scenario": "spin", "params": params})

    def test_spin_params_are_exactly_these(self):
        resolved = parse_config({"scenario": "spin"})
        assert sorted(resolved["params"]) == ["direction", "j", "reduce"]

    @pytest.mark.parametrize("value", [1e400, -1e400, float("nan"), -1, -1e-300,
                                       True, "1e-3", None, [1e-3]])
    def test_invalid_tolerance_rejected(self, value):
        with pytest.raises(ConfigParseError, match="finite, non-negative numbers"):
            parse_config({"scenario": "phase", "tolerances": {"*": value}})


class TestScenarios:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_passes(self, name):
        rep = run_scenario({"scenario": name})
        assert rep.all_passed
        for c in rep.checks:
            assert c.passed == (c.max_error <= c.tolerance)

    def test_spin_half_has_enough_checks(self):
        rep = run_scenario({"scenario": "spin", "params": {"j": 0.5}})
        assert len(rep.checks) >= 6
        assert rep.all_passed

    @pytest.mark.parametrize("j", [1.0, 1.5])
    def test_spin_higher_j(self, j):
        rep = run_scenario({"scenario": "spin", "params": {"j": j}})
        assert rep.all_passed

    def test_spin_orbit_structure_in_details(self):
        rep = run_scenario({"scenario": "spin", "params": {"j": 1.0}})
        by_name = {c.name: c for c in rep.checks}
        assert "[[0, 2], [1]]" in by_name["sign_flip_orbit_partition"].details

    def test_spin_errors_relative_to_the_size_of_j(self):
        # the absolute errors grow with j: at j = 200 the half turn's
        # absolute distance is about 1.1e-10, within 10x of the tolerance
        rep = run_scenario({"scenario": "spin", "params": {"j": 200.0, "reduce": False}})
        by_name = {c.name: c for c in rep.checks}
        for name in ("generator_commutation_relations",
                     "covariance_half_turn_reverses_labels"):
            assert by_name[name].max_error <= by_name[name].tolerance / 100, name

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_phase_sizes(self, n):
        rep = run_scenario({"scenario": "phase", "params": {"n": n}})
        assert rep.all_passed

    def test_phase_builds_one_group(self, monkeypatch):
        # the shift and clock reps share one cyclic group
        built = []
        validate = groups.FiniteGroup.__post_init__

        def counted(self):
            validate(self)
            built.append(self.order)

        monkeypatch.setattr(groups.FiniteGroup, "__post_init__", counted)
        assert run_scenario({"scenario": "phase", "params": {"n": 6}}).all_passed
        assert built == [6]

    def test_wrong_spectrum_fails_its_check(self, monkeypatch, capsys):
        # generators scaled by 1.01 give the component the spectrum
        # 1.01*(j, ..., -j) and turn each rotation by 1.01 times its angle:
        # the ladder, covariance and rotation checks fail in the report, and
        # the CLI exits 1 instead of raising
        ladder_generators = spin.spin_generators
        monkeypatch.setattr(spin, "spin_generators",
                            lambda j: tuple(1.01 * J for J in ladder_generators(j)))
        rep = run_scenario({"scenario": "spin", "params": {"j": 1.0}})
        by_name = {c.name: c for c in rep.checks}
        ladder = by_name["component_spectrum_ladder_values"]
        assert not ladder.passed
        assert ladder.max_error == pytest.approx(0.01)
        assert not by_name["component_covariance_binary_tetrahedral"].passed
        assert not by_name["rotation_angle_additivity"].passed
        assert main(["spin", "--j", "1"]) == 1

    def test_tolerance_override_can_fail_a_check(self):
        rep = run_scenario({
            "scenario": "phase",
            "tolerances": {"clock_rep_of_cyclic_group": 1e-30},
        })
        assert not rep.all_passed

    def test_run_all_deterministic(self):
        a = dumps(run_all())
        b = dumps(run_all())
        assert strip_timing(a) == strip_timing(b)

    def test_no_verdict_draws_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a verdict drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert all(r.all_passed for r in run_all())
        for j in (1.0, 1.5, 50.0):
            assert run_scenario({"scenario": "spin", "params": {"j": j}}).all_passed
        r1 = run_scenario({"scenario": "spin", "seed": 1})
        r2 = run_scenario({"scenario": "spin", "seed": 2})
        assert r1.checks == r2.checks

    def test_seed_changes_echo_not_verdict(self):
        r1 = run_scenario({"scenario": "spin", "seed": 1})
        r2 = run_scenario({"scenario": "spin", "seed": 2})
        assert r1.all_passed and r2.all_passed
        assert r1.config_echo["seed"] == 1
        assert r2.config_echo["seed"] == 2


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(BUILTIN_SCENARIOS)

    def test_verify_single_scenario(self, capsys):
        assert main(["verify", "--scenario", "phase"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scenario"] == "phase"

    def test_verify_all(self, capsys):
        assert main(["verify"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [r["scenario"] for r in obj] == list(BUILTIN_SCENARIOS)

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["verify", "--scenario", "nope"]) == 2

    def test_empty_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_config_file_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "spin",
            "params": {"j": 1.0, "direction": [1.0, 0.0, 0.0]},
            "seed": 7,
        }))
        assert main(["verify", "--config", str(cfg)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["config_echo"]["params"]["j"] == 1.0
        assert obj["config_echo"]["seed"] == 7

    def test_scenario_config_mismatch_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "phase"}))
        assert main(["verify", "--config", str(cfg), "--scenario", "spin"]) == 2

    @pytest.mark.parametrize("value", ["1e400", "-inf", "nan", "-1"])
    def test_invalid_tolerance_exit_2(self, value, capsys):
        assert main(["verify", "--scenario", "phase", f"--tolerance={value}"]) == 2
        assert main(["verify", f"--tolerance={value}"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", [
        '{"scenario": "phase", "tolerances": {"*": 1e400}}',
        '{"scenario": "phase", "tolerances": {"shift_rep_of_cyclic_group": NaN}}',
        '{"scenario": "spin", "tolerances": {"*": -Infinity}}',
        '{"scenario": "phase", "tolerances": {"*": -1}}',
        '{"scenario": "phase", "tolerances": {"*": true}}',
        '{"scenario": "phase", "tolerances": {"*": "1e-3"}}',
        # overrides that no check reads: an unknown name, an exact check, a
        # check of another scenario, a deleted check, a check spin 0 skips
        '{"scenario": "phase", "tolerances": {"no_such_check": 1}}',
        '{"scenario": "pedagogy_z4", "tolerances": {"parity_variable_permissible": 1}}',
        '{"scenario": "phase", "tolerances": {"frame_operator_four_times_identity": 1}}',
        '{"scenario": "coherent_bt24", "tolerances": {"normalized_orbit_resolves_identity": 1e-9}}',
        '{"scenario": "spin", "params": {"j": 0}, "tolerances": {"*": 1, "covariance_half_turn_reverses_labels": 1}}',
    ])
    def test_invalid_config_tolerance_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance overrides ")

    def test_vacuous_spin_counts_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "spin",
            "params": {"n_directions": -5, "n_angle_pairs": 0},
        }))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown params" in captured.err

    @pytest.mark.parametrize("params", [
        {"radius": 1.0},
        {"group_source": "binary_tetrahedal"},
        {"j": 1.0, "group_source": "binary_tetrahedral"},
    ])
    def test_rejected_spin_params_exit_2(self, tmp_path, capsys, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "spin", "params": params}))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "unknown params" in captured.err

    @pytest.mark.parametrize("text", [
        '{"scenario": "phase", "params": {"n": NaN}}',
        '{"scenario": "spin", "params": {"j": Infinity}}',
        '{"scenario": "spin", "params": {"direction": [1e308, 1e308, 0]}}',
    ])
    def test_non_finite_config_params_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("j", [1e300, 1e7, spin.MAX_SPIN + 0.5])
    def test_huge_spin_config_exit_2(self, tmp_path, capsys, j):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "spin", "params": {"j": j}}))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "largest supported spin" in captured.err

    def test_huge_spin_cli_exit_2(self, capsys):
        assert main(["spin", "--j", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_spin_non_finite_direction_exit_2(self, capsys):
        assert main(["spin", "--j", "0.5", "--ax", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_failing_check_exit_1(self, capsys):
        assert main(["verify", "--scenario", "phase",
                     "--tolerance", "1e-30"]) == 1

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--scenario", "pedagogy_z4",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["scenario"] == "pedagogy_z4"
        assert capsys.readouterr().out == ""

    def test_spin_subcommand(self, capsys):
        assert main(["spin", "--j", "1/2", "--ax", "1", "--ay", "1",
                     "--az", "1", "--reduce"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scenario"] == "spin"
        names = [c["name"] for c in obj["checks"]]
        assert "reduction_to_sign_flip_orbit" in names

    def test_spin_rejects_bad_j(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spin", "--j", "abc"])
        assert err.value.code == 2

    def test_phase_subcommand(self, capsys):
        assert main(["phase", "--n", "6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["config_echo"]["params"]["n"] == 6

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "symquant.cli", "verify",
             "--scenario", "coherent_d4", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["scenario"] == "coherent_d4"


class TestReportDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["phase", "--n", "64"],
        ["spin", "--j", "50", "--reduce"],
    ])
    def test_reports_hold_no_numpy_scalar_reprs(self, tmp_path, argv):
        # the repr of a numpy scalar depends on the numpy version
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "np.float64(" not in text and "np.int64(" not in text

    def test_cli_reports_byte_identical_modulo_timing(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(["verify", "--out", str(p)])
            assert code == 0
        a, b = (strip_timing(p.read_text()) for p in paths)
        assert a == b


GOLDEN_REPORT = Path(__file__).with_name("verify_report.golden.json")


def _split_measured(reports):
    """Take out the max_error of every check whose tolerance is above 0,
    returning {(scenario, check): (max_error, tolerance)}."""
    measured = {}
    for r in reports:
        for c in r["checks"]:
            if c["tolerance"] > 0:
                measured[r["scenario"], c["name"]] = (c.pop("max_error"), c["tolerance"])
    return measured


class TestGoldenReport:
    def test_verify_matches_committed_report(self, tmp_path):
        # every field exactly, except a floating-point error measured
        # against a positive tolerance: BLAS rounding may move it, so it
        # must agree within 1e-3 times that tolerance
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        got = json.loads(strip_timing(out.read_text(encoding="utf-8")))
        want = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        got_measured, want_measured = _split_measured(got), _split_measured(want)
        assert got == want
        assert got_measured.keys() == want_measured.keys()
        for key, (expected, tolerance) in want_measured.items():
            assert abs(got_measured[key][0] - expected) <= 1e-3 * tolerance, key

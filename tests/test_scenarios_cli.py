"""Tests for the scenario driver, report serialization, and the CLI."""

import argparse
import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from symquant import groups, linalg, scenarios, spin
from symquant.cli import main
from symquant.phasespace import MAX_PHASE_N
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
    def test_passed_follows_a_replaced_tolerance(self):
        # the verdict is derived from the error and the tolerance, so a
        # check with a new tolerance cannot keep a stale verdict
        c = make_check("x", 2.0, 1.0)
        assert not c.passed
        assert dataclasses.replace(c, tolerance=2.0).passed
        assert not dataclasses.replace(c, tolerance=1.999).passed
        assert not dataclasses.replace(make_check("x", 0.5, 1.0), tolerance=0.25).passed
        assert "passed" not in {f.name for f in dataclasses.fields(Check)}

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

    @pytest.mark.parametrize("seed", [10**5000, 2**63, -2**63 - 1],
                             ids=["10**5000", "2**63", "-2**63-1"])
    def test_seed_outside_64_bits(self, seed):
        # a seed past Python's 4,300-digit limit would give a report that
        # dumps cannot write
        with pytest.raises(ConfigParseError, match=r"integer in \[-2\*\*63, 2\*\*63\)"):
            parse_config({"scenario": "pedagogy_z4", "seed": seed})

    @pytest.mark.parametrize("seed", [2**63 - 1, -2**63], ids=["2**63-1", "-2**63"])
    def test_seed_at_the_64_bit_ends(self, seed):
        report = run_scenario({"scenario": "pedagogy_z4", "seed": seed})
        assert json.loads(dumps(report))["config_echo"]["seed"] == seed

    def test_bad_param_types(self):
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "spin", "params": {"j": "abc"}})
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "spin", "params": {"direction": "up"}})
        with pytest.raises(ConfigParseError):
            parse_config({"scenario": "phase", "params": {"n": 2.5}})

    @pytest.mark.parametrize("config, message", [
        ({"scenario": "spin", "params": {"j": 0.3}}, "nonnegative half-integer"),
        ({"scenario": "spin", "params": {"j": -0.5}}, "largest supported spin"),
        ({"scenario": "phase", "params": {"n": 1}}, "largest supported size"),
        ({"scenario": "phase", "params": {"n": 0.0}}, "largest supported size"),
        ({"scenario": "spin", "params": {"direction": [1, 2]}}, "3-vector"),
        ({"scenario": "spin", "params": {"direction": [1, 2, 3, 4]}}, "3-vector"),
        ({"scenario": "spin", "params": {"direction": []}}, "3-vector"),
        ({"scenario": "spin", "params": {"direction": [0.0, 0.0, 0.0]}}, "3-vector"),
        ({"scenario": "spin", "params": {"direction": [1e-13, 0, 0]}}, "3-vector"),
        ({"scenario": "spin", "params": {"direction": [1e308, 1e308, 0]}}, "3-vector"),
    ])
    def test_semantically_bad_params(self, config, message):
        # the bounds are checked by parse_config, before any setup
        with pytest.raises(ConfigParseError, match=message):
            parse_config(config)

    def test_param_bound_checked_before_overrides(self):
        # a tolerance override is checked against the checks declared for
        # the params, so the params are bounded first: a negative spin is
        # named, not the half turn that spin 0 would leave out
        with pytest.raises(ConfigParseError, match="largest supported spin"):
            parse_config({"scenario": "spin", "params": {"j": -0.5},
                          "tolerances": {"covariance_half_turn_reverses_labels": 1e-6}})

    def test_bounds_resolve_params(self):
        resolved = parse_config({"scenario": "spin", "params": {
            "j": 1.5000000000004, "direction": [0, 3, 4]}})
        assert resolved["params"] == {"j": 1.5, "direction": [0.0, 3.0, 4.0], "reduce": True}
        assert parse_config({"scenario": "phase", "params": {"n": 8.0}})["params"]["n"] == 8

    def test_setups_only_build(self, monkeypatch):
        # parse_config resolves every param; a setup reads them and leaves
        # them as they were
        unchanged = []
        for name, scenario in list(scenarios._SCENARIOS.items()):
            def setup(params, build=scenario.setup):
                before = copy.deepcopy(params)
                shared = build(params)
                unchanged.append(params == before)
                return shared

            monkeypatch.setitem(scenarios._SCENARIOS, name, scenario._replace(setup=setup))
        run_all()
        run_scenario({"scenario": "spin", "params": {"j": 0.5000000000004}})
        assert unchanged == [True] * (len(BUILTIN_SCENARIOS) + 1)

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

    @pytest.mark.parametrize("config, message", [
        ({"params": []}, "params must be an object"),
        ({"params": 0}, "params must be an object"),
        ({"params": None}, "params must be an object"),
        ({"tolerances": False}, "tolerances must be an object"),
        ({"tolerances": []}, "tolerances must be an object"),
    ])
    def test_empty_values_of_the_wrong_type_rejected(self, config, message):
        # an empty list, 0, null or false is not an empty object
        with pytest.raises(ConfigParseError, match=message):
            run_scenario({"scenario": "phase", **config})

    @pytest.mark.parametrize("tolerances", [
        {"no_such_check": 1},
        {"position_momentum_noncommuting": 1},
        {"*": 1, "frame_scalar[dihedral:4]": 1},
    ])
    def test_bad_override_refused_before_setup(self, monkeypatch, tolerances):
        # an override name is checked against the declared checks, before
        # the setup builds anything
        def setup(params):
            raise AssertionError("the phase setup ran")

        monkeypatch.setitem(scenarios._SCENARIOS, "phase",
                            scenarios._SCENARIOS["phase"]._replace(setup=setup))
        with pytest.raises(ConfigParseError, match="no toleranced check of phase"):
            run_scenario({"scenario": "phase", "tolerances": tolerances})

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
        # an exact check reports a 0/1 verdict; a measured one needs a
        # positive, finite tolerance to be able to pass and to fail
        for c in rep.checks:
            if c.tolerance == 0:
                assert c.max_error in (0.0, 1.0), c.name
            else:
                assert 0 < c.tolerance < math.inf, c.name

    @pytest.mark.parametrize("name, unit_scalar", [("dihedral:4", 4), ("binary_tetrahedral", 12)])
    def test_coherent_frame_scalar_follows_the_fiducial(self, monkeypatch, name, unit_scalar):
        # c = |G| ||f||^2 / d: the unit fiducial gives the scalars the
        # scenario once hard-coded (4 and 12), and (1, i) doubles them
        assert scenarios._SYSTEMS[name][2] == (1.0, 0.0)
        for fiducial, scalar in [((1.0, 0.0), unit_scalar), ((1.0, 1j), 2 * unit_scalar)]:
            action, rep, _ = scenarios._SYSTEMS[name]
            monkeypatch.setitem(scenarios._SYSTEMS, name, (action, rep, fiducial))
            by_name = {c.name: c for c in run_scenario({"scenario": "coherent"}).checks}
            check = by_name[f"frame_scalar[{name}]"]
            assert check.passed and check.max_error <= 1e-14, fiducial
            assert check.details.startswith(f"scalar = {scalar} over "), fiducial

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

    def test_spin_builds_its_group_once_per_process(self, monkeypatch):
        # the binary tetrahedral group is cached by the first spin run;
        # a later run builds no group
        assert run_scenario({"scenario": "spin", "params": {"j": 0.5}}).all_passed
        built = []
        validate = groups.FiniteGroup.__post_init__

        def counted(self):
            validate(self)
            built.append(self.order)

        monkeypatch.setattr(groups.FiniteGroup, "__post_init__", counted)
        assert run_scenario({"scenario": "spin", "params": {"j": 0.5}}).all_passed
        assert built == []

    def test_spin_group_is_not_the_patched_builders(self, monkeypatch):
        # i and j generate the 8-element quaternion group; a builder
        # patched into groups never fills the spin scenario's cache. The
        # run fills an empty copy of the cache, and the process's own is
        # restored after the test
        fresh = functools.cache(scenarios._bt_group.__wrapped__)
        monkeypatch.setattr(scenarios, "_bt_group", fresh)
        monkeypatch.setattr(groups, "binary_tetrahedral_group", lambda: groups.generate_group(
            [(0, 2, 0, 0), (0, 0, 2, 0)], groups._quat_mul, (2, 0, 0, 0)))
        assert run_scenario({"scenario": "spin", "params": {"j": 0.5}}).all_passed
        assert fresh.cache_info().currsize == 1 and fresh().order == 24

    def test_wrong_spectrum_fails_its_check(self, monkeypatch, capsys):
        # a component matrix scaled by 1.01 has the spectrum
        # 1.01*(j, ..., -j) and turns each rotation by 1.01 times its angle:
        # the ladder, covariance and rotation checks fail in the report, and
        # the CLI exits 1 instead of raising
        ladder_component = spin.component_matrix
        monkeypatch.setattr(spin, "component_matrix",
                            lambda j, direction: 1.01 * ladder_component(j, direction))
        rep = run_scenario({"scenario": "spin", "params": {"j": 1.0}})
        by_name = {c.name: c for c in rep.checks}
        ladder = by_name["component_spectrum_ladder_values"]
        assert not ladder.passed
        assert ladder.max_error == pytest.approx(0.01)
        assert not by_name["component_covariance_binary_tetrahedral"].passed
        assert not by_name["double_turn_rotation_identity"].passed
        assert main(["spin", "--j", "1"]) == 1

    def test_tolerance_override_can_fail_a_check(self):
        # at n = 4 the toleranced phase checks measure 0; at n = 64 the
        # Fourier route errs by about 6e-14
        rep = run_scenario({
            "scenario": "phase", "params": {"n": 64},
            "tolerances": {"momentum_operator_is_fourier_conjugate": 1e-30},
        })
        assert not rep.all_passed

    def test_overrides_change_only_tolerances(self):
        # the checks with a tolerance of 0 are the exact ones: an override
        # never reaches them, and they score 0 or 1. The per-name key is
        # refused outside phase, so the other scenarios take "*" alone.
        mixed = {"*": 1e-3, "momentum_operator_is_fourier_conjugate": 0.5}
        runs = [
            (run_all(), {}),
            (run_all({"*": 1e-30}), {"*": 1e-30}),
            ([run_scenario({"scenario": name, "tolerances":
                            mixed if name == "phase" else {"*": 1e-3}})
              for name in BUILTIN_SCENARIOS], mixed),
        ]
        default = run_all()
        for reports, overrides in runs:
            assert [r.config_echo["scenario"] for r in reports] == list(BUILTIN_SCENARIOS)
            for r, d in zip(reports, default):
                assert len(r.checks) == len(d.checks)
                for c, c0 in zip(r.checks, d.checks):
                    assert (c.name, c.max_error, c.details) == (
                        c0.name, c0.max_error, c0.details)
                    if c0.tolerance == 0:
                        assert c.tolerance == 0 and c.passed == c0.passed
                        assert c.max_error in (0.0, 1.0)
                    else:
                        assert c.tolerance == overrides.get(
                            c.name, overrides.get("*", c0.tolerance))
        toleranced = [c for r in default for c in r.checks if c.tolerance > 0]
        assert len(toleranced) == 12
        assert min(c.tolerance for c in toleranced) >= 1e-12

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

    # coherent_d4 names no scenario: its system is the dihedral:4 row of coherent
    @pytest.mark.parametrize("name", ["nope", "coherent_d4"])
    def test_unknown_scenario_exit_2(self, capsys, name):
        assert main(["verify", "--scenario", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown scenario: {name!r}\n"

    # the two coherent scenarios are now the rows of one; their names are refused
    @pytest.mark.parametrize("name", ["coherent_d4", "coherent_bt24"])
    def test_config_names_a_retired_scenario_exit_2(self, tmp_path, monkeypatch, capsys, name):
        def setup(params):
            raise AssertionError("a setup ran")

        for key, scenario in scenarios._SCENARIOS.items():
            monkeypatch.setitem(scenarios._SCENARIOS, key, scenario._replace(setup=setup))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": name}))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown scenario: {name!r}\n"

    def test_empty_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["verify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text", [
        "not json",
        # nested too deep for the decoder: RecursionError
        "[" * 100_000 + "]" * 100_000,
        # beyond Python's 4,300-digit limit on integer conversion
        '{"scenario": "phase", "params": {"n": 1' + "0" * 4999 + "}}",
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, key", [
        ('{"scenario": "phase", "scenario": "spin"}', "'scenario'"),
        ('{"scenario": "phase", "params": {"n": 4, "n": 8}}', "'n'"),
    ])
    def test_repeated_config_key_exit_2(self, tmp_path, capsys, text, key):
        # json keeps the last value of a repeated name; the config refuses it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read config: an object repeats the key {key}\n"

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
        '{"scenario": "coherent", "tolerances": {"rep_irreducible[dihedral:4]": 1}}',
        '{"scenario": "phase", "tolerances": {"frame_scalar[dihedral:4]": 1}}',
        '{"scenario": "coherent", "tolerances": {"normalized_orbit_resolves_identity": 1e-9}}',
        '{"scenario": "phase", "tolerances": {"clock_rep_of_cyclic_group": 1e-10}}',
        '{"scenario": "phase", "tolerances": {"shift_full_cycle_is_identity": 1e-12}}',
        '{"scenario": "coherent", "tolerances": {"transport_preserves_resolution": 1e-9}}',
        '{"scenario": "spin", "params": {"j": 0}, "tolerances": {"*": 1, "covariance_half_turn_reverses_labels": 1}}',
    ])
    def test_invalid_config_tolerance_exit_2(self, tmp_path, monkeypatch, capsys, text):
        # refused before the scenario's setup runs
        def setup(params):
            raise AssertionError("a setup ran")

        for name, scenario in scenarios._SCENARIOS.items():
            monkeypatch.setitem(scenarios._SCENARIOS, name, scenario._replace(setup=setup))
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

    @pytest.mark.parametrize("n", [MAX_PHASE_N + 1, 20000])
    def test_oversized_phase_exit_2_before_any_group(self, monkeypatch, capsys, n):
        # cyclic:20000 would exceed the largest group order; the lattice
        # bound is checked first, so neither group is built
        built = []
        monkeypatch.setattr(scenarios, "cyclic_group", built.append)
        monkeypatch.setattr(groups.FiniteGroup, "__post_init__",
                            lambda self: built.append(self))
        assert main(["phase", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "largest supported size" in captured.err
        assert built == []

    def test_huge_spin_cli_exit_2(self, capsys):
        assert main(["spin", "--j", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        # 1e400 overflows a float, so argparse refuses it
        with pytest.raises(SystemExit) as err:
            main(["spin", "--j", "1e400"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --j: " in captured.err.splitlines()[-1]

    def test_spin_non_finite_direction_exit_2(self, capsys):
        assert main(["spin", "--j", "0.5", "--ax", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_failing_check_exit_1(self, capsys):
        # the dihedral:4 frame scalar of coherent errs by 3.5e-16
        assert main(["verify", "--scenario", "coherent",
                     "--tolerance", "1e-30"]) == 1

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--scenario", "pedagogy_z4",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["scenario"] == "pedagogy_z4"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["verify", "--scenario", "phase"],
                                      ["phase", "--n", "4"]])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write report: ")
        assert captured.err.count("\n") == 1

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"scenario": "phase", "params": {"n": "\xff"}}')
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tolerances", ['"ab"', '[["*", 1]]', '7', 'false', '[]'])
    def test_config_tolerances_not_an_object_with_flag_exit_2(
            self, tmp_path, capsys, tolerances):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"scenario": "phase", "tolerances": {tolerances}}}')
        assert main(["verify", "--config", str(cfg), "--tolerance", "1e-6"]) == 2
        assert capsys.readouterr().err == "error: tolerances must be an object\n"

    def test_parser_is_built_once(self, monkeypatch, capsys):
        # main reuses the parser built at import; building one per call
        # took 0.7 ms and left 182 objects in reference cycles
        def no_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        assert main(["list"]) == 0
        assert main(["phase", "--n", "4"]) == 0

    def test_spin_subcommand(self, capsys):
        assert main(["spin", "--j", "1/2", "--ax", "1", "--ay", "1",
                     "--az", "1", "--reduce"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scenario"] == "spin"
        names = [c["name"] for c in obj["checks"]]
        assert "reduction_to_sign_flip_orbit" in names

    def test_spin_j_near_a_half_integer_runs_and_reports_it(self, capsys):
        # accepted within 1e-12 of 1/2: the echo, the details and the
        # ladder comparison all read the rounded spin
        reports = []
        for j in ("0.5000000000004", "0.5"):
            assert main(["spin", "--j", j]) == 0
            reports.append(strip_timing(capsys.readouterr().out))
        assert reports[0] == reports[1]
        obj = json.loads(reports[0])
        assert obj["config_echo"]["params"]["j"] == 0.5
        by_name = {c["name"]: c for c in obj["checks"]}
        assert by_name["component_spectrum_ladder_values"]["max_error"] == 0
        assert by_name["full_turn_rotation_sign"]["details"].endswith("at spin 0.5")

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
             "--scenario", "coherent", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["scenario"] == "coherent"


# Documents for the config fuzz: well-formed ones, whose params have the
# right types but may lie out of bounds, ones with one malformed field, and
# arbitrary JSON. The strategy caps j at 5 and n at 64, so that an accepted
# document runs fast; values beyond MAX_SPIN and MAX_PHASE_N are drawn too,
# since their refusal is cheap. The bounds themselves are the program's.
FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _weighted(*choices):
    """Draw from each strategy in proportion to its weight."""
    table = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(0, len(table) - 1).flatmap(table.__getitem__)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=12)
_integral = st.integers() | st.integers().map(float)
# each param's values of its default's type, mostly in bounds
_TYPED = {
    "j": _weighted((4, st.integers(0, 10).map(lambda k: k / 2)),
                   (1, st.integers(0, 10).map(lambda k: k / 2 + 4e-13)),
                   (1, st.floats(-1, 5)),
                   (1, st.floats(min_value=spin.MAX_SPIN + 0.5))),
    "direction": _weighted((3, st.lists(st.integers(-2, 2), min_size=3, max_size=3)),
                           (1, st.lists(st.floats(-1e308, 1e308), min_size=3, max_size=3)),
                           (1, st.lists(st.floats(-1, 1), max_size=5))),
    "reduce": st.booleans(),
    "n": _weighted((4, st.integers(2, 64) | st.integers(2, 64).map(float)),
                   (1, st.integers(-2, 1) | st.floats(-2, 64)),
                   (1, st.integers(min_value=MAX_PHASE_N + 1)
                    | st.floats(min_value=MAX_PHASE_N + 1))),
    "c": _weighted((3, _integral), (1, st.floats())),
    "d": _weighted((3, _integral), (1, st.floats())),
}


def _scenario_documents(name):
    scenario = scenarios._SCENARIOS[name]
    typed = {key: _TYPED[key] for key in scenario.defaults}
    params = st.fixed_dictionaries(typed) | st.fixed_dictionaries({}, optional=typed)
    names = sorted({spec.name for spec in scenario.checks if spec.tolerance > 0} | {"*"})
    tolerances = st.dictionaries(st.sampled_from(names), st.floats(0, 1), max_size=3)
    # seeds near and past the ends of the 64-bit range as well as small ones
    seeds = st.integers() | st.integers(-2**64, 2**64) | st.integers(2**63 - 2, 2**63 + 1)
    fields = {"params": params, "tolerances": tolerances, "seed": seeds}
    well_formed = st.fixed_dictionaries({"scenario": st.just(name)}, optional=fields)
    # one field replaced by arbitrary JSON, or one key added
    one_malformed = st.builds(lambda doc, key, value: {**doc, key: value},
                              well_formed, st.sampled_from([*fields, "extra"]), _json)
    return _weighted((3, well_formed), (1, one_malformed))


_BY_SCENARIO = {name: _scenario_documents(name) for name in BUILTIN_SCENARIOS}
_documents = _weighted(
    (6, st.sampled_from(BUILTIN_SCENARIOS).flatmap(_BY_SCENARIO.__getitem__)),
    (1, st.fixed_dictionaries({"scenario": st.text(max_size=6) | _json})),
    (1, _json))


class TestConfigFuzz:
    @FUZZ_SETTINGS
    @given(_documents)
    def test_verify_reports_or_exits_2(self, document):
        # every document either runs to a parseable report (exit 0 or 1) or
        # exits 2 with one error line and no report; main never raises
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "cfg.json"), Path(tmp, "report.json")
            cfg.write_text(json.dumps(document), encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["verify", "--config", str(cfg), "--out", str(out)])
            assert stdout.getvalue() == ""
            if code == 2:
                err = stderr.getvalue()
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists()
            else:
                assert code in (0, 1)
                assert stderr.getvalue() == ""
                assert json.loads(out.read_text(encoding="utf-8"))["scenario"] == \
                    document["scenario"]

    @FUZZ_SETTINGS
    @given(_documents)
    def test_accepted_config_runs(self, document):
        # parse_config is the only refusal: whatever it accepts, the setup
        # builds, every declared check reports on, and dumps writes
        try:
            resolved = parse_config(document)
        except (ConfigParseError, UnknownScenarioError):
            return
        report = run_scenario(document)
        assert report.config_echo == resolved
        assert [c.name for c in report.checks] == [
            spec.name for spec in scenarios._declared(
                scenarios._SCENARIOS[resolved["scenario"]], resolved["params"])]
        assert json.loads(dumps(report))["config_echo"]["seed"] == resolved["seed"]


class TestEigendecompositionCounts:
    # a bundle eigendecomposes its matrix only when its spectrum is read:
    # the phase scenario reads only the matrix of P, the spin
    # scenario the spectra of the component along a and along a unit
    # vector perpendicular to it
    @pytest.mark.parametrize("argv, calls", [
        (["phase", "--n", "64"], 0),
        (["spin", "--j", "50", "--reduce"], 2),
    ])
    def test_cli_run(self, tmp_path, monkeypatch, argv, calls):
        original = linalg.eig_hermitian
        made = []

        def counted(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name == "symquant" or name.startswith("symquant.")) \
                    and getattr(mod, "eig_hermitian", None) is original:
                monkeypatch.setattr(mod, "eig_hermitian", counted)
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
        assert len(made) == calls


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

# the other refactor gate runs, each pinned to the strip_timing output of
# the code it was generated from; phase --n 1024 is left to the CI
# determinism step, since its Fourier error (6.1e-12) sits too close to
# the 1e-3 * tolerance slack for every numpy release
GATE_REPORTS = {
    "verify_tolerance_1e-6": ["verify", "--tolerance", "1e-6"],
    "spin_j50_reduce": ["spin", "--j", "50", "--reduce"],
    "spin_j0_reduce": ["spin", "--j", "0", "--reduce"],
    "phase_n64": ["phase", "--n", "64"],
}


def _split_measured(reports):
    """Take out the max_error of every check whose tolerance is above 0,
    returning {(scenario, check): (max_error, tolerance)}."""
    measured = {}
    for r in reports:
        for c in r["checks"]:
            if c["tolerance"] > 0:
                measured[r["scenario"], c["name"]] = (c.pop("max_error"), c["tolerance"])
    return measured


def _assert_matches_golden(argv, golden, tmp_path):
    # every field exactly, except a floating-point error measured against
    # a positive tolerance: BLAS rounding may move it, so it must agree
    # within 1e-3 times that tolerance
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    got = json.loads(strip_timing(out.read_text(encoding="utf-8")))
    want = json.loads(golden.read_text(encoding="utf-8"))
    if isinstance(want, dict):
        got, want = [got], [want]
    got_measured, want_measured = _split_measured(got), _split_measured(want)
    assert got == want
    assert got_measured.keys() == want_measured.keys()
    for key, (expected, tolerance) in want_measured.items():
        assert abs(got_measured[key][0] - expected) <= 1e-3 * tolerance, key


class TestGoldenReport:
    def test_verify_matches_committed_report(self, tmp_path):
        _assert_matches_golden(["verify"], GOLDEN_REPORT, tmp_path)

    @pytest.mark.parametrize("name", sorted(GATE_REPORTS))
    def test_gate_run_matches_committed_report(self, name, tmp_path):
        _assert_matches_golden(
            GATE_REPORTS[name],
            Path(__file__).with_name(f"{name}_report.golden.json"), tmp_path)

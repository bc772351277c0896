"""The report corpus, the gate for a refactor: tests/report_corpus.json.

For each configuration of LADDER the corpus holds the SHA-256 of its
strip_timing report with the max_error of every toleranced check set to
null, and those errors with their tolerances. For each bad command line of
BAD_INPUTS it holds the exit code, the stdout and the first line of the
stderr. test_reports_and_bad_inputs_match_the_corpus rebuilds the corpus in
process: every digest, exit code, stdout and stderr line must be equal, and
every error within 1e-3 times its tolerance, the rule of the golden reports,
since BLAS rounding may move an error.

    PYTHONPATH=src python tests/test_report_corpus.py

writes the file from the same build_corpus. The file is data that the gate
reads, so writing it anew is a report change, to be named entry by entry.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from symquant.cli import main
from symquant.reporting import dumps, strip_timing
from symquant.scenarios import BUILTIN_SCENARIOS, run_scenario

CORPUS = Path(__file__).with_name("report_corpus.json")

SPIN_DIRECTIONS = ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0], [0.3, -0.5, 0.81])

# every built-in scenario at its defaults and under a blanket tolerance;
# spin j = 0..20 in steps of 1/2 along four directions, with and without
# reduce; phase n = 2..64 with two pairs of shifts
LADDER = (
    [{"scenario": name} for name in BUILTIN_SCENARIOS]
    + [{"scenario": name, "tolerances": {"*": 1e-6}} for name in BUILTIN_SCENARIOS]
    + [{"scenario": "spin", "params": {"j": twice_j / 2, "direction": direction,
                                       "reduce": reduce}}
       for twice_j in range(41) for direction in SPIN_DIRECTIONS
       for reduce in (False, True)]
    + [{"scenario": "phase", "params": {"n": n, "c": c, "d": d}}
       for n in range(2, 65) for c, d in ((1, 1), (3, -2))]
)

# name -> (argv, the text of the file that CONFIG in argv names, or None):
# the CI step "Invalid input exits 2", then a bound, a spin, a tolerance
# and two configurations that are refused
BAD_INPUTS = {
    "config nested too deep": (["verify", "--config", "CONFIG"],
                               "[" * 100000 + "]" * 100000),
    "integer past the digit limit": (
        ["verify", "--config", "CONFIG"],
        '{"scenario": "phase", "params": {"n": 1' + "0" * 4999 + "}}"),
    "repeated key": (["verify", "--config", "CONFIG"],
                     '{"scenario": "phase", "scenario": "spin"}'),
    "spin past the float range": (["spin", "--j", "1e400"], None),
    "retired scenario": (["verify", "--scenario", "coherent_d4"], None),
    "phase below its bound": (["phase", "--n", "1"], None),
    "spin not a half-integer": (["spin", "--j", "1/3"], None),
    "NaN tolerance": (["verify", "--tolerance", "nan"], None),
    "unknown param": (["verify", "--config", "CONFIG"],
                      '{"scenario": "phase", "params": {"m": 4}}'),
    "unknown key": (["verify", "--config", "CONFIG"],
                    '{"scenario": "phase", "shift": [1, 1]}'),
}


def _report_entry(config: dict) -> dict:
    report = json.loads(strip_timing(dumps(run_scenario(config))))
    errors = {}
    for check in report["checks"]:
        if check["tolerance"] > 0:
            errors[check["name"]] = [check["max_error"], check["tolerance"]]
            check["max_error"] = None
    digest = hashlib.sha256(dumps(report).encode("utf-8")).hexdigest()
    return {"config": config, "sha256": digest, "errors": errors}


def _bad_input_entry(argv: list, config_text, folder: str) -> dict:
    if config_text is not None:
        path = os.path.join(folder, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        argv = [path if a == "CONFIG" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal's width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:       # argparse refuses a flag's value
            status = exc.code
    return {"exit": status, "stdout": out.getvalue(),
            "stderr": err.getvalue().partition("\n")[0]}


def build_corpus() -> dict:
    with tempfile.TemporaryDirectory() as folder:
        bad = {name: _bad_input_entry(argv, text, folder)
               for name, (argv, text) in BAD_INPUTS.items()}
    return {"reports": [_report_entry(config) for config in LADDER], "bad_inputs": bad}


def corpus_text(corpus: dict) -> str:
    """The corpus as JSON, one report entry or bad input a line."""
    reports = ",\n".join(f"    {json.dumps(e)}" for e in corpus["reports"])
    bad = ",\n".join(f"    {json.dumps(name)}: {json.dumps(e)}"
                     for name, e in corpus["bad_inputs"].items())
    return f'{{\n  "reports": [\n{reports}\n  ],\n  "bad_inputs": {{\n{bad}\n  }}\n}}\n'


def test_reports_and_bad_inputs_match_the_corpus():
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = build_corpus()
    # every bad input exits 2 and prints nothing on stdout
    assert {(e["exit"], e["stdout"]) for e in want["bad_inputs"].values()} == {(2, "")}
    assert got["bad_inputs"] == want["bad_inputs"]
    assert [e["config"] for e in got["reports"]] == [e["config"] for e in want["reports"]]
    for g, w in zip(got["reports"], want["reports"]):
        assert g["sha256"] == w["sha256"], g["config"]
        assert g["errors"].keys() == w["errors"].keys(), g["config"]
        for name, (error, tolerance) in w["errors"].items():
            assert g["errors"][name][1] == tolerance
            assert abs(g["errors"][name][0] - error) <= 1e-3 * tolerance, (g["config"], name)


if __name__ == "__main__":
    CORPUS.write_text(corpus_text(build_corpus()), encoding="utf-8")

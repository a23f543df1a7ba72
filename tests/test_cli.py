import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import runner, statevec
from qmeasure.cli import main
from qmeasure.gates import Imprint, InverseImprint, RotateBasis, Swap, invert_script
from qmeasure.runner import RunError, fmt, run
from qmeasure.scenario import BranchesStep, ScenarioError, parse_scenario
from qmeasure.statevec import DenseLimitError

from conftest import HOSTILE_INPUTS

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

MINIMAL = '{"subsystems": [{"label": "s", "amplitudes": [[1, 0], [0, 0]]}]}'

FIG1 = """
{
  "subsystems": [
    {"label": "s", "amplitudes": [[0.8, 0], [0.6, 0]]},
    {"label": "o", "amplitudes": [[0.6, 0], [-0.8, 0]]},
    {"label": "e", "amplitudes": [[1, 0], [0, 0]]}
  ],
  "script": [
    {"op": "imprint", "source": "s", "target": "e"},
    {"op": "swap", "a": "o", "b": "e"}
  ]
}
"""


def _doc(script=(), subsystems=None, **extra) -> str:
    """A document over s, o and the GHZ pair e1, e2 with the given script."""
    subsystems = subsystems if subsystems is not None else [
        {"label": "s", "amplitudes": [[1, 0], [1, 0]]},
        {"label": "o", "amplitudes": [[1, 0], [0, 0]]},
        {"ghz": {"labels": ["e1", "e2"], "coefficients": [[1, 0], [1, 0]]}},
    ]
    return json.dumps({"subsystems": subsystems, "script": list(script), **extra})


def _single(amplitudes) -> str:
    return _doc(subsystems=[{"label": "s", "amplitudes": amplitudes}])


#: One document per ``raise ScenarioError`` in ``scenario.py``: (document,
#: code, message), the message as the error prints it.
PARSE_ERRORS = {
    "json syntax": ('{"subsystems": [,]}', "syntax", "Expecting value (line 1, column 17)"),
    "nested too deeply": (
        HOSTILE_INPUTS["100000 nested lists"], "syntax", "document nested too deeply"
    ),
    "integer past the digit limit": (
        MINIMAL.replace("[1, 0]", "[1" + "0" * 5000 + ", 0]"), "syntax",
        "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits;"
        " use sys.set_int_max_str_digits() to increase the limit",
    ),
    "document not an object": ("[]", "bad-structure", "scenario must be a JSON object"),
    "missing subsystems": ("{}", "bad-structure", "scenario: missing keys ['subsystems']"),
    "stray top-level key": (_doc(extra=1), "bad-structure", "scenario: unexpected keys ['extra']"),
    "empty subsystems": (_doc(subsystems=[]), "bad-structure", "'subsystems' must be a non-empty list"),
    "subsystem not an object": (_doc(subsystems=[1]), "bad-structure", "subsystems[0]: expected an object"),
    "ghz not an object": (
        _doc(subsystems=[{"ghz": []}]), "bad-structure", "subsystems[0].ghz: expected an object"
    ),
    "ghz without labels": (
        _doc(subsystems=[{"ghz": {"labels": [], "coefficients": [[1, 0], [1, 0]]}}]),
        "bad-structure", "subsystems[0].ghz: 'labels' must be a non-empty list",
    ),
    "label with a space": (
        _doc(subsystems=[{"label": "a b", "amplitudes": [[1, 0], [0, 0]]}]),
        "bad-structure", "subsystems[0]: invalid subsystem label 'a b'",
    ),
    "label declared twice": (
        _doc(subsystems=[{"label": "s", "amplitudes": [[1, 0], [0, 0]]}] * 2),
        "duplicate-label", "subsystems[1]: label 's' declared twice",
    ),
    "one amplitude pair": (
        _single([[1, 0]]), "bad-amplitude",
        "subsystems[0].amplitudes: expected two [re, im] pairs, got [[1, 0]]",
    ),
    "non-numeric amplitude": (
        _single([["x", 0], [0, 0]]), "bad-amplitude",
        "subsystems[0].amplitudes: non-finite or non-numeric entry 'x'",
    ),
    "all-zero amplitudes": (
        _single([[0, 0], [0, 0]]), "bad-amplitude",
        "subsystems[0].amplitudes: amplitude pair must not be all zero",
    ),
    "64 subsystems": (
        _doc(subsystems=[{"label": f"q{i}", "amplitudes": [[1, 0], [0, 0]]} for i in range(64)]),
        "bad-structure", "64 subsystems declared, at most 63 are supported",
    ),
    "script not a list": (
        json.dumps({"subsystems": json.loads(MINIMAL)["subsystems"], "script": {}}),
        "bad-structure", "'script' must be a list",
    ),
    "step without op": (_doc([{}]), "bad-structure", "script[0]: expected an object with an 'op' key"),
    "unknown op": (_doc([{"op": "warp"}]), "bad-structure", "script[0]: unknown op 'warp'"),
    "op given as a list": (
        _doc([{"op": ["imprint"]}]), "bad-structure", "script[0]: unknown op ['imprint']"
    ),
    "undeclared operand": (
        _doc([{"op": "imprint", "source": "s", "target": "nope"}]),
        "unknown-label", "script[0]: label 'nope' is not declared",
    ),
    "imprint onto itself": (
        _doc([{"op": "imprint", "source": "s", "target": "s"}]),
        "bad-structure", "script[0]: operands must be distinct",
    ),
    "inverse imprint onto itself": (
        _doc([{"op": "inverse_imprint", "source": "o", "target": "o"}]),
        "bad-structure", "script[0]: operands must be distinct",
    ),
    "swap with itself": (
        _doc([{"op": "swap", "a": "e1", "b": "e1"}]), "bad-structure", "script[0]: operands must be distinct"
    ),
    "rotation without target": (
        _doc([{"op": "rotate_basis"}]), "bad-structure", "script[0]: missing keys ['target']"
    ),
    "uncorrected operands repeated": (
        _doc([{"op": "uncorrected_measure", "signal": "s", "observer": "o", "environment": "s"}]),
        "bad-structure", "script[0]: operands must be distinct",
    ),
    "corrected environment of one label": (
        _doc([{"op": "corrected_measure", "signal": "s", "observer": "o", "environment": ["e1"]}]),
        "bad-structure", "script[0]: 'environment' must list at least two labels",
    ),
    "corrected basis Y": (
        _doc([{"op": "corrected_measure", "signal": "s", "observer": "o",
               "environment": ["e1", "e2"], "basis": "Y"}]),
        "bad-structure", "script[0]: basis must be 'Z' or 'X'",
    ),
    "corrected operands repeated": (
        _doc([{"op": "corrected_measure", "signal": "s", "observer": "s", "environment": ["e1", "e2"]}]),
        "bad-structure", "script[0]: measurement operands must be distinct, got ('s', 's', 'e1', 'e2')",
    ),
    "ideal signal is its observer": (
        _doc([{"op": "ideal_measure", "signal": "o", "observer": "o"}]),
        "bad-structure", "script[0]: operands must be distinct",
    ),
    "ideal basis Y": (
        _doc([{"op": "ideal_measure", "signal": "s", "observer": "o", "basis": "Y"}]),
        "bad-structure", "script[0]: basis must be 'Z' or 'X'",
    ),
    "listing basis Y": (
        _doc([{"op": "branches", "basis": "Y"}]), "bad-structure", "script[0]: basis must be 'Z' or 'X', got 'Y'"
    ),
    "listing selector Y": (
        _doc([{"op": "branches", "basis": {"s": "Y"}}]),
        "bad-structure", "script[0]: selector for 's' must be 'Z' or 'X', got 'Y'",
    ),
    "listing basis a number": (
        _doc([{"op": "branches", "basis": 1}]), "bad-structure", "script[0]: basis must be a string or an object"
    ),
    "ledger tag a number": (
        _doc([{"op": "ledger", "tag": 1}]), "bad-structure", "script[0]: 'tag' must be a string"
    ),
    "empty pairs": (
        _doc([{"op": "agreement", "pairs": []}]), "bad-structure", "script[0]: 'pairs' must be a non-empty list"
    ),
    "pair of three": (
        _doc([{"op": "agreement", "pairs": [["s", "o", "e1"]]}]),
        "bad-structure", "script[0].pairs[0]: expected [a, b]",
    ),
    "empty records": (
        _doc([{"op": "recover", "records": []}]), "bad-structure", "script[0]: 'records' must be a non-empty list"
    ),
    "options not an object": (_doc(options=[]), "bad-structure", "'options' must be an object"),
    "stray option": (_doc(options={"seed": 1}), "bad-structure", "options: unexpected keys ['seed']"),
    "tolerance out of range": (
        _doc(options={"tolerance": 1}), "bad-structure", "options.tolerance must be in (0, 1), got 1"
    ),
    "relabel not a boolean": (
        _doc(options={"relabel": "yes"}), "bad-structure", "options.relabel must be a boolean, got 'yes'"
    ),
}


class TestParseScenario:
    def test_minimal_document(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.register.labels == ("s",)
        assert scenario.script == ()

    def test_measurement_setup_document(self):
        scenario = parse_scenario(FIG1)
        assert scenario.register.labels == ("s", "o", "e")
        assert len(scenario.script) == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario('{"subsystems": [,]}')
        assert err.value.code == "syntax"
        assert err.value.line == 1 and err.value.col is not None

    def test_syntax_code_beyond_the_json_limits(self):
        # nesting past the recursion limit; an integer past Python's 4300 digits
        long_integer = MINIMAL.replace("[1, 0]", "[1" + "0" * 5000 + ", 0]")
        for text in (HOSTILE_INPUTS["100000 nested lists"], long_integer):
            with pytest.raises(ScenarioError) as err:
                parse_scenario(text)
            assert err.value.code == "syntax"

    def test_unknown_label_code(self):
        doc = json.loads(FIG1)
        doc["script"][0]["target"] = "nope"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.code == "unknown-label"

    def test_duplicate_label_code(self):
        doc = {"subsystems": [{"label": "s", "amplitudes": [[1, 0], [0, 0]]}] * 2}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.code == "duplicate-label"

    def test_bad_amplitude_code(self):
        for amps in (
            [[0, 0], [0, 0]],
            [[1, 0]],
            [["x", 0], [0, 0]],
            [[1, 0], [0, None]],
            [[10**400, 0], [0, 0]],
        ):
            doc = {"subsystems": [{"label": "s", "amplitudes": amps}]}
            with pytest.raises(ScenarioError) as err:
                parse_scenario(json.dumps(doc))
            assert err.value.code == "bad-amplitude", amps

    def test_bad_structure_codes(self):
        bad_docs = [
            "[]",
            '{"subsystems": []}',
            '{"subsystems": [{"label": "s", "amplitudes": [[1,0],[0,0]], "extra": 1}]}',
            MINIMAL[:-1] + ', "script": [{"op": "warp"}]}',
            MINIMAL[:-1] + ', "options": {"tolerance": -1}}',
        ]
        for doc in bad_docs:
            with pytest.raises(ScenarioError) as err:
                parse_scenario(doc)
            assert err.value.code == "bad-structure", doc

    def test_ghz_group_and_options(self):
        doc = {
            "subsystems": [
                {"label": "s", "amplitudes": [[1, 0], [1, 0]]},
                {"ghz": {"labels": ["e1", "e2"], "coefficients": [[1, 0], [1, 0]]}},
            ],
            "options": {"tolerance": 1e-8, "relabel": False},
        }
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.register.labels == ("s", "e1", "e2")
        assert scenario.options.tolerance == 1e-8
        assert scenario.options.relabel is False

    def test_ghz_duplicate_across_groups(self):
        doc = {
            "subsystems": [
                {"ghz": {"labels": ["e1", "e2"], "coefficients": [[1, 0], [1, 0]]}},
                {"label": "e2", "amplitudes": [[1, 0], [0, 0]]},
            ]
        }
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.code == "duplicate-label"


    @pytest.mark.parametrize("name", PARSE_ERRORS)
    def test_each_parse_error_keeps_its_code_and_message(self, name):
        text, code, message = PARSE_ERRORS[name]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.code, str(err.value)) == (code, f"[{code}] {message}")

    def test_a_listing_step_with_no_basis_lists_in_z(self):
        scenario = parse_scenario(_doc([{"op": "branches"}]))
        assert scenario.script == (BranchesStep({}),)
        outcomes = [row[0] for row in run(scenario).sections[1].rows[1:]]
        assert outcomes == ["↑↑↑↑", "↑↑↓↓", "↓↑↑↑", "↓↑↓↓"]


class TestRunner:
    def test_empty_script_reports_initial_state_only(self):
        report = run(parse_scenario(MINIMAL))
        assert [s.title for s in report.sections] == ["initial state"]

    def test_final_norm_reported(self):
        report = run(parse_scenario(FIG1))
        assert report.sections[-1].title == "final state"
        assert report.sections[-1].rows == (("norm", "1"),)

    def test_branch_tables_are_normalized(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            report = run(parse_scenario(path.read_text()))
            for section in report.sections:
                if "branches" not in section.title:
                    continue
                probs = [float(row[3]) for row in section.rows[1:]]
                assert abs(sum(probs) - 1.0) <= 1e-9, path.name

    def test_runtime_error_carries_step_number(self):
        doc = {
            "subsystems": [
                {"label": "s", "amplitudes": [[1, 0], [1, 0]]},
                {"label": "o", "amplitudes": [[1, 0], [0, 0]]},
                {"label": "e1", "amplitudes": [[1, 0], [0, 0]]},
                {"label": "e2", "amplitudes": [[0, 0], [1, 0]]},
            ],
            "script": [
                {"op": "rotate_basis", "target": "s"},
                {
                    "op": "corrected_measure",
                    "signal": "s",
                    "observer": "o",
                    "environment": ["e1", "e2"],
                },
            ],
        }
        with pytest.raises(RunError, match="step 2"):
            run(parse_scenario(json.dumps(doc)))

    def test_dropped_run_error_keeps_no_state_alive(self):
        # A Z-frame GHZ environment handed to an X-basis corrected
        # measurement is rejected at step 1.  The RunError holds the failing
        # frames through its traceback, but no reference cycle: once the
        # caller drops it, the 2^14-amplitude states are freed without gc.
        env = [f"e{i}" for i in range(1, 13)]
        doc = {
            "subsystems": [
                {"label": "s", "amplitudes": [[0.6, 0], [0.8, 0]]},
                {"label": "o", "amplitudes": [[0.8, 0], [0, 0.6]]},
                {"ghz": {"labels": env, "coefficients": [[1, 0], [1, 0]]}},
            ],
            "script": [
                {"op": "corrected_measure", "signal": "s", "observer": "o",
                 "environment": env, "basis": "X"},
            ],
        }
        scenario = parse_scenario(json.dumps(doc))
        state_bytes = 2**14 * 16
        gc.disable()
        try:
            for _ in range(2):  # the first run warms import-time caches
                tracemalloc.start()
                try:
                    try:
                        run(scenario)
                    except RunError:
                        pass
                    live = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert live < state_bytes / 4, f"{live} bytes live after the error was dropped"

    def test_determinism(self):
        text = SCENARIOS.joinpath("corrected_n3.json").read_text()
        one = run(parse_scenario(text))
        two = run(parse_scenario(text))
        assert one.render_text() == two.render_text()
        assert one.render_json() == two.render_json()

    @pytest.mark.parametrize(
        "name", ["basic_measurement", "corrected_n3", "different_basis", "record_recovery"]
    )
    def test_golden_reports(self, name):
        scenario = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        assert run(scenario).render_text() == (GOLDEN / f"{name}.txt").read_text()

    @pytest.mark.parametrize(
        "name", ["basic_measurement", "corrected_n3", "different_basis", "record_recovery"]
    )
    def test_oracle_engine_matches_gates_engine(self, name):
        scenario = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        assert run(scenario, engine="oracle").render_text() == run(scenario).render_text()

    def test_json_golden(self):
        scenario = parse_scenario((SCENARIOS / "corrected_n3.json").read_text())
        assert run(scenario).render_json() == (GOLDEN / "corrected_n3.json.golden").read_text()

    def test_ledger_totals_in_report(self):
        report = run(parse_scenario((SCENARIOS / "corrected_n3.json").read_text()))
        ledgers = [s for s in report.sections if "ledger" in s.title]
        assert [s.rows[-1] for s in ledgers] == [("total", "2"), ("total", "2")]

    @pytest.mark.parametrize("tolerance, total", [(1e-9, "0"), (1e-11, "2")])
    def test_ledger_rows_use_the_scenario_tolerance(self, tolerance, total):
        # a 1e-10 GHZ coefficient is live only under the finer tolerance
        doc = {
            "subsystems": [
                {"ghz": {"labels": ["e1", "e2", "e3"], "coefficients": [[1, 0], [1e-10, 0]]}}
            ],
            "script": [{"op": "ledger", "tag": "t"}],
            "options": {"tolerance": tolerance},
        }
        rows = run(parse_scenario(json.dumps(doc))).sections[1].rows
        assert rows[-1] == ("total", total)
        assert sum(int(measure) for _, measure in rows[1:-1]) == int(total)

    def test_rotated_basis_corrected_step_on_both_engines(self):
        # environment prepared as an X-basis correlated resource
        doc = {
            "subsystems": [
                {"label": "s", "amplitudes": [[0.8, 0], [0.6, 0]]},
                {"label": "o", "amplitudes": [[0.6, 0], [-0.8, 0]]},
                {"ghz": {"labels": ["e1", "e2", "e3"], "coefficients": [[1, 0], [1, 0]]}},
            ],
            "script": [
                {"op": "rotate_basis", "target": "e1"},
                {"op": "rotate_basis", "target": "e2"},
                {"op": "rotate_basis", "target": "e3"},
                {
                    "op": "corrected_measure",
                    "signal": "s",
                    "observer": "o",
                    "environment": ["e1", "e2", "e3"],
                    "basis": "X",
                },
                {"op": "branches", "basis": "X"},
                {"op": "agreement", "basis": "X", "pairs": [["s", "o"]]},
            ],
        }
        scenario = parse_scenario(json.dumps(doc))
        fast = run(scenario)
        slow = run(scenario, engine="oracle")
        assert fast.render_text() == slow.render_text()
        aggregate = [s for s in fast.sections if "agreement" in s.title][0].rows[-1]
        assert aggregate[2] == "1"


def _ghz_scenario(n: int, script: list) -> str:
    return json.dumps({
        "subsystems": [
            {"label": "s", "amplitudes": [[0.8, 0], [0.6, 0]]},
            {"ghz": {"labels": [f"e{i}" for i in range(1, n)], "coefficients": [[1, 0], [1, 0]]}},
        ],
        "script": script,
    })


class TestSizeLimits:
    """Oversized inputs end in coded errors, without allocating."""

    def test_register_beyond_63_subsystems_is_a_structure_error(self):
        assert len(parse_scenario(_ghz_scenario(63, [])).register) == 63
        with pytest.raises(ScenarioError, match="64 subsystems") as err:
            parse_scenario(_ghz_scenario(64, []))
        assert err.value.code == "bad-structure"

    def test_dense_step_on_a_large_register_is_a_run_error(self):
        # the rotation only flags e1; the X view of the 40-qubit GHZ is dense
        scenario = parse_scenario(_ghz_scenario(40, [
            {"op": "imprint", "source": "s", "target": "e1"},
            {"op": "rotate_basis", "target": "e1"},
            {"op": "branches", "basis": "X"},
        ]))
        with pytest.raises(RunError, match="step 3 .*over 40 qubits") as err:
            run(scenario)
        assert err.value.step_number == 3
        assert isinstance(err.value.cause, DenseLimitError)

    def test_initial_state_beyond_the_limit_is_a_run_error(self, monkeypatch):
        # At the real limit this path first builds a 2^24 dense vector.
        monkeypatch.setattr(statevec, "DENSE_MAX_QUBITS", 3)
        doc = {"subsystems": [
            {"label": f"q{i}", "amplitudes": [[1, 0], [1, 0]]} for i in range(4)
        ]}
        with pytest.raises(RunError, match=r"^initial state \(SingleDecl\): .*over 4 qubits") as err:
            run(parse_scenario(json.dumps(doc)))
        assert err.value.step_number == 0
        assert isinstance(err.value.cause, DenseLimitError)

    def test_cli_exit_codes(self, tmp_path, capsys):
        too_many = tmp_path / "too_many.json"
        too_many.write_text(_ghz_scenario(64, []))
        assert main(["run", str(too_many)]) == 1
        assert "[bad-structure] 64 subsystems" in capsys.readouterr().err
        too_dense = tmp_path / "too_dense.json"
        too_dense.write_text(_ghz_scenario(40, [{"op": "branches", "basis": "X"}]))
        assert main(["run", str(too_dense)]) == 2
        assert capsys.readouterr().err.startswith("error: step 1 (BranchesStep): a dense")

    def test_sparse_product_past_the_dense_limit_is_refused_before_it_is_built(self, tmp_path):
        # A 33-qubit GHZ ahead of 30 |→⟩ qubits: each |→⟩ doubles the
        # product's support index, which would end at 2^31 positions
        # (48 GiB).  Past 2^20 positions over more than 24 qubits it is
        # refused; the child runs under a 1 GiB address-space cap, so that a
        # product built anyway fails fast.
        doc = {"subsystems": [
            {"ghz": {"labels": [f"e{i}" for i in range(33)], "coefficients": [[1, 0], [1, 0]]}},
            *({"label": f"p{i}", "amplitudes": RIGHT} for i in range(30)),
        ]}
        path = tmp_path / "product.json"
        path.write_text(json.dumps(doc))
        cap = (2**30, 2**30)
        proc = subprocess.run(
            [sys.executable, "-m", "qmeasure.cli", "run", str(path)],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "error: initial state (SingleDecl): a dense amplitude vector over 53 qubits "
            "exceeds the limit of 24 qubits\n"
        )

    # Three |→⟩ qubits list 8 Z branches; the listing limit is lowered
    # around that, since the real one takes 2^20 rows to reach.
    LISTINGS = [
        {"op": "branches", "basis": "Z"},
        {"op": "agreement", "basis": "Z", "pairs": [["a", "b"]]},
        {"op": "recover", "basis": "Z", "records": ["a", "c"]},
    ]

    @staticmethod
    def _eight_branches(step) -> str:
        return json.dumps({
            "subsystems": [{"label": lbl, "amplitudes": RIGHT} for lbl in "abc"],
            "script": [step],
        })

    @pytest.mark.parametrize("step", LISTINGS, ids=lambda step: step["op"])
    def test_a_listing_past_the_limit_is_refused_before_formatting(self, monkeypatch, step):
        monkeypatch.setattr(runner, "LISTING_MAX_ROWS", 7)

        def unformatted(branch_set):
            raise AssertionError("a refused listing was formatted")

        monkeypatch.setattr(statevec.BranchSet, "outcomes", unformatted)
        with pytest.raises(RunError, match="8 branches exceed the listing limit of 7 rows") as err:
            run(parse_scenario(self._eight_branches(step)))
        assert err.value.step_number == 1

    @pytest.mark.parametrize("step", LISTINGS, ids=lambda step: step["op"])
    def test_a_listing_at_the_limit_renders(self, monkeypatch, step):
        monkeypatch.setattr(runner, "LISTING_MAX_ROWS", 8)
        for engine in ("gates", "oracle"):
            listing = run(parse_scenario(self._eight_branches(step)), engine=engine).sections[1]
            assert len(listing.rows) == 1 + 8 + (step["op"] == "agreement")

    def test_the_listing_limit_bounds_the_whole_report(self, monkeypatch):
        # Of two 8-row listings under a 12-row limit, the first renders and
        # the second is refused with the report's total.
        monkeypatch.setattr(runner, "LISTING_MAX_ROWS", 12)
        doc = json.loads(self._eight_branches(self.LISTINGS[0]))
        doc["script"] = self.LISTINGS[:2]
        with pytest.raises(RunError, match="16 branches exceed the listing limit of 12 rows") as err:
            run(parse_scenario(json.dumps(doc)))
        assert err.value.step_number == 2
        doc["script"] = self.LISTINGS[:1]
        assert len(run(parse_scenario(json.dumps(doc))).sections[1].rows) == 1 + 8

    def test_the_listing_limit_is_a_coded_cli_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "LISTING_MAX_ROWS", 7)
        path = tmp_path / "long_listing.json"
        path.write_text(self._eight_branches(self.LISTINGS[0]))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: step 1 (BranchesStep): 8 branches exceed the listing limit of 7 rows\n"
        )

    def test_the_listing_limit_admits_20_qubits_and_refuses_24(self):
        # Every listing of a 20-qubit state renders; a full dense 24-qubit
        # one, which the dense limit admits, is refused.
        assert 2**20 <= runner.LISTING_MAX_ROWS < 2**statevec.DENSE_MAX_QUBITS


PSI, PHI, CHI = [[0.6, 0.1], [-0.3, 0.7]], [[0.2, -0.5], [0.9, 0]], [[0, 0.8], [-0.4, 0.3]]
RIGHT = [[1, 0], [1, 0]]
IDEAL_X = [
    {"op": "ideal_measure", "signal": "s", "observer": "o", "basis": "X"},
    {"op": "branches", "basis": {"s": "X", "o": "X"}},
    {"op": "agreement", "basis": {"s": "X", "o": "X"}, "pairs": [["s", "o"]]},
]


def _x_scenario(n: int, psi, phi, script: list) -> str:
    """s and o next to an (n − 2)-qubit GHZ environment e1…e(n−2)."""
    return json.dumps({
        "subsystems": [
            {"label": "s", "amplitudes": psi},
            {"label": "o", "amplitudes": phi},
            {"ghz": {"labels": [f"e{i}" for i in range(1, n - 1)], "coefficients": CHI}},
        ],
        "script": script,
    })


def _collapsed(report) -> list:
    """Sections after the initial state, with each outcome's environment
    symbols (all equal on a GHZ branch) folded into one."""
    sections = []
    for section in report.sections[1:]:
        rows = []
        for row in section.rows:
            outcome = row[0]
            if len(outcome) > 2 and set(outcome) <= set("↑↓→←"):
                assert len(set(outcome[2:])) == 1, outcome
                outcome = outcome[:3]
            rows.append((outcome, *row[1:]))
        sections.append((section.title, rows))
    return sections


def _same_up_to_rounding(ours: list, theirs: list) -> bool:
    for (title, rows), (other_title, other_rows) in zip(ours, theirs, strict=True):
        assert title == other_title and len(rows) == len(other_rows), title
        for row, other in zip(rows, other_rows, strict=True):
            for a, b in zip(row, other, strict=True):
                if a != b:
                    assert abs(float(a) - float(b)) <= 1e-12, (title, row, other)
    return True


class TestXAtSize:
    """X measurements on sparse states past the dense limit run sparse."""

    @pytest.mark.parametrize("psi", [RIGHT, PSI], ids=["s-right", "s-generic"])
    def test_ideal_x_at_30_qubits_matches_the_dense_path(self, psi):
        big = run(parse_scenario(_x_scenario(30, psi, RIGHT, IDEAL_X)))
        assert big.sections[0].rows[1] == ("qubits", "30")
        twin = run(parse_scenario(_x_scenario(12, psi, RIGHT, IDEAL_X)), engine="oracle")
        assert _same_up_to_rounding(_collapsed(big), _collapsed(twin))
        assert big.sections[-2].rows[-1] == ("aggregate", "", "1")

    def test_x_corrected_measurement_of_an_x_frame_environment_at_48_qubits(self):
        n = 48
        env = [f"e{i}" for i in range(1, n - 1)]
        script = [{"op": "rotate_basis", "target": lbl} for lbl in env] + [
            {"op": "corrected_measure", "signal": "s", "observer": "o",
             "environment": env, "basis": "X"},
            {"op": "branches", "basis": "X"},
            {"op": "agreement", "basis": "X", "pairs": [["s", "o"], ["e1", env[-2]]]},
        ]
        report = run(parse_scenario(_x_scenario(n, PSI, PHI, script)))
        rows = {s.title: s.rows for s in report.sections}
        # (Hψ)_i |ii⟩ ⊗ χ_k |k…k⟩ ⊗ (Hφ)_j in the →/← frame
        psi, chi, phi = (
            np.array([complex(*a) for a in pair]) for pair in (PSI, CHI, PHI)
        )
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        psi, chi, phi = h @ psi / np.linalg.norm(psi), chi / np.linalg.norm(chi), h @ phi / np.linalg.norm(phi)
        want = [
            ("→←"[i] * 2 + "→←"[k] * (n - 3) + "→←"[j], psi[i] * chi[k] * phi[j])
            for i in (0, 1) for k in (0, 1) for j in (0, 1)
        ]
        branches = rows[f"step {n}: branches"][1:]
        assert [row[0] for row in branches] == [outcome for outcome, _ in want]
        for row, (_, amp) in zip(branches, want):
            assert abs(float(row[1]) - amp.real) < 1e-11
            assert abs(float(row[2]) - amp.imag) < 1e-11
        assert rows[f"step {n + 1}: agreement"][-1] == ("aggregate", "", "1", "1")


def _gate_steps(ops) -> list:
    steps = []
    for op in ops:
        if isinstance(op, RotateBasis):
            steps.append({"op": "rotate_basis", "target": op.target})
        elif isinstance(op, Swap):
            steps.append({"op": "swap", "a": op.a, "b": op.b})
        else:
            kind = "imprint" if isinstance(op, Imprint) else "inverse_imprint"
            steps.append({"op": kind, "source": op.source, "target": op.target})
    return steps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1_875_848_072)  # its printed cells differ in the twelfth digit
def test_inverted_script_restores_the_initial_branch_tables(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(5, 11))
    labels = [f"q{i}" for i in range(n)]
    split = int(gen.integers(0, n - 4))
    pair = lambda: [[float(x) for x in gen.normal(size=2)] for _ in range(2)]  # noqa: E731
    subsystems = [{"label": lbl, "amplitudes": pair()} for lbl in labels[:split]]
    subsystems.append({"ghz": {"labels": labels[split:], "coefficients": pair()}})
    script = []
    for _ in range(int(gen.integers(1, 16))):
        kind = int(gen.integers(0, 4))
        a, b = (str(x) for x in gen.choice(labels, size=2, replace=False))
        script.append((RotateBasis(a), Swap(a, b), Imprint(a, b), InverseImprint(a, b))[kind])
    mixed = {lbl: "ZX"[int(gen.integers(0, 2))] for lbl in labels}
    views = [{"op": "branches", "basis": basis} for basis in ("Z", mixed)]
    doc = {
        "subsystems": subsystems,
        "script": views + _gate_steps(script) + _gate_steps(invert_script(script)) + views,
    }
    seen, listed = [], []
    decompose = runner.branch_decompose

    def recording(state, basis):
        seen.append(state)
        listed.append(decompose(state, basis))
        return listed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "branch_decompose", recording)
        run(parse_scenario(json.dumps(doc)))
    # The listings themselves, not their printed cells: a value the round
    # trip moves by far less than 1e-12 can still cross a print-rounding
    # boundary of the twelfth digit.
    for before, after in zip(listed[:2], listed[2:], strict=True):
        assert before.basis == after.basis and np.array_equal(before.index, after.index)
        assert np.allclose(after.amplitudes, before.amplitudes, rtol=0.0, atol=1e-12)
    # The stored flags need not come back to 0 (a control flag cleared on
    # the way out is not set again on the way back); the Z frame must.
    assert np.allclose(seen[-1].amplitudes, seen[0].amplitudes, rtol=0.0, atol=1e-12)


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(2 ** -0.5) == "0.707106781187"

    def test_negative_zero_collapsed(self):
        assert fmt(-0.0) == "0"
        assert fmt(0.0) == "0"

    def test_noise_collapsed(self):
        assert fmt(3e-13) == "0"
        assert fmt(-4.4e-16) == "0"

    def test_plain_values_untouched(self):
        assert fmt(0.25) == "0.25"
        assert fmt(-1.5) == "-1.5"


class TestCliProcess:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "qmeasure.cli", *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )

    def test_run_writes_report_to_stdout(self):
        result = self.run_cli("run", str(SCENARIOS / "different_basis.json"))
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout == (GOLDEN / "different_basis.txt").read_text()

    def test_run_json_format_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = self.run_cli(
            "run", str(SCENARIOS / "corrected_n3.json"), "--format", "json", "--out", str(out)
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["sections"][0]["title"] == "initial state"

    def test_validate_ok(self):
        result = self.run_cli("validate", str(SCENARIOS / "basic_measurement.json"))
        assert result.returncode == 0
        assert "scenario valid: 3 subsystems, 4 steps" in result.stdout

    def test_scenario_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subsystems": [}')
        result = self.run_cli("validate", str(bad))
        assert result.returncode == 1
        assert "[syntax]" in result.stderr

    def test_missing_file_exit_code(self):
        result = self.run_cli("run", "no_such_scenario.json")
        assert result.returncode == 1

    @pytest.mark.parametrize("command", ["run", "validate", "oracle"])
    def test_non_utf8_file_is_a_syntax_error(self, tmp_path, command):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff\xfe")
        result = self.run_cli(command, str(path))
        assert result.returncode == 1
        assert "[syntax]" in result.stderr
        assert "Traceback" not in result.stderr

    def test_out_into_a_missing_directory_exit_code(self, tmp_path):
        out = tmp_path / "missing" / "report.txt"
        result = self.run_cli("run", str(SCENARIOS / "basic_measurement.json"), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot write {str(out)!r}: ")
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_step_error_exit_code(self, tmp_path):
        doc = {
            "subsystems": [
                {"label": "s", "amplitudes": [[1, 0], [1, 0]]},
                {"label": "o", "amplitudes": [[0.6, 0], [0.8, 0]]},
            ],
            "script": [{"op": "ideal_measure", "signal": "s", "observer": "o", "basis": "Z"}],
        }
        path = tmp_path / "unready.json"
        path.write_text(json.dumps(doc))
        result = self.run_cli("run", str(path))
        assert result.returncode == 2
        assert "step 1" in result.stderr

    @pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
    def test_hostile_input_ends_coded(self, tmp_path, name):
        path = tmp_path / "hostile.json"
        path.write_text(HOSTILE_INPUTS[name])
        result = self.run_cli("run", str(path))
        assert "Traceback" not in result.stderr
        assert result.returncode == 1 or (result.returncode == 0 and "== step 1" in result.stdout)

    def test_ideal_x_at_30_qubits_exits_0(self, tmp_path):
        path = tmp_path / "ideal_x_30.json"
        path.write_text(_x_scenario(30, RIGHT, RIGHT, IDEAL_X))
        result = self.run_cli("run", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert "qubits      30" in result.stdout
        assert "== step 3: agreement ==" in result.stdout

    def test_ledger_of_a_product_with_amplitudes_under_the_cutoff_exits_0(self, tmp_path):
        # 11 qubits of (1.4, 0.2): the smallest amplitude, 4.5e-10, lies
        # under the 1e-9 cutoff, and every qubit is a singleton cluster.
        doc = {
            "subsystems": [{"label": f"q{i}", "amplitudes": [[1.4, 0], [0.2, 0]]} for i in range(11)],
            "script": [{"op": "ledger", "tag": "t"}],
        }
        path = tmp_path / "product_11.json"
        path.write_text(json.dumps(doc))
        result = self.run_cli("run", str(path))
        assert result.returncode == 0, result.stderr
        assert ["total", "0"] in [line.split() for line in result.stdout.splitlines()]

    def test_oracle_subcommand_matches_run(self):
        fast = self.run_cli("run", str(SCENARIOS / "record_recovery.json"))
        slow = self.run_cli("oracle", str(SCENARIOS / "record_recovery.json"))
        assert slow.returncode == 0
        assert fast.stdout == slow.stdout

    def test_subprocess_determinism(self):
        runs = [self.run_cli("run", str(SCENARIOS / "record_recovery.json")).stdout for _ in range(2)]
        assert runs[0] == runs[1]

    def test_tol_flag_override(self, tmp_path):
        result = self.run_cli("run", str(SCENARIOS / "basic_measurement.json"), "--tol", "2")
        assert result.returncode == 1

    # A tol above every amplitude of the Z view the ledger reads: above every
    # stored one too, or only above |↑⟩ read in X (2^(−1/2)), where the
    # stored amplitudes clear it.
    @pytest.mark.parametrize("subsystems, target, tol", [
        ([{"label": "s", "amplitudes": [[1, 0], [1, 0]]},
          {"label": "o", "amplitudes": [[1, 0], [1, 0]]},
          {"ghz": {"labels": ["e1", "e2", "e3"], "coefficients": [[1, 0], [1, 0]]}}], "e1", "0.6"),
        ([{"label": "a", "amplitudes": [[1, 0], [0, 0]]},
          {"ghz": {"labels": ["b", "c", "d", "e", "f"], "coefficients": [[1, 0], [0, 0]]}}], "a", "0.8"),
    ], ids=["every_stored_amplitude", "the_view_of_a_flagged_singleton"])
    def test_a_tol_above_every_amplitude_fails_its_ledger_step(self, tmp_path, subsystems, target, tol):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({
            "subsystems": subsystems,
            "script": [{"op": "rotate_basis", "target": target}, {"op": "ledger", "tag": "t"}],
        }))
        result = self.run_cli("run", str(path), "--tol", tol)
        assert result.returncode == 2
        assert "step 2 (LedgerStep): state has no support above the tolerance cutoff" in result.stderr
        assert "Traceback" not in result.stderr

    def test_tol_and_relabel_flags_override_the_options_through_main(self, tmp_path, capsys):
        # The pair e1, e2~ that a ↓ imprint leaves anticorrelated is one
        # cluster under the document's 1e-11, where its 1e-10 coefficient is
        # live, two product singletons under --tol 1e-6, and no cluster
        # outside relabelling mode.
        path = tmp_path / "flags.json"
        path.write_text(json.dumps({
            "subsystems": [
                {"label": "d", "amplitudes": [[0, 0], [1, 0]]},
                {"ghz": {"labels": ["e1", "e2"], "coefficients": [[1, 0], [1e-10, 0]]}},
            ],
            "script": [{"op": "imprint", "source": "d", "target": "e2"}, {"op": "ledger", "tag": "t"}],
            "options": {"tolerance": 1e-11},
        }))
        clusters = []
        for flags in ([], ["--tol", "1e-6"]):
            assert main(["run", str(path), *flags]) == 0
            lines = capsys.readouterr().out.split("\n\n")[1].splitlines()[2:]
            clusters.append([line.split() for line in lines])
        assert clusters == [
            [["d", "0"], ["e1", "e2~", "1"], ["total", "1"]],
            [["d", "0"], ["e1", "0"], ["e2", "0"], ["total", "0"]],
        ]
        assert main(["run", str(path), "--relabel", "off"]) == 2
        assert "residual subsystems ('e1', 'e2')" in capsys.readouterr().err

    def test_entry_point_callable(self, capsys):
        assert main(["validate", str(SCENARIOS / "corrected_n3.json")]) == 0
        assert "5 subsystems" in capsys.readouterr().out

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import preisach.classical
import preisach.generalized
import preisach.verify
from helpers import cell_masses, uniform_grid
from preisach import GeneralizedPopulation, PiecewiseLinear
from preisach.cli import build_parser, main

AGENTS_CSV = "alpha,beta,nu\n2,1,1\n3,0,2\n"


@pytest.fixture()
def agents_csv(tmp_path):
    path = tmp_path / "agents.csv"
    path.write_text(AGENTS_CSV)
    return str(path)


@pytest.fixture()
def huge_relay_csv(tmp_path):
    """One relay whose outputs are -1e308 and 1e308: its chord, 2e308, is past the float range."""
    path = tmp_path / "huge.csv"
    path.write_text("alpha,beta,nu\n0.5,0.25,1e308\n")
    return str(path)


@pytest.fixture()
def generalized_json(tmp_path):
    agents = [
        {
            "alpha": 2.0,
            "beta": -2.0,
            "f_plus": [[-2.0, -1.0], [2.0, -1.0]],
            "f_minus": [[-2.0, 0.0], [2.0, 4.0]],
        },
        {
            "alpha": 0.3,
            "beta": -0.2,
            "f_plus": [[-1.0, -1.0], [1.0, -0.5]],
            "f_minus": [[-1.0, 0.5], [1.0, 1.0]],
        },
    ]
    path = tmp_path / "soft_agents.json"
    path.write_text(json.dumps(agents))
    return str(path)


@pytest.fixture()
def shift_json(tmp_path):
    model = {
        "agents": [
            {"alpha": 0.5, "beta": -0.5, "nu": 1.0},
            {"alpha": 0.8, "beta": -0.2, "nu": 2.0},
        ],
        "g1": [[-2.0, 0.1], [2.0, 0.3]],
        "g2": [[-2.0, 0.0], [2.0, 0.1]],
    }
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(model))
    return str(path)


@pytest.fixture()
def large_agents_csv(tmp_path):
    rng = np.random.default_rng(7)
    beta = rng.uniform(0.0, 1.0, 2000)
    alpha = beta + rng.uniform(0.0, 1.0, 2000) * (1.0 - beta)
    nu = rng.uniform(0.0, 1e6, 2000)
    path = tmp_path / "large.csv"
    path.write_text("alpha,beta,nu\n" + "".join(
        f"{a!r},{b!r},{v!r}\n" for a, b, v in zip(alpha.tolist(), beta.tolist(), nu.tolist())))
    return str(path)


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_two_agent_example(self, agents_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["simulate", "--agents", agents_csv, "--history", "2.5,0.5", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "step,u,f\n1,2.5,-1.0\n2,0.5,-3.0\n"

    def test_byte_identical_reruns(self, agents_csv, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["simulate", "--agents", agents_csv, "--history", "2.5,0.5,1.8", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_series_input_emits_one_row_per_sample(self, agents_csv, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("time,u\n0,1.0\n1,2.5\n2,1.4\n3,0.5\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--agents", agents_csv, "--input", str(series), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["step", "u", "f"]
        assert [r[1] for r in rows] == [1.0, 2.5, 1.4, 0.5]
        assert [r[2] for r in rows] == [-3.0, -1.0, -1.0, -3.0]

    def test_empty_series_rejected(self, agents_csv, tmp_path, capsys):
        series = tmp_path / "empty.csv"
        series.write_text("time,u\n")
        code = main(["simulate", "--agents", agents_csv, "--input", str(series)])
        assert code == 2
        assert "empty series" in capsys.readouterr().err

    def test_corrupted_agent_row_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha,beta,nu\n2,1,1\n0,1,1\n")
        code = main(["simulate", "--agents", str(bad), "--history", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "3" in err and "alpha < beta" in err

    def test_grid_path_matches_direct_on_aligned_history(self, agents_csv, tmp_path):
        aligned = "3.0,0.5,2.5"  # values on the 8-cell grid over (0, 3)
        out_direct = tmp_path / "d.csv"
        out_grid = tmp_path / "g.csv"
        main(["simulate", "--agents", agents_csv, "--history", aligned, "--out", str(out_direct)])
        main(
            [
                "simulate", "--agents", agents_csv, "--history", aligned,
                "--grid-n", "12", "--bounds", "0,3", "--out", str(out_grid),
            ]
        )
        _, direct_rows = read_rows(out_direct)
        _, grid_rows = read_rows(out_grid)
        assert np.allclose(direct_rows, grid_rows, atol=1e-12)

    def test_usage_error_exit_code(self):
        assert main(["simulate"]) == 1

    def test_generalized_rows_match_library(self, generalized_json, tmp_path):
        from preisach import ReversalSequence, eval_generalized
        from preisach.fileio import read_generalized_json

        out = tmp_path / "out.csv"
        values = [2.5, -0.6, 0.4]
        code = main(
            [
                "simulate", "--model", "generalized", "--agents", generalized_json,
                "--history", ",".join(map(str, values)), "--start", "-3",
                "--out", str(out),
            ]
        )
        assert code == 0
        gpop = read_generalized_json(generalized_json)
        _, rows = read_rows(out)
        for k, (_, u, f) in enumerate(rows):
            seq = ReversalSequence(-3.0, tuple(values[: k + 1]))
            assert f == pytest.approx(eval_generalized(gpop, seq, u), abs=1e-12)

    def test_invalid_history_rejected(self, agents_csv, capsys):
        assert main(["simulate", "--agents", agents_csv, "--history", "1,2"]) == 2
        assert "invalid reversal sequence" in capsys.readouterr().err

    def test_shift_gap_past_the_float_range(self, tmp_path, capsys):
        # g1 - g2 = 2e308 is past the float range, but g2 <= g1 holds: no warning
        path = tmp_path / "shift.json"
        path.write_text(json.dumps({"agents": [{"alpha": 0.5, "beta": 0.0, "nu": 1.0}],
                                    "g1": [[0, 1e308]], "g2": [[0, -1e308]]}))
        assert main(["simulate", "--model", "shifted", "--agents", str(path),
                     "--history", "0.3"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[1:] == ["1,0.3,-1.0"]


class TestDataErrors:
    """Bad values are printed as plain floats, whatever numpy prints for its scalars."""

    def run(self, capsys, *argv):
        assert main([*argv, "--history", "0.9"]) == 2
        return capsys.readouterr().err

    def test_agent_out_of_grid_bounds(self, tmp_path, capsys):
        path = tmp_path / "agents.csv"
        path.write_text("alpha,beta,nu\n0.25,0.125,1\n0.7,0.6,1\n")
        err = self.run(capsys, "simulate", "--agents", str(path), "--grid-n", "16",
                       "--bounds", "0,0.5")
        assert err == ("preisach: error: agent out of range: agent 1 with (alpha=0.7, "
                       "beta=0.6) outside bounds (0.0, 0.5)\n")

    @pytest.mark.parametrize("agent, message", [
        ({"alpha": 0.2, "beta": 0.5, "nu": 1.0}, "alpha < beta (0.2 < 0.5)"),
        ({"alpha": 0.5, "beta": 0.2, "nu": -1.5}, "negative capacity -1.5"),
    ])
    def test_bad_shift_agent(self, tmp_path, capsys, agent, message):
        path = tmp_path / "shift.json"
        path.write_text(json.dumps({"agents": [{"alpha": 0.5, "beta": 0.0, "nu": 1.0}, agent],
                                    "g1": [[0.0, 0.1]], "g2": [[0.0, 0.0]]}))
        err = self.run(capsys, "simulate", "--model", "shifted", "--agents", str(path))
        assert err == f"preisach: error: {path}: agent 1: {message}\n"

    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_agent_cell(self, tmp_path, capsys, column, value):
        cells = ["0.5", "0.1", "1"]
        cells[column] = value
        path = tmp_path / "agents.csv"
        path.write_text("alpha,beta,nu\n0.5,0.1,1\n" + ",".join(cells) + "\n")
        err = self.run(capsys, "simulate", "--agents", str(path))
        name = ("alpha", "beta", "nu")[column]
        assert err == f"preisach: error: {path}:3: non-finite {name}\n"

    def test_bad_soft_branch_names_the_agent_once(self, tmp_path, capsys):
        path = tmp_path / "soft_bad.json"
        path.write_text(json.dumps([{"alpha": 0.5, "beta": -0.5,
                                     "f_plus": [[1.0, -1.0], [-1.0, 0.0]],
                                     "f_minus": [[0.0, 1.0]]}]))
        err = self.run(capsys, "simulate", "--model", "generalized", "--agents", str(path))
        assert err == (f"preisach: error: {path}: agent 0: "
                       "breakpoint abscissae must be strictly increasing\n")

    HUGE = "9" * 400  # a JSON integer no float can hold

    def test_huge_soft_branch_value(self, tmp_path, capsys):
        path = tmp_path / "soft.json"
        path.write_text('[{"alpha": 0.5, "beta": -0.5, "f_plus": [[0.0, -1.0]], '
                        f'"f_minus": [[0.0, {self.HUGE}]]}}]')
        err = self.run(capsys, "simulate", "--model", "generalized", "--agents", str(path))
        assert err == f"preisach: error: {path}: agent 0: int too large to convert to float\n"

    def test_huge_shift_capacity(self, tmp_path, capsys):
        path = tmp_path / "shift.json"
        path.write_text(f'{{"agents": [{{"alpha": 0.5, "beta": 0.0, "nu": {self.HUGE}}}], '
                        '"g1": [[0.0, 0.1]], "g2": [[0.0, 0.0]]}')
        err = self.run(capsys, "simulate", "--model", "shifted", "--agents", str(path))
        assert err == (f"preisach: error: {path}: agent 0: "
                       "int too large to convert to float\n")

    def test_huge_memory_input(self, agents_csv, tmp_path, capsys):
        path = tmp_path / "memory.json"
        path.write_text(f'{{"start_u": 0.0, "pairs": [], "current_u": {self.HUGE}, '
                        '"trend": "rising"}')
        err = self.run(capsys, "simulate", "--agents", agents_csv, "--memory-in", str(path))
        assert err == (f"preisach: error: {path}: malformed memory record: "
                       "int too large to convert to float\n")

    @pytest.mark.parametrize("record, message", [
        ('{"start_u": 0.0, "pairs": [], "current_u": "abc", "trend": "rising"}',
         "could not convert string to float: 'abc'"),
        ('{"start_u": 0.0, "pairs": [[1]], "current_u": 0.5, "trend": "falling"}',
         "not enough values to unpack (expected 2, got 1)"),
    ], ids=["text-value", "short-pair"])
    def test_malformed_memory_value(self, agents_csv, tmp_path, capsys, record, message):
        path = tmp_path / "memory.json"
        path.write_text(record)
        err = self.run(capsys, "simulate", "--agents", agents_csv, "--memory-in", str(path))
        assert err == f"preisach: error: {path}: malformed memory record: {message}\n"

    @pytest.mark.parametrize("option, model, text, message", [
        ("--memory-in", "classical", '{"start_u": 0.0,',
         "Expecting property name enclosed in double quotes: line 1 column 17 (char 16)"),
        ("--agents", "shifted", '{"agents": [}', "Expecting value: line 1 column 13 (char 12)"),
        ("--agents", "generalized", '[{"alpha": 0.5 "beta": 0.1}]',
         "Expecting ',' delimiter: line 1 column 16 (char 15)"),
    ], ids=["memory", "shift", "soft"])
    def test_json_syntax_error_names_the_file(self, agents_csv, tmp_path, capsys, option, model,
                                              text, message):
        path = tmp_path / "broken.json"
        path.write_text(text)
        files = {"--agents": agents_csv, option: str(path)}
        err = self.run(capsys, "simulate", "--model", model,
                       *(arg for item in files.items() for arg in item))
        assert err == f"preisach: error: {path}: {message}\n"


class TestCsvHeaders:
    """Both CSV readers read their header: its first cells must name the columns in
    order, and a file whose bytes are not UTF-8 is named."""

    @staticmethod
    def simulate(agents_csv, option, path):
        """``simulate`` with ``path`` as the agent file or as the input series."""
        if option == "--agents":
            return main(["simulate", "--agents", str(path), "--history", "0.6"])
        return main(["simulate", "--agents", agents_csv, "--input", str(path)])

    @pytest.mark.parametrize("option, text, message", [
        ("--agents", "nu,alpha,beta\n2,0.5,0.25\n", "expected alpha,beta,nu header"),
        ("--input", "u,time\n0,0.5\n1,0.7\n", "expected time,u header"),
    ])
    def test_swapped_header_names_line_1(self, agents_csv, tmp_path, capsys, option, text,
                                         message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert self.simulate(agents_csv, option, path) == 2
        assert capsys.readouterr().err == f"preisach: error: {path}:1: {message}\n"

    @pytest.mark.parametrize("header", [" alpha , beta,nu,note", "\ufeffalpha,beta,nu"],
                             ids=["spaces-and-an-extra-column", "byte-order-mark"])
    def test_header_naming_the_columns_first_reads(self, tmp_path, capsys, header):
        (tmp_path / "a.csv").write_text(header + "\n2,1,1,x\n3,0,2,y\n", encoding="utf-8")
        assert main(["simulate", "--agents", str(tmp_path / "a.csv"), "--history", "2.5"]) == 0
        assert capsys.readouterr().out == "step,u,f\n1,2.5,-1.0\n"

    @pytest.mark.parametrize("text", [b"\xff\xfe", b"alpha,beta,nu\n0.5,0.25,1\n0.5,0.2\xff,1\n",
                                      b"alpha,beta,nu\n" + b"0.5,0.25,1\n" * 2000 + b"\xff\n"],
                             ids=["header", "row-3", "past-the-first-block"])
    @pytest.mark.parametrize("option", ["--agents", "--input"])
    def test_bytes_not_utf8_name_the_file(self, agents_csv, tmp_path, capsys, text, option):
        path = tmp_path / "bad.csv"
        path.write_bytes(text if option == "--agents"
                         else text.replace(b"alpha,beta,nu", b"time,u"))
        assert self.simulate(agents_csv, option, path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"preisach: error: {path}: 'utf-8' codec can't decode byte 0xff")


# The soft-agent rules, each with its exact message: what the CLI prints after
# "agent k: " and what the single-agent constructors raise.
SOFT_RULES = {
    "empty": "at least one breakpoint is required",
    "finite-knots": "breakpoints must be finite",
    "increasing-abscissae": "breakpoint abscissae must be strictly increasing",
    "non-decreasing-values": "branch values must be non-decreasing",
    "finite-thresholds": "thresholds must be finite",
    "ordered-thresholds": "alpha must be >= beta, got alpha=0.25, beta=0.5",
    "gap-at-band-edge": "descending branch below ascending branch at u=1.0",
    "gap-at-inner-knot": "descending branch below ascending branch at u=0.5",
    "finite-steps": "consecutive breakpoints must differ by finite amounts",
    "finite-slopes": "slopes between consecutive breakpoints must be finite",
    "finite-total": "total branch value overflows",
}
GOOD_SOFT = {"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, -1.0], [1.0, 0.0]],
             "f_minus": [[0.0, 0.0], [1.0, 1.0]]}
# f_minus falls below f_plus at alpha = 1.0 only; no knot lies inside the band
GAP_AT_EDGE = {"alpha": 1.0, "beta": 0.0, "f_plus": [[-1.0, -1.0], [2.0, 2.0]],
               "f_minus": [[-1.0, 0.5], [2.0, 0.8]]}
# f_minus falls below f_plus at the knot u = 0.5 only
GAP_AT_KNOT = {"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, 0.0], [0.5, 1.0]],
               "f_minus": [[0.5, 0.9], [1.0, 2.0]]}


# every branch value is finite, but the agent's output switches between 1e308 and
# 1.5e308, and a readout that adds the two branches leaves the float range
HUGE_SOFT = [{"alpha": 0.75, "beta": 0.25, "f_plus": [[0, 1e308]], "f_minus": [[0, 1.5e308]]}]
# the largest branch values of two agents add up past the float range
TWO_LARGE_SOFT = [{"alpha": 0.75, "beta": 0.25, "f_plus": [[0, 6e307]],
                   "f_minus": [[0, 6e307]]}] * 2
# the total counts each agent's two branches in turn: it overflows at agent 2, not
# at agent 1, where a total of every f_plus before any f_minus would
PLUS_HEAVY_SOFT = [{"alpha": 0.75, "beta": 0.25, "f_plus": [[0, -v]], "f_minus": [[0, 0]]}
                   for v in (1e308, 0.0, 1e308)]


def without(agent, key):
    return {k: v for k, v in agent.items() if k != key}


# (agents, the agent named, its message)
BAD_SOFT_FILES = {
    "missing-key": ([GOOD_SOFT, without(GOOD_SOFT, "beta")], 1, "'beta'"),
    "nan-alpha": ([{**GOOD_SOFT, "alpha": float("nan")}], 0, SOFT_RULES["finite-thresholds"]),
    "alpha-below-beta": ([GOOD_SOFT, {**GOOD_SOFT, "alpha": 0.25, "beta": 0.5}], 1,
                         SOFT_RULES["ordered-thresholds"]),
    "empty-f_plus": ([{**GOOD_SOFT, "f_plus": []}], 0, SOFT_RULES["empty"]),
    "unsorted-abscissae": ([GOOD_SOFT, {**GOOD_SOFT, "f_minus": [[1.0, 0.0], [0.0, 1.0]]}], 1,
                           SOFT_RULES["increasing-abscissae"]),
    "decreasing-f_minus": ([{**GOOD_SOFT, "f_minus": [[0.0, 1.0], [1.0, 0.5]]}], 0,
                           SOFT_RULES["non-decreasing-values"]),
    "gap-at-band-edge": ([GAP_AT_EDGE], 0, SOFT_RULES["gap-at-band-edge"]),
    "gap-at-inner-knot": ([GOOD_SOFT, GAP_AT_KNOT], 1, SOFT_RULES["gap-at-inner-knot"]),
    "string-knot-value": ([{**GOOD_SOFT, "f_plus": [[0.0, "x"]]}], 0,
                          "could not convert string to float: 'x'"),
    "knot-not-a-pair": ([{**GOOD_SOFT, "f_minus": [[0.0, 0.0], [1.0]]}], 0,
                        "not enough values to unpack (expected 2, got 1)"),
    # the f_plus rule is named before the missing f_minus
    "decreasing-f_plus-and-no-f_minus": (
        [{"alpha": 1, "beta": 0, "f_plus": [[0, 1], [1, 0]]}], 0,
        SOFT_RULES["non-decreasing-values"]),
    # agent 0's fault is named before agent 1's missing alpha
    "gap-fault-then-missing-alpha": ([GAP_AT_EDGE, without(GOOD_SOFT, "alpha")], 0,
                                     SOFT_RULES["gap-at-band-edge"]),
    # f_plus climbs from -1.7e308 to 1.7e308: its step is past the float range
    "overflowing-step": ([{"alpha": 1, "beta": 0, "f_plus": [[0, -1.7e308], [1, 1.7e308]],
                           "f_minus": [[0, 1.7e308]]}], 0, SOFT_RULES["finite-steps"]),
    # a finite step of 1e308 over 1e-10: the slope is past the float range
    "overflowing-slope": ([{"alpha": 1, "beta": 0, "f_plus": [[0, -5e307], [1e-10, 5e307]],
                            "f_minus": [[0, 1e308]]}], 0, SOFT_RULES["finite-slopes"]),
}


def soft_agent(entry):
    """A one-agent population of a JSON agent entry; its fault is raised as the
    rule's text alone, once checked to name agent 0."""
    try:
        return GeneralizedPopulation(*([entry[key]] for key in ("alpha", "beta", "f_plus",
                                                                "f_minus")))
    except ValueError as exc:
        assert str(exc).startswith("agent 0: "), exc
        raise ValueError(str(exc).removeprefix("agent 0: ")) from exc


def soft_branch(f_plus):
    """A one-agent population whose ``f_plus`` has these knots."""
    return soft_agent({**GOOD_SOFT, "f_plus": f_plus})


class TestBadSoftAgentFiles:
    @pytest.mark.parametrize("case", BAD_SOFT_FILES)
    def test_message_names_the_agent_and_the_rule(self, tmp_path, capsys, case):
        agents, k, message = BAD_SOFT_FILES[case]
        path = tmp_path / "soft.json"
        path.write_text(json.dumps(agents))
        assert main(["simulate", "--model", "generalized", "--agents", str(path),
                     "--history", "0.9"]) == 2
        assert capsys.readouterr().err == f"preisach: error: {path}: agent {k}: {message}\n"

    @pytest.mark.parametrize("rule, build", [
        ("empty", lambda: PiecewiseLinear([])),
        ("empty", lambda: soft_branch([])),
        ("finite-knots", lambda: PiecewiseLinear([(0.0, 1.0), (float("inf"), 2.0)])),
        ("finite-knots", lambda: soft_branch([(0.0, float("nan"))])),
        ("increasing-abscissae", lambda: PiecewiseLinear([(1.0, 0.0), (0.0, 1.0)])),
        ("increasing-abscissae", lambda: soft_branch([(0.0, 0.0), (0.0, 1.0)])),
        ("non-decreasing-values", lambda: soft_branch([(0.0, 1.0), (1.0, 0.5)])),
        ("finite-thresholds", lambda: soft_agent({**GOOD_SOFT, "alpha": float("nan")})),
        ("ordered-thresholds", lambda: soft_agent({**GOOD_SOFT, "alpha": 0.25, "beta": 0.5})),
        ("gap-at-band-edge", lambda: soft_agent(GAP_AT_EDGE)),
        ("gap-at-inner-knot", lambda: soft_agent(GAP_AT_KNOT)),
        ("finite-steps", lambda: PiecewiseLinear([(-1.7e308, 0.0), (1.7e308, 0.0)])),
        ("finite-steps", lambda: soft_branch([(0.0, -1.7e308), (1.0, 1.7e308)])),
        ("finite-slopes", lambda: PiecewiseLinear([(-1.0, 0.0), (0.0, 0.0), (1e-300, 1e10)])),
        ("finite-slopes", lambda: soft_branch([(0.0, -5e307), (1e-10, 5e307)])),
        ("finite-total", lambda: soft_agent(HUGE_SOFT[0])),
    ])
    def test_single_agent_constructors_raise_the_same_text(self, rule, build):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == SOFT_RULES[rule]

    @pytest.mark.filterwarnings("error")  # numpy warned on the overflowing midline
    @pytest.mark.parametrize("command", ["simulate", "decompose"])
    @pytest.mark.parametrize("agents, k", [(HUGE_SOFT, 0), (TWO_LARGE_SOFT, 1),
                                           (PLUS_HEAVY_SOFT, 2)],
                             ids=["one-agent", "two-agents", "agent-order"])
    def test_total_branch_value_past_the_float_range(self, tmp_path, capsys, command, agents,
                                                      k):
        path = tmp_path / "soft.json"
        path.write_text(json.dumps(agents))
        out = tmp_path / "out.csv"
        assert main([command, "--model", "generalized", "--agents", str(path),
                     "--history", "1,0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"preisach: error: {path}: agent {k}: {SOFT_RULES['finite-total']}\n")
        assert not out.exists()


# (rows under the header "alpha,beta,nu", the line named, its message); the
# line is None where the whole file is at fault. A non-finite cell in each
# column is TestDataErrors.test_non_finite_agent_cell.
BAD_AGENT_CSVS = {
    "alpha-below-beta": (["0.5,0.1,1", "0.1,0.5,1"], 3, "alpha < beta (0.1 < 0.5)"),
    "negative-nu": (["0.5,0.1,-1"], 2, "negative capacity -1.0"),
    "unreadable-cell": (["0.5,0.1,1", "0.5,x,1"], 3, "could not convert string to float: 'x'"),
    "short-row": (["0.5,0.1"], 2, "expected alpha,beta,nu columns"),
    "fault-after-blank-lines": (["0.5,0.1,1", "", "", "0.1,0.5,1"], 5,
                                "alpha < beta (0.1 < 0.5)"),
    "empty": ([""], None, "empty agent file"),
    # two faulty rows: the first is named, whatever its fault
    "negative-nu-then-nan-alpha": (["0.5,0.1,-1", "nan,0.1,1"], 2, "negative capacity -1.0"),
    "alpha-below-beta-then-unreadable": (["0.1,0.5,1", "0.5,x,1"], 2,
                                         "alpha < beta (0.1 < 0.5)"),
    "unreadable-then-alpha-below-beta": (["0.5,x,1", "0.1,0.5,1"], 2,
                                         "could not convert string to float: 'x'"),
    # each capacity is finite, but the running total is not from the second on
    "capacity-total-overflows": (["0.9,0.1,1e308", "0.8,0.2,1e308", "0.7,0.3,1e308"], 3,
                                 "total capacity overflows"),
}
GOOD_SHIFT = {"agents": [{"alpha": 0.5, "beta": 0.0, "nu": 1.0},
                         {"alpha": 0.8, "beta": -0.2, "nu": 2.0}],
              "g1": [[-1.0, 0.1], [1.0, 0.3]], "g2": [[-1.0, 0.0], [1.0, 0.1]]}
WIDE_IDENTITY = [[-8.9e307, -8.9e307], [8.9e307, 8.9e307]]
# (the shift model, its message after the file name)
BAD_SHIFT_FILES = {
    "agent-without-nu": ({**GOOD_SHIFT, "agents": [GOOD_SHIFT["agents"][0],
                                                   without(GOOD_SHIFT["agents"][1], "nu")]},
                         "agent 1: 'nu'"),
    # agent 0 is named with no earlier agents to check first
    "first-agent-without-nu": ({**GOOD_SHIFT, "agents": [without(GOOD_SHIFT["agents"][0], "nu")]},
                               "agent 0: 'nu'"),
    "no-agents": ({**GOOD_SHIFT, "agents": []}, "at least one agent is required"),
    # agent 0's fault is named before agent 1's missing nu
    "negative-nu-then-no-nu": ({**GOOD_SHIFT, "agents": [
        {"alpha": 0.5, "beta": 0.0, "nu": -1.0}, {"alpha": 0.5, "beta": 0.0}]},
        "agent 0: negative capacity -1.0"),
    "repeated-g1-abscissa": ({**GOOD_SHIFT, "g1": [[0.0, 0.1], [0.0, 0.2]]},
                             "g1: breakpoint abscissae must be strictly increasing"),
    "string-in-g2": ({**GOOD_SHIFT, "g2": [[0.0, "x"]]},
                     "g2: could not convert string to float: 'x'"),
    "no-g1": (without(GOOD_SHIFT, "g1"), "malformed shift model: 'g1'"),
    "capacity-total-overflows": ({**GOOD_SHIFT, "agents": [
        {"alpha": 0.9 - 0.1 * k, "beta": 0.1 * k, "nu": 1e308} for k in range(3)]},
        "agent 1: total capacity overflows"),
    "g1-step-overflows": ({**GOOD_SHIFT, "g1": [[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]},
                          f"g1: {SOFT_RULES['finite-steps']}"),
    "composite-knot-overflows": ({**GOOD_SHIFT, "g1": [[0.0, 1.7e308], [1e308, 1.7e308]]},
                                 "ill-posed shift: u + g1(u) must be finite at every knot"),
    "g1-slope-overflows": ({**GOOD_SHIFT, "g1": [[-1, 0], [0, 0], [1e-300, 1e10]]},
                           f"g1: {SOFT_RULES['finite-slopes']}"),
    # the slopes of g1 = g2 are 1, but u + g(u) climbs 3.56e308 between their knots
    "composite-slope-overflows": ({**GOOD_SHIFT, "g1": WIDE_IDENTITY, "g2": WIDE_IDENTITY},
                                  "ill-posed shift: u + g1(u) must have finite slopes"),
}


class TestBadRelayAgentFiles:
    def run(self, capsys, *argv):
        assert main([*argv, "--history", "0.9"]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_AGENT_CSVS)
    def test_csv_message_names_the_line_and_the_rule(self, tmp_path, capsys, case):
        rows, line, message = BAD_AGENT_CSVS[case]
        path = tmp_path / "agents.csv"
        path.write_text("".join(f"{row}\n" for row in ["alpha,beta,nu", *rows]))
        where = path if line is None else f"{path}:{line}"
        assert self.run(capsys, "simulate", "--agents", str(path)) == (
            f"preisach: error: {where}: {message}\n")

    @pytest.mark.parametrize("case", BAD_SHIFT_FILES)
    def test_shift_message_names_the_agent_or_the_table(self, tmp_path, capsys, case):
        model, message = BAD_SHIFT_FILES[case]
        path = tmp_path / "shift.json"
        path.write_text(json.dumps(model))
        assert self.run(capsys, "simulate", "--model", "shifted", "--agents", str(path)) == (
            f"preisach: error: {path}: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["simulate", "--grid-n", "8", "--bounds", "0,1"], ["decompose"],
    ])
    def test_capacity_total_past_the_float_range(self, tmp_path, capsys, argv):
        # each capacity is finite, but their running total overflows at line 3
        path = tmp_path / "agents.csv"
        path.write_text("alpha,beta,nu\n0.9,0.1,1e308\n0.8,0.2,1e308\n0.7,0.3,1e308\n")
        out = tmp_path / "out.csv"
        assert main([argv[0], "--agents", str(path), *argv[1:], "--history", "0.6,0.3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"preisach: error: {path}:3: total capacity overflows\n"
        assert not out.exists()

    def test_population_names_the_first_agent_at_fault(self):
        with pytest.raises(ValueError) as exc:
            preisach.classical.AgentPopulation([1.0, float("nan")], [0.0, 0.0], [-1.0, 1.0])
        assert str(exc.value) == "agent 0: negative capacity -1.0"


# The largest double, then twice 2**969, a quarter of its ulp: the float running total
# stays at the largest double, but the exact total of all three is 2**1024 - 2**970,
# which rounds to inf. The first two alone round to the largest double.
EDGE_VALUES = (1.7976931348623157e+308, 4.9896007738368e+291, 4.9896007738368e+291)
EDGE_COMMANDS = {
    "simulate": ["simulate", "--history", "1"],
    "simulate-grid": ["simulate", "--grid-n", "4", "--bounds", "0,1", "--history", "1"],
    "decompose": ["decompose", "--history", "1"],
    "loop": ["loop", "--u-minus", "0", "--u-plus", "1", "--history", "1"],
    "chord": ["chord", "--u-minus", "0", "--u-plus", "1", "--at", "0.4"],
    "verify": ["verify"],
}
EDGE_CASES = [(kind, command) for kind in ("relay", "shifted", "generalized")
              for command in EDGE_COMMANDS if kind == "relay" or command != "simulate-grid"]


def edge_file(tmp_path, kind, rows=3):
    """A file of the first ``rows`` agents on ``EDGE_VALUES`` and the options that read it."""
    values = EDGE_VALUES[:rows]
    if kind == "relay":
        path = tmp_path / "agents.csv"
        path.write_text("alpha,beta,nu\n" + "".join(f"0.5,0.25,{v!r}\n" for v in values))
        return path, ["--agents", str(path)]
    if kind == "shifted":
        data = {"agents": [{"alpha": 0.5, "beta": 0.25, "nu": v} for v in values],
                "g1": [[0.0, 0.0]], "g2": [[0.0, 0.0]]}
    else:
        data = [{"alpha": 0.5, "beta": 0.25, "f_plus": [[0.0, 0.0]], "f_minus": [[0.0, v]]}
                for v in values]
    path = tmp_path / "agents.json"
    path.write_text(json.dumps(data))
    return path, ["--model", kind, "--agents", str(path)]


class TestExactOverflowRules:
    """Each rule bounds the exact running total, not the float one, so every sum a
    readout forms, rounded once, stays a double."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, command", EDGE_CASES)
    def test_total_that_rounds_to_inf_names_its_agent(self, tmp_path, capsys, kind, command):
        path, model = edge_file(tmp_path, kind)
        argv = EDGE_COMMANDS[command]
        assert main([argv[0], *model, *argv[1:]]) == 2
        where = f"{path}:4" if kind == "relay" else f"{path}: agent 2"
        rule = "branch value" if kind == "generalized" else "capacity"
        assert capsys.readouterr().err == f"preisach: error: {where}: total {rule} overflows\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["relay", "shifted", "generalized"])
    def test_total_that_rounds_to_the_largest_double_reads(self, tmp_path, capsys, kind):
        _, model = edge_file(tmp_path, kind, rows=2)
        assert main(["simulate", *model, "--history", "1,0.4"]) == 0
        assert main(["decompose", *model, "--history", "1,0.4"]) == 0
        out = capsys.readouterr().out.splitlines()
        top = repr(EDGE_VALUES[0])
        assert out[2] == f"2,0.4,{top}"
        assert out[-1].startswith("0.4,") and out[-1].endswith(f",{top}")
        assert "inf" not in "".join(out)


class TestGridOptions:
    @pytest.mark.parametrize("model, option", [
        ("generalized", ["--grid-n", "8"]),
        ("shifted", ["--bounds=-1,1"]),
    ])
    def test_grid_options_need_classical_model(self, generalized_json, shift_json,
                                               model, option, capsys):
        agents = generalized_json if model == "generalized" else shift_json
        code = main(["simulate", "--model", model, "--agents", agents, "--history", "1", *option])
        assert code == 1
        assert "--model classical" in capsys.readouterr().err

    def test_malformed_bounds_named(self, agents_csv, capsys):
        code = main(["simulate", "--agents", agents_csv, "--grid-n", "8", "--bounds", "0",
                     "--history", "1"])
        assert code == 2
        assert "--bounds" in capsys.readouterr().err

    def test_empty_bounds_named(self, agents_csv, capsys):
        # an empty value is a malformed --bounds, not an absent one
        code = main(["simulate", "--agents", agents_csv, "--grid-n", "8", "--bounds", "",
                     "--history", "4"])
        assert code == 2
        assert "bad --bounds value '': expected LO,HI" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # numpy warns on binning with a non-finite bound
    @pytest.mark.parametrize("bounds, shown", [
        ("nan,1", "nan, 1.0"), ("0,nan", "0.0, nan"), ("-inf,1", "-inf, 1.0"),
        ("-inf,5", "-inf, 5.0"), ("-1e308,1e308", "-1e+308, 1e+308"),
    ])
    def test_non_finite_bounds_rejected_before_binning(self, agents_csv, capsys, bounds, shown):
        code = main(["simulate", "--agents", agents_csv, "--grid-n", "8", f"--bounds={bounds}",
                     "--history", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"preisach: error: invalid bounds ({shown})\n"

    @pytest.mark.filterwarnings("error")  # numpy warned on binning with a zero cell width
    @pytest.mark.parametrize("grid_n, bounds, shown", [
        ("4", "0,5e-324", "0.0, 5e-324"),  # the cell width underflows to 0
        ("4", "1e16,10000000000000004", "1e+16, 1.0000000000000004e+16"),  # 3 distinct centers
        ("64", "1e16,1.0000000000000064e16", "1e+16, 1.0000000000000064e+16"),  # 33 of 64
    ])
    def test_bounds_too_narrow_for_the_cells_rejected(self, agents_csv, capsys, grid_n, bounds,
                                                       shown):
        code = main(["simulate", "--agents", agents_csv, "--grid-n", grid_n, f"--bounds={bounds}",
                     "--history", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"preisach: error: invalid bounds ({shown})\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["simulate", "--history", "1,0"],
        ["decompose", "--history", "1,0.4"],
        ["chord", "--u-minus", "0", "--u-plus", "1", "--at", "0.4"],
    ], ids=["simulate", "decompose", "chord"])
    def test_capacity_near_the_float_range_reads_as_direct(self, tmp_path, argv):
        # a valid relay whose doubled capacity is past the float range: grid outputs
        # round the exact sum before doubling, as direct ones do, and only the chord,
        # twice the flipped capacity, is inf on both routes
        path = tmp_path / "agents.csv"
        path.write_text("alpha,beta,nu\n0.5,0.25,1e308\n")
        texts = []
        for grid in ([], ["--grid-n", "4", "--bounds", "0,1"]):
            out = tmp_path / f"out{len(grid)}.csv"
            assert main([argv[0], "--agents", str(path), *grid, *argv[1:],
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[1] == texts[0]
        assert ("inf" in texts[0]) == (argv[0] == "chord")

    def test_grid_that_cannot_be_allocated_exits_2(self, agents_csv, capsys, monkeypatch):
        # every large allocation is refused, so no size that might succeed is ever tried
        zeros = np.zeros

        def refuse(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                raise MemoryError
            return zeros(shape, *args, **kwargs)
        monkeypatch.setattr(preisach.classical.np, "zeros", refuse)
        code = main(["simulate", "--agents", agents_csv, "--grid-n", "100000", "--bounds", "0,3",
                     "--history", "2"])
        assert code == 2
        assert capsys.readouterr().err == ("preisach: error: grid n=100000 is too large: "
                                           "its table needs 40001200008 bytes\n")

    def test_default_bounds_miss_the_input(self, agents_csv, capsys):
        # the agents span [0, 3]; the input climbs to 4
        code = main(["simulate", "--agents", agents_csv, "--grid-n", "8", "--history", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "out of triangle T" in err and "--bounds LO,HI" in err


SUBCOMMAND_OPTIONS = {
    "simulate": {"model", "agents", "grid-n", "bounds", "input", "history", "start",
                 "memory-in", "memory-out", "out"},
    "decompose": {"model", "agents", "grid-n", "bounds", "input", "history", "start",
                  "memory-in", "memory-out", "out"},
    "loop": {"model", "agents", "grid-n", "bounds", "input", "history", "start", "tol", "out",
             "u-minus", "u-plus", "n-points"},
    "chord": {"model", "agents", "grid-n", "bounds", "out", "u-minus", "u-plus", "n-points",
              "at"},
    "verify": {"model", "agents", "grid-n", "bounds", "tol", "out", "seed"},
}


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
    def test_each_subcommand_takes_only_the_options_it_reads(self, command, capsys):
        parser = build_parser()
        required = ["--agents", "a.csv", "--u-minus", "0", "--u-plus", "1"]
        if command in ("simulate", "decompose", "verify"):
            required = required[:2]
        for option in sorted(set().union(*SUBCOMMAND_OPTIONS.values())):
            argv = [command, *required, f"--{option}", "classical" if option == "model" else "1"]
            if option in SUBCOMMAND_OPTIONS[command]:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 1, option

    def test_loop_rejects_memory_out(self, agents_csv, tmp_path):
        mem = tmp_path / "m.json"
        code = main(["loop", "--agents", agents_csv, "--history", "3", "--u-minus", "0.5",
                     "--u-plus", "2.5", "--memory-out", str(mem)])
        assert code == 1
        assert not mem.exists()

    @pytest.mark.parametrize("option", [
        ["--memory-in", "missing.json"], ["--history", "9,1"], ["--tol", "5"],
    ])
    def test_chord_rejects_options_it_ignored(self, agents_csv, option, capsys):
        code = main(["chord", "--agents", agents_csv, "--u-minus", "0.5", "--u-plus", "2.5",
                     *option])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--input", "missing.csv"], ["--start", "7"]])
    def test_verify_rejects_input_options(self, agents_csv, option):
        assert main(["verify", "--agents", agents_csv, *option]) == 1

    def test_chord_at_rejects_n_points(self, agents_csv, capsys):
        code = main(["chord", "--agents", agents_csv, "--u-minus", "0.5", "--u-plus", "2.5",
                     "--at", "1.5", "--n-points", "7"])
        assert code == 1
        assert "--n-points does not apply with --at" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "decompose"])
    def test_memory_in_rejects_start(self, agents_csv, tmp_path, command, capsys):
        mem = tmp_path / "m.json"
        assert main(["simulate", "--agents", agents_csv, "--history", "3.0,0.5",
                     "--memory-out", str(mem), "--out", str(tmp_path / "a.csv")]) == 0
        out = tmp_path / "b.csv"
        code = main([command, "--agents", agents_csv, "--history", "2.5",
                     "--memory-in", str(mem), "--start", "9", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "--start does not apply with --memory-in" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv, message", [
        ("simulate", ["--input", "s.csv", "--history", "1"], "not both"),
        ("decompose", ["--input", "s.csv", "--history", "1"], "not both"),
        ("loop", ["--input", "s.csv", "--history", "1", "--u-minus", "0", "--u-plus", "1"],
         "not both"),
        ("simulate", [], "an input is required"),
        ("decompose", [], "an input is required"),
    ], ids=["simulate-both", "decompose-both", "loop-both", "simulate-neither",
            "decompose-neither"])
    def test_input_options_are_usage_errors(self, tmp_path, capsys, command, argv, message):
        # no agent file exists: the usage error is reported before it is read
        code = main([command, "--agents", str(tmp_path / "missing.csv"), *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "missing.csv" not in err

    def test_bounds_without_grid_n_is_a_usage_error(self, agents_csv, capsys):
        code = main(["simulate", "--agents", agents_csv, "--bounds", "0,1", "--history", "2.5"])
        assert code == 1
        assert "--grid-n" in capsys.readouterr().err


class TestValuesStartingWithADash:
    @pytest.mark.parametrize("option, value, rest", [
        ("--history", "-1.5,1.2", []),
        ("--hist", "-1.5,1.2", []),
        ("--bounds", "-1,5", ["--grid-n", "8", "--history", "2,1"]),
        ("--start", "-5e-1", ["--history", "2,1"]),
    ])
    def test_space_form_equals_the_equals_form(self, agents_csv, tmp_path, option, value, rest):
        outs = []
        for form in ([option, value], [f"{option}={value}"]):
            out = tmp_path / f"run{len(outs)}.csv"
            assert main(["simulate", "--agents", agents_csv, *rest, *form,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_an_option_is_not_taken_as_a_value(self, agents_csv, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--agents", agents_csv, "--history", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "argument --history: expected one argument" in capsys.readouterr().err


class TestLoop:
    def test_endpoint_chords_are_zero(self, agents_csv, tmp_path):
        out = tmp_path / "loop.csv"
        code = main(
            [
                "loop", "--agents", agents_csv, "--history", "3",
                "--u-minus", "0.5", "--u-plus", "2.5", "--n-points", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["u", "f_ascending", "f_descending", "chord"]
        assert rows[0][3] == 0.0 and rows[-1][3] == 0.0

    def test_chord_column_equals_branch_gap(self, agents_csv, tmp_path):
        out = tmp_path / "loop.csv"
        main(
            [
                "loop", "--agents", agents_csv, "--history", "3",
                "--u-minus", "0.5", "--u-plus", "2.5", "--n-points", "21",
                "--out", str(out),
            ]
        )
        _, rows = read_rows(out)
        for u, fa, fd, chord in rows:
            assert chord == pytest.approx(fd - fa, abs=1e-12)

    def test_chord_column_history_invariant(self, agents_csv, tmp_path):
        chords = []
        for name, hist in (("h1.csv", "3"), ("h2.csv", "2.6,1.2,2.2")):
            out = tmp_path / name
            main(
                [
                    "loop", "--agents", agents_csv, "--history", hist,
                    "--u-minus", "0.5", "--u-plus", "2.5", "--n-points", "21",
                    "--out", str(out),
                ]
            )
            _, rows = read_rows(out)
            chords.append([r[3] for r in rows])
        assert chords[0] == chords[1]

    def test_non_finite_start_reads_the_same_from_either_input(self, agents_csv, tmp_path,
                                                               capsys):
        series = tmp_path / "series.csv"
        series.write_text("time,u\n0,0.0\n1,3.0\n")
        errs = []
        for command in (["loop", "--u-minus", "0.5", "--u-plus", "2.5"], ["simulate"],
                        ["decompose"]):
            for given in (["--input", str(series)], ["--history", "3"]):
                assert main([*command, "--agents", agents_csv, *given, "--start", "inf"]) == 2
                errs.append(capsys.readouterr().err)
        message = "invalid reversal sequence: start value is not finite"
        assert errs == [f"preisach: error: {message}\n"] * 6

    def test_input_series_loops_as_its_reversals(self, agents_csv, tmp_path):
        # a leading sample at the start value, plateaus and monotone runs reduce to
        # the reversals 3.2, 1.2, 2.2; the agent (3, 0) stays UP only past 3
        series = tmp_path / "series.csv"
        series.write_text("time,u\n0,0.0\n1,1.0\n2,1.0\n3,2.6\n4,3.2\n5,2.0\n6,1.2\n"
                          "7,1.2\n8,1.5\n9,2.2\n")
        cycle = ["--u-minus", "0.5", "--u-plus", "2.5", "--n-points", "21"]
        outs = []
        for name, given in (("input.csv", ["--input", str(series)]),
                            ("history.csv", ["--history", "3.2,1.2,2.2"]),
                            ("cut.csv", ["--history", "2.6,1.2,2.2"])):
            outs.append(tmp_path / name)
            assert main(["loop", "--agents", agents_csv, *given, *cycle,
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()

    def test_uniform_fixture_analytic_chord_profile(self, tmp_path):
        n = 48
        grid = uniform_grid(1.0, n, (0.0, 1.0))
        mass = cell_masses(grid)
        rows_idx, cols_idx = np.nonzero(mass)
        lines = ["alpha,beta,nu"] + [
            f"{float(grid.centers[i])!r},{float(grid.centers[j])!r},{float(mass[i, j])!r}"
            for i, j in zip(rows_idx, cols_idx)
        ]
        agents = tmp_path / "uniform.csv"
        agents.write_text("\n".join(lines) + "\n")
        out = tmp_path / "loop.csv"
        code = main(
            [
                "loop", "--agents", str(agents), "--history", "1.0,0.0",
                "--u-minus", "0.0", "--u-plus", "1.0", "--n-points", "11",
                "--start", "0.0", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        for u, _, _, chord in rows:
            assert chord == pytest.approx(2.0 * u * (1.0 - u), abs=6.0 / n)

    def test_cycle_outside_grid_support_rejected(self, agents_csv, tmp_path, capsys):
        code = main(
            [
                "loop", "--agents", agents_csv, "--grid-n", "8", "--bounds", "0,3",
                "--history", "3", "--u-minus", "0.5", "--u-plus", "4.0",
                "--out", str(tmp_path / "loop.csv"),
            ]
        )
        assert code == 2
        assert "out of triangle T" in capsys.readouterr().err

    def test_generalized_loop_runs(self, generalized_json, tmp_path):
        out = tmp_path / "loop.csv"
        code = main(
            [
                "loop", "--model", "generalized", "--agents", generalized_json,
                "--history", "2.5,-0.6", "--start", "-3",
                "--u-minus", "-0.5", "--u-plus", "0.5", "--n-points", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        for u, fa, fd, chord in rows:
            assert chord == pytest.approx(fd - fa, abs=1e-12)

    LARGE_LOOP = ["loop", "--grid-n", "64", "--bounds", "0,1", "--history", "0.9,0.1,0.7,0.3",
                  "--u-minus", "0.2", "--u-plus", "0.8"]

    def test_large_capacities_judge_the_chord_at_scale(self, large_agents_csv, tmp_path,
                                                        capsys):
        # outputs near 1e9: the two chord routes differ by rounding alone
        out = tmp_path / "loop.csv"
        assert main([*self.LARGE_LOOP, "--agents", large_agents_csv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_rows(out)[0] == ["u", "f_ascending", "f_descending", "chord"]

    def test_relative_chord_error_still_warns(self, large_agents_csv, tmp_path, monkeypatch,
                                              capsys):
        chord = preisach.classical.WeightGrid.chord
        monkeypatch.setattr(preisach.classical.WeightGrid, "chord",
                            lambda *args: chord(*args) * (1 + 1e-9))
        out = tmp_path / "loop.csv"
        assert main([*self.LARGE_LOOP, "--agents", large_agents_csv, "--out", str(out)]) == 0
        assert "warning: chord mismatch" in capsys.readouterr().err
        assert read_rows(out)[0][-1] == "chord_formula"


    HUGE_LOOP = ["loop", "--u-minus", "0.2", "--u-plus", "0.6", "--n-points", "5"]

    @pytest.mark.filterwarnings("error")
    def test_equal_infinite_chords_agree(self, huge_relay_csv, tmp_path, capsys):
        out = tmp_path / "loop.csv"
        assert main([*self.HUGE_LOOP, "--agents", huge_relay_csv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_rows(out)
        assert header == ["u", "f_ascending", "f_descending", "chord"]
        assert [(u, chord) for u, _, _, chord in rows] == [
            (0.2, 0.0), (0.3, math.inf), (0.4, math.inf), (0.5, 0.0), (0.6, 0.0)]

    @pytest.mark.filterwarnings("error")
    def test_one_infinite_chord_still_warns(self, huge_relay_csv, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(preisach.classical.AgentPopulation, "chord",
                            lambda *args: 0.0)
        out = tmp_path / "loop.csv"
        assert main([*self.HUGE_LOOP, "--agents", huge_relay_csv, "--out", str(out)]) == 0
        assert "warning: chord mismatch up to inf" in capsys.readouterr().err
        assert read_rows(out)[0][-1] == "chord_formula"


class TestChord:
    def test_single_probe(self, agents_csv, tmp_path):
        out = tmp_path / "chord.csv"
        code = main(
            [
                "chord", "--agents", agents_csv,
                "--u-minus", "0.5", "--u-plus", "2.5", "--at", "1.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        assert rows == [[1.5, 2.0]]

    def test_profile_endpoints_zero(self, agents_csv, tmp_path):
        out = tmp_path / "chord.csv"
        main(
            [
                "chord", "--agents", agents_csv,
                "--u-minus", "0.5", "--u-plus", "2.5", "--n-points", "5",
                "--out", str(out),
            ]
        )
        _, rows = read_rows(out)
        assert rows[0][1] == 0.0 and rows[-1][1] == 0.0


# Each bad cycle, the stderr line it gets, and whether it can go with --at.
BAD_CYCLES = {
    "reversed": (["--u-minus", "0.9", "--u-plus", "0.1"], "empty cycle: [0.9, 0.1]", True),
    "point": (["--u-minus", "0.5", "--u-plus", "0.5"], "empty cycle: [0.5, 0.5]", True),
    "nan": (["--u-minus", "nan", "--u-plus", "0.9"], "cycle bounds must be finite", True),
    "inf": (["--u-minus", "0.1", "--u-plus", "inf"], "cycle bounds must be finite", True),
    "zero-points": (["--u-minus", "0.1", "--u-plus", "0.9", "--n-points", "0"],
                    "n_points must be at least 2", False),
    "one-point": (["--u-minus", "0.1", "--u-plus", "0.9", "--n-points", "1"],
                  "n_points must be at least 2", False),
    "negative-points": (["--u-minus", "0.1", "--u-plus", "0.9", "--n-points", "-1"],
                        "n_points must be at least 2", False),
}


class TestBadCycle:
    @pytest.mark.parametrize("case", sorted(BAD_CYCLES))
    @pytest.mark.parametrize("command", [["chord"], ["chord", "--grid-n", "8"], ["loop"],
                                         ["loop", "--grid-n", "8"]], ids=" ".join)
    def test_rejected_with_exit_2(self, agents_csv, tmp_path, capsys, command, case):
        bounds, message, _ = BAD_CYCLES[case]
        out = tmp_path / "out.csv"
        code = main([*command, "--agents", agents_csv, *bounds, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"preisach: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(k for k, v in BAD_CYCLES.items() if v[2]))
    @pytest.mark.parametrize("grid", [[], ["--grid-n", "8"]], ids=["direct", "grid"])
    def test_rejected_with_a_probe(self, agents_csv, capsys, grid, case):
        bounds, message, _ = BAD_CYCLES[case]
        code = main(["chord", "--agents", agents_csv, *grid, *bounds, "--at", "0.5"])
        assert (code, capsys.readouterr().err) == (2, f"preisach: error: {message}\n")


class TestDecompose:
    def test_rows_reconstruct_total(self, agents_csv, tmp_path):
        out = tmp_path / "dec.csv"
        code = main(
            ["decompose", "--agents", agents_csv, "--history", "2.5,0.5,1.8", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["u", "f_irreversible", "G", "F", "f_total"]
        for u, irr, g, f, total in rows:
            assert total == pytest.approx(irr + g + f, abs=1e-12)

    def test_total_column_matches_simulate(self, agents_csv, tmp_path):
        dec = tmp_path / "dec.csv"
        sim = tmp_path / "sim.csv"
        main(["decompose", "--agents", agents_csv, "--history", "2.5,0.5,1.8", "--out", str(dec)])
        main(["simulate", "--agents", agents_csv, "--history", "2.5,0.5,1.8", "--out", str(sim)])
        _, dec_rows = read_rows(dec)
        _, sim_rows = read_rows(sim)
        for d, s in zip(dec_rows, sim_rows):
            assert d[4] == pytest.approx(s[2], abs=1e-12)

    def test_zero_shift_matches_classical_columns(self, agents_csv, tmp_path):
        shift = tmp_path / "zero_shift.json"
        shift.write_text(
            json.dumps(
                {
                    "agents": [
                        {"alpha": 2.0, "beta": 1.0, "nu": 1.0},
                        {"alpha": 3.0, "beta": 0.0, "nu": 2.0},
                    ],
                    "g1": [[0.0, 0.0]],
                    "g2": [[0.0, 0.0]],
                }
            )
        )
        out_classical = tmp_path / "c.csv"
        out_shift = tmp_path / "s.csv"
        main(["decompose", "--agents", agents_csv, "--history", "2.5,0.5", "--out", str(out_classical)])
        main(
            [
                "decompose", "--model", "shifted", "--agents", str(shift),
                "--history", "2.5,0.5", "--out", str(out_shift),
            ]
        )
        _, c_rows = read_rows(out_classical)
        _, s_rows = read_rows(out_shift)
        for c, s in zip(c_rows, s_rows):
            assert c == pytest.approx(s, abs=1e-12)

    def test_shifted_simulate_emits_the_band_column(self, shift_json, tmp_path):
        sim, dec = tmp_path / "sim.csv", tmp_path / "dec.csv"
        for command, out in (("simulate", sim), ("decompose", dec)):
            assert main([command, "--model", "shifted", "--agents", shift_json, "--start", "-2",
                         "--history", "1.5,-0.8,0.9,-0.3", "--out", str(out)]) == 0
        f = [line.split(",")[2] for line in sim.read_text().splitlines()[1:]]
        irreversible = [line.split(",")[1] for line in dec.read_text().splitlines()[1:]]
        assert f == irreversible

    def test_fully_reversible_population_has_zero_band(self, tmp_path):
        steps = tmp_path / "steps.csv"
        steps.write_text("alpha,beta,nu\n1,1,1\n0.5,0.5,2\n")
        out = tmp_path / "dec.csv"
        main(["decompose", "--agents", str(steps), "--history", "1.5,0.2,0.7", "--out", str(out)])
        _, rows = read_rows(out)
        assert all(r[1] == 0.0 for r in rows)


class TestMemoryRoundTrip:
    @pytest.mark.parametrize("model_args", [
        (),
        ("--grid-n", "16", "--bounds", "0,3"),
    ])
    def test_split_run_equals_combined_run(self, agents_csv, tmp_path, model_args):
        mem = tmp_path / "mem.json"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        combined = tmp_path / "combined.csv"
        base = ["simulate", "--agents", agents_csv, *model_args]
        main([*base, "--history", "3.0,0.5", "--memory-out", str(mem), "--out", str(first)])
        main([*base, "--history", "2.5,1.2", "--memory-in", str(mem), "--out", str(second)])
        main([*base, "--history", "3.0,0.5,2.5,1.2", "--out", str(combined)])
        _, second_rows = read_rows(second)
        _, combined_rows = read_rows(combined)
        assert [r[1:] for r in second_rows] == [r[1:] for r in combined_rows[2:]]

    def test_shifted_model_round_trip(self, shift_json, tmp_path):
        mem = tmp_path / "mem.json"
        second = tmp_path / "second.csv"
        combined = tmp_path / "combined.csv"
        base = ["simulate", "--model", "shifted", "--agents", shift_json, "--start", "-2"]
        main([*base, "--history", "1.5,-0.8", "--memory-out", str(mem)])
        main(
            ["simulate", "--model", "shifted", "--agents", shift_json,
             "--history", "0.9,-0.3", "--memory-in", str(mem), "--out", str(second)]
        )
        main([*base, "--history", "1.5,-0.8,0.9,-0.3", "--out", str(combined)])
        _, second_rows = read_rows(second)
        _, combined_rows = read_rows(combined)
        assert [r[1:] for r in second_rows] == [r[1:] for r in combined_rows[2:]]

    @pytest.mark.parametrize("command", ["simulate", "decompose"])
    def test_bad_resumed_history_names_the_memory(self, agents_csv, tmp_path, command, capsys):
        # the sequence's own message, then the option, the file and the value it continues
        mem = tmp_path / "m.json"
        assert main(["simulate", "--agents", agents_csv, "--history", "3.0,0.2",
                     "--memory-out", str(mem), "--out", str(tmp_path / "a.csv")]) == 0
        assert main([command, "--agents", agents_csv, "--memory-in", str(mem),
                     "--history", "0.2,0.5"]) == 2
        assert capsys.readouterr().err == (
            "preisach: error: invalid reversal sequence: violation at index 0: repeats "
            f"previous value; --history continues {mem}, whose current input is 0.2\n")


class TestVerify:
    def test_classical_fixture_passes(self, agents_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--agents", agents_csv, "--out", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "erasure-soundness" in out and "congruency" in out
        results = json.loads(report.read_text())
        assert all(r["passed"] for r in results)

    def test_generalized_fixture_reports_incongruence_witness(self, generalized_json, capsys):
        code = main(["verify", "--model", "generalized", "--agents", generalized_json])
        assert code == 0
        out = capsys.readouterr().out
        assert "equal-chords" in out and "reconstruction" in out
        assert "incongruent loops observed" in out

    def test_shifted_fixture_passes(self, shift_json, capsys):
        code = main(["verify", "--model", "shifted", "--agents", shift_json])
        assert code == 0
        assert "shift-equivalence" in capsys.readouterr().out

    def test_large_capacities_pass_at_default_tolerance(self, large_agents_csv, capsys):
        # outputs near 1e9: rounding alone gives deviations far above 1e-12
        assert main(["verify", "--agents", large_agents_csv]) == 0
        assert "PASS  congruency" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_congruency_past_the_float_range(self, huge_relay_csv, capsys):
        code = main(["verify", "--agents", huge_relay_csv, "--grid-n", "4", "--bounds", "0,1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "PASS  congruency: max deviation 0.000e+00" in captured.out

    def test_relative_error_in_one_loop_fails_at_scale(self, large_agents_csv, monkeypatch,
                                                       capsys):
        minor_loop = preisach.verify.minor_loop
        calls = []

        def off_by_1e9(*args):
            loop = minor_loop(*args)
            calls.append(loop)
            if len(calls) % 2 == 0:
                loop.f_ascending *= 1 + 1e-9
                loop.f_descending *= 1 + 1e-9
            return loop

        monkeypatch.setattr(preisach.verify, "minor_loop", off_by_1e9)
        assert main(["verify", "--agents", large_agents_csv]) == 3
        assert "FAIL  congruency" in capsys.readouterr().out

    @pytest.mark.parametrize("model, owner, name, check", [
        ("generalized", preisach.verify, "eval_generalized", "reconstruction"),
        ("shifted", preisach.verify, "eval_generalized", "shift-equivalence"),
        ("generalized", preisach.generalized.GeneralizedPopulation, "parts", "reconstruction"),
    ])
    def test_relative_error_in_one_route_fails(self, generalized_json, shift_json, model,
                                               owner, name, check, monkeypatch, capsys):
        route = getattr(owner, name)
        # np.multiply scales a route's output, or each of its parts
        monkeypatch.setattr(owner, name, lambda *args: np.multiply(route(*args), 1 + 1e-9))
        agents = generalized_json if model == "generalized" else shift_json
        assert main(["verify", "--model", model, "--agents", agents]) == 3
        assert f"FAIL  {check}" in capsys.readouterr().out

    def test_shift_equivalence_catches_a_resume_without_compare_maps(self, shift_json,
                                                                     monkeypatch, capsys):
        start = preisach.classical._RelaySimulator.__init__

        def start_with_identity_maps(sim, model, memory):
            start(sim, model, memory)
            sim.states = model.base.fold(memory.steps())  # only the resumed route breaks

        monkeypatch.setattr(preisach.classical._RelaySimulator, "__init__",
                            start_with_identity_maps)
        assert main(["verify", "--model", "shifted", "--agents", shift_json]) == 3
        assert "FAIL  shift-equivalence" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["verify", "loop"])
    def test_tolerance_must_be_finite_and_non_negative(self, agents_csv, capsys, command, tol):
        cycle = ["--u-minus", "0.5", "--u-plus", "2.5"] if command == "loop" else []
        code = main([command, "--agents", agents_csv, *cycle, f"--tol={tol}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.endswith("preisach: error: --tol must be finite and at least 0\n")

    def test_negative_seed_is_a_usage_error(self, agents_csv, capsys):
        code = main(["verify", "--agents", agents_csv, "--seed", "-3"])
        assert code == 1
        assert capsys.readouterr().err.endswith("preisach: error: --seed must be at least 0\n")

    @pytest.mark.parametrize("model, name, text", [
        ("classical", "agents.csv", "alpha,beta,nu\n0.5,0.5,1\n0.5,0.5,2\n"),
        ("generalized", "soft.json",
         '[{"alpha": 0.5, "beta": 0.5, "f_plus": [[0.5, -1.0]], "f_minus": [[0.5, 1.0]]}]'),
        ("shifted", "shift.json", '{"agents": [{"alpha": 0.5, "beta": 0.5, "nu": 1.0}], '
                                  '"g1": [[0.0, 0.1]], "g2": [[0.0, 0.0]]}'),
    ], ids=["classical", "generalized", "shifted"])
    def test_thresholds_at_one_value_pass(self, tmp_path, capsys, model, name, text):
        # the support is one point; random cycles and histories need a span
        path = tmp_path / name
        path.write_text(text)
        assert main(["verify", "--model", model, "--agents", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) >= 2 and all(line.startswith("PASS  ") for line in lines)

    def test_zero_tolerance_is_allowed(self, agents_csv):
        assert main(["verify", "--agents", agents_csv, "--tol", "0"]) == 0

    def test_impossible_tolerance_fails_with_exit_3(self, generalized_json, capsys):
        code = main(
            ["verify", "--model", "generalized", "--agents", generalized_json, "--tol", "1e-30"]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


FUZZ_AGENTS = "alpha,beta,nu\n0.5,0.1,1\n0.7,0.2,2\n"
# each file kind: its clean text and the call that reads it, ``{f}`` standing for the
# (damaged) file and ``{a}`` for a clean agent CSV; no damage can make a memory's input
# 0.4375, so the history that follows it never repeats it and a failure is the memory's
FUZZ_FILES = {
    "agents": (FUZZ_AGENTS, ["simulate", "--agents", "{f}", "--history", "0.6,0.15"]),
    "series": ("time,u\n0,0.1\n1,0.6\n2,0.2\n", ["simulate", "--agents", "{a}", "--input", "{f}"]),
    "soft": (json.dumps([{"alpha": 0.5, "beta": 0.1, "f_plus": [[0.0, -1.0], [1.0, 0.0]],
                          "f_minus": [[0.0, 0.0], [1.0, 1.0]]}]),
             ["simulate", "--model", "generalized", "--agents", "{f}", "--history", "0.6,0.15"]),
    "shift": (json.dumps({"agents": [{"alpha": 0.5, "beta": 0.1, "nu": 1.0}],
                          "g1": [[0.0, 0.1], [1.0, 0.2]], "g2": [[0.0, 0.0], [1.0, 0.1]]}),
              ["simulate", "--model", "shifted", "--agents", "{f}", "--history", "0.6,0.15"]),
    "memory": (json.dumps({"start_u": 0.0, "pairs": [[0.7, 0.2]], "current_u": 0.2,
                           "trend": "falling"}),
               ["simulate", "--agents", "{a}", "--memory-in", "{f}", "--history", "0.4375"]),
}
NUMBER = re.compile(rb"-?\d+(\.\d+)?")


@st.composite
def damaged_file(draw):
    """``(kind, bytes)``: a clean file of one kind, truncated at a drawn byte, with two
    comma-separated fields swapped, with a byte that is not UTF-8 put in, emptied, or with
    some of its numbers replaced by values past or near the float range."""
    kind = draw(st.sampled_from(sorted(FUZZ_FILES)))
    data = FUZZ_FILES[kind][0].encode()
    damage = draw(st.sampled_from(["truncate", "swap", "not-utf8", "empty", "huge"]))
    if damage == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif damage == "swap":
        fields = data.split(b",")
        i, j = (draw(st.integers(0, len(fields) - 1)) for _ in range(2))
        fields[i], fields[j] = fields[j], fields[i]
        data = b",".join(fields)
    elif damage == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    elif damage == "empty":
        data = b""
    else:
        spans = [m.span() for m in NUMBER.finditer(data)]
        for lo, hi in sorted(draw(st.sets(st.sampled_from(spans), min_size=1)), reverse=True):
            value = draw(st.sampled_from([b"1e400", b"-1e400", b"1.7e308", b"-1.7e308"]))
            data = data[:lo] + value + data[hi:]
    return kind, data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=damaged_file())
@example(case=("memory", b'{"start_u": 0.0, "pairs": [], "current_u": 1e400, "trend": "x"}'))
@example(case=("agents", b"alpha,beta,nu\n0.5,0.1,1.7e308\n0.7,0.2,1.7e308\n"))
@example(case=("series", b"time,u\n0,0.1\n1,0.6,extra\n2\n"))
@example(case=("soft", b'[{"alpha": 0.5, "beta": -1.7e308, "f_plus": [[0.0, -1.7e308], [1.0, 0.0]],'
                       b' "f_minus": [[0.0, 0.0], [1.0, 1.0]]}]'))
def test_damaged_file_exits_0_or_2_naming_itself(case):
    kind, data = case
    argv = FUZZ_FILES[kind][1]
    with tempfile.TemporaryDirectory() as tmp:
        path, agents = os.path.join(tmp, f"{kind}.damaged"), os.path.join(tmp, "agents.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with open(agents, "w") as fh:
            fh.write(FUZZ_AGENTS)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(f=path, a=agents) for arg in argv])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert path in err.getvalue()

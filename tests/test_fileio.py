"""The one-pass readers against loops over their rows or agents.

``read_agents_csv`` and ``read_series_csv`` parse a whole file once and check
it with the model's one rule, naming the line at fault; their oracles are
loops over rows in plain Python (``helpers.agents_by_row`` and
``helpers.series_by_row``). ``read_generalized_json`` reads each agent's
fields in one loop and checks them all with one rule; its oracle is a loop
over agents in plain Python (``helpers.soft_agents_by_loop``). Whatever the
file, the public reader must return exactly what the loop returns, or raise
exactly its message. The draws are derandomized one-decimal values with odd
cells, lines and knots mixed in.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import preisach.classical
from helpers import agents_by_row, series_by_row, soft_agents_by_loop
from preisach import AgentPopulation, GeneralizedPopulation, SampledSeries, fileio

LOADERS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

tenths = st.integers(-15, 15).map(lambda k: k / 10)
ODD_CELLS = ("nan", "inf", "-inf", "1_000", "١٢", "１２", '"0.5"', "#0.5", " 0.5 ", "",
             "x", "-0.0", "1e400")
ODD_LINES = ("", "   ", "# note", ",,", "0.5,0.1,1 # note")
AGENT = {"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, -1.0], [1.0, 0.0]],
         "f_minus": [[0.0, 0.0], [1.0, 1.0]]}
LONG = {"alpha": 0.5, "beta": -0.5,
        **{key: [[u, u + lift] for u in np.linspace(-1.0, 1.0, 2000).tolist()]
           for key, lift in (("f_plus", -1.0), ("f_minus", 1.0))}}
# two of these overflow the running total of the largest branch values
HUGE = {"alpha": 0.75, "beta": 0.25, "f_plus": [[0.0, 6e307]], "f_minus": [[0.0, 6e307]]}
ODD_VALUES = ("0.5", None, True, False, [0.5], {"u": 0.5})


@st.composite
def csv_text(draw, clean_row, header):
    """A header, then rows that are mostly ``clean_row(i)`` with one oddity now and then."""
    lines = []
    for i in range(draw(st.integers(0, 5))):
        cells = draw(clean_row(i))
        odd = draw(st.integers(0, 9))
        if odd == 1:
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        if odd == 2:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif odd == 3:
            cells = cells + [repr(draw(tenths))]
        elif odd == 4:
            cells = cells[:-1]
        elif odd == 5:
            cells = [f" {cell} " for cell in cells]
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return "".join(line + eol for line in [header, *lines])


def agent_row(i):
    # about half the rows order alpha >= beta and keep nu >= 0
    return st.tuples(tenths, tenths, tenths, st.booleans()).map(
        lambda t: [repr(x) for x in ((max(t[:2]), min(t[:2]), abs(t[2])) if t[3] else t[:3])])


def series_row(i):
    return st.tuples(st.sampled_from((float(i), float(i), 0.0)), tenths).map(
        lambda t: [repr(x) for x in t])


def outcome(read, *args):
    """What a reader gives: its message, or the exact bytes of what it read."""
    try:
        result = read(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, SampledSeries):
        return np.array(result.times).tobytes(), np.array(result.values).tobytes()
    if isinstance(result, AgentPopulation):
        return tuple(a.tobytes() for a in (result.alpha, result.beta, result.nu))
    if isinstance(result, GeneralizedPopulation):
        # each branch table as knot counts and knots, agent after agent
        knots = [np.isfinite(t.us.T) for t in (result.f_plus, result.f_minus)]
        result = (result.alpha, result.beta, *((k.sum(1), t.us.T[k], t.fs.T[k]) for k, t in
                                               zip(knots, (result.f_plus, result.f_minus))))
    alpha, beta, *branches = result
    return alpha.tobytes(), beta.tobytes(), *(a.tobytes() for branch in branches for a in branch)


def same_outcome(text, read, by_row):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(read, path) == outcome(by_row, path)


@given(text=csv_text(agent_row, "alpha,beta,nu"))
@example(text="alpha,beta,nu\n")
@example(text="alpha,beta,nu\r\n0.5,0.1,1\r\n\r\n0.7,0.2,2\r\n")
@example(text="alpha,beta,nu\n0.5,0.1,1\nnan,0.1,1\n")
@example(text="alpha,beta,nu\n0.5,0.1,1\n0.5,0.1,-inf\n")
@example(text="alpha,beta,nu\n0.5,0.1,1\n0.1,0.5,1\n")
@example(text="alpha,beta,nu\n0.5,0.1,1\n0.5,0.1,-1\n")
@example(text="alpha,beta,nu\n0.5,0.1,1e308\n0.5,0.1,1\n0.5,0.1,1e308\n")
@example(text="alpha,beta,nu\n1_000,0.1,1\n")
@example(text="alpha,beta,nu\n0.5,0.1,1,extra\n")
@example(text='alpha,beta,nu\n"0.5",0.1,1\n#0.7,0.1,1\n')
# two faulty rows: the first is named, whatever its fault
@example(text="alpha,beta,nu\n0.5,0.1,-1\nnan,0.1,1\n")
@example(text="alpha,beta,nu\n0.1,0.5,1\n0.5,x,1\n")
@example(text="alpha,beta,nu\n0.5,x,1\n0.1,0.5,1\n")
@example(text="alpha,beta,nu\n0.5,0.1,1\n\n\n0.1,0.5,1\n")
@LOADERS
def test_agents_csv_matches_row_loop(text):
    same_outcome(text, fileio.read_agents_csv, agents_by_row)


@given(text=csv_text(series_row, "time,u"))
@example(text="time,u\n")
@example(text="time,u\n0,0.5\n1,inf\n")
@example(text="time,u\n0,0.5\n0,0.7\n")
@example(text="time,u\n0,0.5\n1,١٢\n")
@LOADERS
def test_series_csv_matches_row_loop(text):
    same_outcome(text, fileio.read_series_csv, series_by_row)


def test_clean_files_skip_the_row_loops(tmp_path, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(fileio, "_rows", no_loop)
    (tmp_path / "a.csv").write_text("alpha,beta,nu\n0.5,0.1,1\n0.7,0.7,0\n")
    (tmp_path / "s.csv").write_text("time,u,note\n0,0.5,1\n1,-0.5,2\n")
    (tmp_path / "g.json").write_text(json.dumps([AGENT, {**AGENT, "f_plus": [[0.3, -1.0]]}]))
    assert len(fileio.read_agents_csv(str(tmp_path / "a.csv"))) == 2
    assert fileio.read_series_csv(str(tmp_path / "s.csv")).values == (0.5, -0.5)
    assert len(fileio.read_generalized_json(str(tmp_path / "g.json"))) == 2


def test_clean_agent_file_is_checked_once(tmp_path, monkeypatch):
    calls = []
    relay_fault = preisach.classical._relay_fault

    def counted(*cols):
        calls.append(len(cols[0]))
        return relay_fault(*cols)

    for module in (preisach.classical, fileio):  # the population's binding and the reader's
        monkeypatch.setattr(module, "_relay_fault", counted)
    (tmp_path / "a.csv").write_text("alpha,beta,nu\n0.5,0.1,1\n0.7,0.7,0\n0.9,0.2,2\n")
    assert len(fileio.read_agents_csv(str(tmp_path / "a.csv"))) == 3
    assert calls == [3]


@st.composite
def soft_agent(draw):
    """One agent on the one-decimal grid: mostly valid, often tied, now and then malformed."""
    alpha, beta = draw(tenths), draw(tenths)
    if draw(st.integers(0, 5)):
        alpha, beta = max(alpha, beta), min(alpha, beta)
    entry = {"alpha": alpha, "beta": beta}
    base = draw(st.lists(tenths, min_size=1, max_size=4))
    us = sorted(set(base)) if draw(st.integers(0, 5)) else base
    plus = np.cumsum([draw(tenths) if draw(st.integers(0, 9)) == 0 else abs(draw(tenths))
                      for _ in us])
    lift = draw(st.sampled_from((0.0, 0.1, 0.5, 2.0, -0.1)))
    entry["f_plus"] = [[u, round(float(f), 10)] for u, f in zip(us, plus)]
    minus_us = us if draw(st.booleans()) else sorted(set(draw(st.lists(tenths, min_size=1,
                                                                        max_size=4))))
    entry["f_minus"] = [[u, round(float(np.interp(u, us, plus)) + lift, 10)] for u in minus_us]
    odd = draw(st.integers(0, 23))
    if odd == 1:
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif odd == 2:
        entry[draw(st.sampled_from(("alpha", "beta")))] = draw(st.sampled_from(ODD_VALUES))
    elif odd == 3:
        knots = entry[draw(st.sampled_from(("f_plus", "f_minus")))]
        k = draw(st.integers(0, len(knots) - 1))
        knots[k] = draw(st.sampled_from(([knots[k][0]], knots[k] + [0.0], knots[k][0],
                                         [knots[k][0], str(knots[k][1])],
                                         [knots[k][0], None], [True, knots[k][1]], "05")))
    elif odd == 4:
        entry[draw(st.sampled_from(("f_plus", "f_minus")))] = draw(st.sampled_from(
            ([], 0.5, "12", {"12": 3})))
    return entry


@given(agents=st.lists(soft_agent(), min_size=1, max_size=4))
# gap violated only at a knot inside the band
@example(agents=[AGENT, {"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, 0.0], [0.5, 1.0]],
                         "f_minus": [[0.5, 0.9], [1.0, 2.0]]}])
# gap violated only at a band edge, with no knot inside the band
@example(agents=[{"alpha": 1.0, "beta": 0.0, "f_plus": [[-1.0, -1.0], [2.0, 2.0]],
                  "f_minus": [[-1.0, 0.5], [2.0, 0.8]]}, AGENT])
@example(agents=[{"alpha": 1.0, "beta": 0.0, "f_plus": [[-1.0, -1.0], [2.0, 2.0]],
                  "f_minus": [[-1.0, -2.5], [2.0, 3.5]]}])
# single knots and knots tied with the thresholds
@example(agents=[{"alpha": 0.5, "beta": 0.5, "f_plus": [[0.5, -1.0]], "f_minus": [[0.5, 1.0]]},
                 {"alpha": 0.5, "beta": -0.5, "f_plus": [[-0.5, 0.0], [0.5, 0.0]],
                  "f_minus": [[-0.5, 0.0], [0.5, 0.0]]}])
# a fault of f_plus is named before a missing f_minus, and one of agent 0
# before agent 1's missing alpha
@example(agents=[{"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, 1.0], [1.0, 0.0]]}])
@example(agents=[{"alpha": 1.0, "beta": 0.0, "f_plus": [[-1.0, -1.0], [2.0, 2.0]],
                  "f_minus": [[-1.0, 0.5], [2.0, 0.8]]},
                 {key: value for key, value in AGENT.items() if key != "alpha"}])
# a step or slope fault of f_plus is named before an f_minus that cannot be read
@example(agents=[{"alpha": 1, "beta": 0, "f_plus": [[0, -5e307], [1e-10, 5e307]],
                  "f_minus": [[0, 1], [1]]}])
# one long branch among short ones, valid and with a gap fault from u = 0.45 up
@example(agents=[AGENT, LONG, AGENT])
@example(agents=[AGENT, {**LONG, "f_plus": [[u, f if u < 0.45 else 2.0]
                                            for u, f in LONG["f_plus"]]}, AGENT])
# the running total of the largest branch values overflows at agent 1: named after
# agent 1's gap fault, and before agent 2's gap fault and agent 2's missing alpha
@example(agents=[HUGE, HUGE])
@example(agents=[HUGE, {**HUGE, "f_minus": [[0.0, 5e307]]}])
@example(agents=[HUGE, HUGE, {"alpha": 1.0, "beta": 0.0, "f_plus": [[-1.0, -1.0], [2.0, 2.0]],
                              "f_minus": [[-1.0, 0.5], [2.0, 0.8]]}])
@example(agents=[HUGE, HUGE, {key: value for key, value in AGENT.items() if key != "alpha"}])
# a knot is a JSON array: a two-character string or a two-key object is not read as one
@example(agents=[AGENT, {**AGENT, "f_plus": ["05", "16"]}])
@example(agents=[{**AGENT, "f_minus": {"05": 1}}])
# signed zeros: the probe named is the first listed of equal ones
@example(agents=[{"alpha": 0.0, "beta": -0.0, "f_plus": [[-0.0, 1.0]], "f_minus": [[0.0, 0.5]]}])
@LOADERS
def test_soft_json_matches_agent_loop(agents):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "soft.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(agents, fh)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert (outcome(fileio.read_generalized_json, path)
                == outcome(soft_agents_by_loop, path, data))

"""The CLI byte corpus: seeded inputs for each model kind and the recorded
bytes of every CLI call on them.

``python tests/make_corpus.py`` rewrites ``tests/corpus/``:

* ``inputs/``: relay agents with non-dyadic capacities (run directly and
  binned into a 64 x 64 grid), a shift model, soft-branch agents, a sampled
  series, bad relay and soft-agent files, an agent and a series file whose
  headers name their columns out of order, one relay whose chord is past
  the float range, relays whose support is too wide for ``verify`` to sample,
  and soft agents whose knots are strings, not arrays;
* ``expected/manifest.json``: each call's argv, exit code and stderr, and
  the files it writes; ``expected/<case>.stdout`` and those files hold the
  bytes it wrote.

Histories land exactly on relay thresholds, on soft thresholds and branch
knots, and on the grid's cell edges (multiples of 1/64 on ``[0, 1]``) and
cell centres. Every call runs in-process with ``tests/corpus`` as the
working directory, so paths in messages are the relative ones in ``argv``;
``{out}`` in ``argv`` stands for the directory written files go to.
``tests/test_corpus.py`` re-runs each call and compares bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from preisach.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
INPUTS = CORPUS / "inputs"
EXPECTED = CORPUS / "expected"
SEED = 20261019


def _fmt(x: float) -> str:
    return repr(float(x))


def _relay_agents(rng) -> list[tuple[float, float, float]]:
    """48 agents on [0, 1]: thresholds on cell edges (k/64), on tenths, and
    random; capacities drawn uniformly, so sums of them are not exact."""
    rows = []
    for _ in range(16):
        b, a = np.sort(rng.integers(0, 65, 2))
        rows.append((a / 64, b / 64))
    for _ in range(16):
        b, a = np.sort(rng.integers(0, 11, 2))
        rows.append((a / 10, b / 10))
    for _ in range(16):
        b, a = np.sort(rng.uniform(0.0, 1.0, 2))
        rows.append((a, b))
    nus = rng.uniform(0.05, 2.0, len(rows))
    nus[:3] = 0.1, 1 / 3, 0.7
    return [(a, b, nu) for (a, b), nu in zip(rows, nus)]


def _soft_agents(rng) -> list[dict]:
    """12 agents on [-1, 1] with 2-4 shared knots per branch; ``f_minus`` is
    ``f_plus`` plus a non-negative lift, so it dominates everywhere."""
    agents = []
    for k in range(12):
        b, a = np.sort(rng.integers(-10, 11, 2)) / 10 if k < 6 else np.sort(rng.uniform(-1, 1, 2))
        m = int(rng.integers(2, 5))
        us = np.sort(rng.choice(np.arange(-15, 16) / 10, m, replace=False))
        base = np.sort(np.round(rng.uniform(-2.0, 0.5, m), 3))
        lift = np.maximum.accumulate(np.round(rng.uniform(0.05, 1.5, m), 3))
        agents.append({"alpha": float(a), "beta": float(b),
                       "f_plus": [[float(u), float(f)] for u, f in zip(us, base)],
                       "f_minus": [[float(u), float(f + d)] for u, f, d in zip(us, base, lift)]})
    return agents


def _shift_model(rng) -> dict:
    agents = [{"alpha": float(a), "beta": float(b), "nu": float(nu)}
              for a, b, nu in _relay_agents(rng)[:30]]
    for agent in agents:  # onto [-1, 1]
        agent["alpha"], agent["beta"] = 2 * agent["alpha"] - 1, 2 * agent["beta"] - 1
    return {"agents": agents,
            "g1": [[-1.0, 0.1], [0.0, 0.25], [0.5, 0.3], [1.0, 0.3]],
            "g2": [[-1.0, -0.1], [0.0, 0.0], [1.0, 0.05]]}


def _series(rng) -> list[tuple[float, float]]:
    """A 60-sample random walk on [0, 1], one sample in four snapped to a cell edge."""
    u = np.clip(0.5 + np.cumsum(rng.normal(0.0, 0.12, 60)), 0.0, 1.0)
    u[::4] = np.round(u[::4] * 64) / 64
    return [(0.1 * i, float(v)) for i, v in enumerate(u)]


def write_inputs() -> None:
    rng = np.random.default_rng(SEED)
    INPUTS.mkdir(parents=True, exist_ok=True)
    relay = _relay_agents(rng)
    (INPUTS / "relay.csv").write_text(
        "alpha,beta,nu\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in relay))
    (INPUTS / "soft.json").write_text(json.dumps(_soft_agents(rng), indent=1) + "\n")
    (INPUTS / "shift.json").write_text(json.dumps(_shift_model(rng), indent=1) + "\n")
    (INPUTS / "series.csv").write_text(
        "time,u\n" + "".join(f"{_fmt(t)},{_fmt(u)}\n" for t, u in _series(rng)))
    good = {"alpha": 1.0, "beta": 0.0, "f_plus": [[0.0, -1.0], [1.0, 0.0]],
            "f_minus": [[0.0, 0.0], [1.0, 1.0]]}
    # agent 1's f_plus falls and its f_minus cannot be read: the f_plus rule is named
    (INPUTS / "bad_soft_falling.json").write_text(json.dumps(
        [good, {**good, "f_plus": [[0.0, 1.0], [1.0, 0.0]], "f_minus": "x"}]) + "\n")
    # non-finite alpha, an f_plus slope past the float range, and an f_minus that
    # cannot be read: the f_plus slope is named
    (INPUTS / "bad_soft_slope.json").write_text(json.dumps(
        [{"alpha": float("nan"), "beta": 0.0, "f_plus": [[0.0, -5e307], [1e-10, 5e307]],
          "f_minus": [[0.0]]}]) + "\n")
    # the largest double, then twice 2**969: a float running total stays at the largest
    # double, but the exact total of all three rounds to inf, so the third is named
    edge = (1.7976931348623157e308, 2.0 ** 969, 2.0 ** 969)
    (INPUTS / "bad_relay_overflow.csv").write_text(
        "alpha,beta,nu\n" + "".join(f"0.5,0.25,{_fmt(v)}\n" for v in edge))
    (INPUTS / "bad_soft_overflow.json").write_text(json.dumps(
        [{"alpha": 0.5, "beta": 0.25, "f_plus": [[0.0, 0.0]], "f_minus": [[0.0, v]]}
         for v in edge]) + "\n")
    # outputs of -1e308 and 1e308: the chord inside the relay's loop is 2e308, so inf
    (INPUTS / "huge_relay.csv").write_text("alpha,beta,nu\n0.5,0.25,1e308\n")
    # headers that name their columns in another order: read by position, the relay
    # (0.5, 0.25) of capacity 2 would be read as alpha 2, beta 0.5, nu 0.25
    (INPUTS / "bad_header.csv").write_text("nu,alpha,beta\n2,0.5,0.25\n")
    (INPUTS / "bad_header_series.csv").write_text("u,time\n0.5,0\n0.7,1\n")
    # a valid support 1e308 wide: padded for verify's random histories, its width is inf
    (INPUTS / "wide_relay.csv").write_text("alpha,beta,nu\n1e308,1e307,1\n0.5,0.25,2\n")
    # knots that are two-character strings, not arrays: unpacked, "05" and "16" would
    # read as a valid f_minus with knots (0, 5) and (1, 6)
    (INPUTS / "bad_soft_knot.json").write_text(json.dumps(
        [good, {**good, "f_minus": ["05", "16"]}]) + "\n")


# relay thresholds hit: 0.7, 0.2, 0.5, 0.3 (tenths), 0.46875 (30/64)
RELAY_HISTORY = "0.7,0.2,0.5,0.3,0.46875,0.4,0.9,0.1"
# cell edges (k/64) and cell centres ((k + 0.5)/64) of the 64-cell grid on [0, 1]
GRID_HISTORY = "0.75,0.25,0.7421875,0.2578125,0.625,0.375,0.5078125,0.4921875,0.5"
SHIFT_HISTORY = "0.8,-0.6,0.5,-0.2,0.25,0.0,0.9,-0.9"
SOFT_HISTORY = "0.9,-0.7,0.5,-0.3,0.3,0.1,1.5,-1.5,0.2"

KINDS = {
    "relay": (["--agents", "inputs/relay.csv"], RELAY_HISTORY, ("0.2", "0.7")),
    "grid": (["--agents", "inputs/relay.csv", "--grid-n", "64", "--bounds", "0,1"],
             GRID_HISTORY, ("0.25", "0.75")),
    "shift": (["--model", "shifted", "--agents", "inputs/shift.json"], SHIFT_HISTORY,
              ("-0.5", "0.5")),
    "soft": (["--model", "generalized", "--agents", "inputs/soft.json"], SOFT_HISTORY,
             ("-0.3", "0.5")),
}


def cases() -> dict[str, list[str]]:
    """Each call by name: the five commands on every model kind, a run split in
    two by ``--memory-out``/``--memory-in``, a few runs that fail (one of them
    resumed from a memory, one on a cycle too wide, one verifying a support too
    wide and one on a grid of one cell), and a loop whose chord is past the float range."""
    calls = {}
    for kind, (model, history, (lo, hi)) in KINDS.items():
        cycle = ["--u-minus", lo, "--u-plus", hi]
        calls[f"simulate-{kind}"] = ["simulate", *model, "--history", history]
        calls[f"simulate-{kind}-series"] = ["simulate", *model, "--input", "inputs/series.csv"]
        calls[f"decompose-{kind}"] = ["decompose", *model, "--history", history]
        calls[f"loop-{kind}"] = ["loop", *model, *cycle, "--history", history, "--n-points", "33"]
        calls[f"chord-{kind}"] = ["chord", *model, *cycle, "--n-points", "33"]
        calls[f"chord-{kind}-at"] = ["chord", *model, *cycle, "--at", hi]
        calls[f"verify-{kind}"] = ["verify", *model, "--seed", "3",
                                   "--out", f"{{out}}/verify-{kind}.json"]
    for kind, cut in (("grid", 4), ("shift", 5)):
        model, history = KINDS[kind][:2]
        values = history.split(",")
        calls[f"split-{kind}-1"] = ["simulate", *model, "--history", ",".join(values[:cut]),
                                    "--memory-out", f"{{out}}/split-{kind}-1.memory.json"]
        calls[f"split-{kind}-2"] = ["simulate", *model, "--history", ",".join(values[cut:]),
                                    "--memory-in", f"expected/split-{kind}-1.memory.json",
                                    "--memory-out", f"{{out}}/split-{kind}-2.memory.json"]
    calls["simulate-grid-agent-extent"] = ["simulate", "--agents", "inputs/relay.csv",
                                           "--grid-n", "64", "--history", "0.99,-0.5"]
    for bad in ("falling", "slope", "overflow", "knot"):
        calls[f"bad-soft-{bad}"] = ["simulate", "--model", "generalized", "--agents",
                                    f"inputs/bad_soft_{bad}.json", "--history", "0.5"]
    calls["bad-relay-overflow"] = ["simulate", "--agents", "inputs/bad_relay_overflow.csv",
                                   "--history", "0.5"]
    calls["bad-history"] = ["simulate", *KINDS["relay"][0], "--history", "0.5,0.7"]
    calls["loop-relay-huge"] = ["loop", "--agents", "inputs/huge_relay.csv",
                                "--u-minus", "0.2", "--u-plus", "0.6", "--n-points", "5"]
    calls["bad-header"] = ["simulate", "--agents", "inputs/bad_header.csv", "--history", "0.6"]
    calls["bad-header-series"] = ["simulate", *KINDS["relay"][0],
                                  "--input", "inputs/bad_header_series.csv"]
    calls["bad-start-series"] = ["simulate", *KINDS["relay"][0], "--input", "inputs/series.csv",
                                 "--start", "inf"]
    # the memory split-grid-1 writes ends at 0.2578125: a history that repeats it names the file
    calls["bad-history-resumed"] = ["simulate", *KINDS["relay"][0], "--memory-in",
                                    "expected/split-grid-1.memory.json",
                                    "--history", "0.2578125,0.5"]
    # a cycle whose bounds are finite but whose width is past the float range
    calls["bad-cycle-width"] = ["chord", *KINDS["relay"][0], "--u-minus", "-1e308",
                                "--u-plus", "1e308", "--n-points", "3"]
    calls["bad-verify-support"] = ["verify", "--agents", "inputs/wide_relay.csv"]
    calls["bad-grid-n"] = ["simulate", *KINDS["relay"][0], "--grid-n", "1", "--history", "0.5"]
    return calls


def run(argv: list[str], out: Path) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of one CLI call, ``{out}`` put for ``out``;
    the working directory must be the corpus."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace("{out}", str(out)) for arg in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def written(argv: list[str]) -> list[str]:
    """Names of the files a call writes under ``{out}``."""
    return [arg.split("/", 1)[1] for arg in argv if arg.startswith("{out}/")]


def record() -> None:
    shutil.rmtree(CORPUS, ignore_errors=True)
    write_inputs()
    EXPECTED.mkdir()
    manifest = {}
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        for name, argv in cases().items():
            code, stdout, stderr = run(argv, EXPECTED)
            (EXPECTED / f"{name}.stdout").write_text(stdout, encoding="utf-8")
            manifest[name] = {"argv": argv, "exit": code, "stderr": stderr,
                              "files": written(argv)}
    finally:
        os.chdir(cwd)
    (EXPECTED / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    record()

"""Seeded input files for the benchmark workloads.

Everything here is plain numpy and the standard library: the program under
test only ever sees the files written by :func:`generate`. The same seed
always gives byte-identical files. Work per session (sample counts, cycle
counts, agent counts) is fixed; the seed only moves the values, so timings
from different seeds are comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grid-deep", "relay-walk", "soft-walk")
START = 0.0  # the CLI's default --start

GRID_N = 2048
GRID_BOUNDS = (0.0, 1.0)

# grid-deep: episodes of nested, decaying cycles. Each episode opens with a
# new global maximum that wipes out the previous staircase, then adds one
# stored vertex pair per cycle, so the stack depth climbs to DEEP_CYCLES.
DEEP_AGENTS = 100_000
DEEP_EPISODES = 2
DEEP_CYCLES = 300
DEEP_LEG = 5  # samples per monotone leg

# relay-walk: bounded random walk (shallow staircase, frequent wiping-out).
RELAY_AGENTS = 50_000
RELAY_DIRECT_SAMPLES = 500  # driven in two halves joined by a memory file
RELAY_SHIFT_SAMPLES = 100
RELAY_STEP = 0.05
# verify draws its own random histories; a fixed seed keeps its work the
# same for every workload seed
VERIFY_SEED = 1

# soft-walk: soft-branch agents read out through per-agent interpolation.
SOFT_AGENTS = 500
SOFT_KNOTS = 6
SOFT_SAMPLES = 150
SOFT_LOOP_POINTS = 41
SOFT_STEP = 0.05

SETUP_INPUT = 0.5


@dataclass
class Invocation:
    """One CLI call: its arguments, and what the oracle needs to check it."""

    name: str
    argv: list[str]
    out: str  # file the CLI writes (CSV, or the JSON report of verify)
    kind: str  # "simulate", "loop" or "verify"
    model: str  # "direct", "grid", "shifted" or "soft"
    path: np.ndarray | None = None  # inputs after the start value
    offset: int = 0  # inputs already driven before this call (resume)
    samples: int = 0


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # agent files for the oracle
    setup: list[Invocation] = field(default_factory=list)  # one per model
    session: list[Invocation] = field(default_factory=list)
    loop: dict | None = None  # soft-walk's loop arguments


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_agents_csv(path: Path, alpha, beta, nu) -> None:
    lines = ["alpha,beta,nu"]
    lines += [f"{_fmt(a)},{_fmt(b)},{_fmt(v)}" for a, b, v in zip(alpha, beta, nu)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_series_csv(path: Path, values) -> None:
    lines = ["time,u"] + [f"{i},{_fmt(u)}" for i, u in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def rect_agents(rng, n: int):
    """Thresholds uniform over the triangle 0 <= beta <= alpha <= 1."""
    beta = rng.uniform(0.0, 1.0, n)
    alpha = beta + rng.uniform(0.0, 1.0, n) * (1.0 - beta)
    nu = rng.uniform(0.0, 2.0, n)
    return alpha, beta, nu


def nested_oscillation(rng, episodes: int, cycles: int, leg: int) -> np.ndarray:
    """Decaying nested cycles inside (0, 1), one new stored pair per cycle."""
    values: list[float] = []
    prev = START
    for _ in range(episodes):
        top = 0.999 - 0.0005 * rng.uniform()
        bottom = 0.001 + 0.0005 * rng.uniform()
        # Shrink both ends by random steps that use up 90% of the span, so
        # the innermost cycle still has room: M_k strictly falls, m_k rises.
        span = top - bottom
        down = rng.uniform(0.5, 1.5, cycles)
        up = rng.uniform(0.5, 1.5, cycles)
        maxima = top - np.concatenate(([0.0], np.cumsum(down[:-1]))) * (0.45 * span / down.sum())
        minima = bottom + np.concatenate(([0.0], np.cumsum(up[:-1]))) * (0.45 * span / up.sum())
        for hi, lo in zip(maxima, minima):
            for target in (hi, lo):
                values.extend(np.linspace(prev, target, leg + 1)[1:].tolist())
                prev = target
    return np.array(values)


def random_walk(rng, n: int, step: float) -> np.ndarray:
    """Gaussian walk from START, reflected into [0, 1]."""
    out = np.empty(n)
    u = START
    for k, d in enumerate(rng.normal(0.0, step, n)):
        u += d
        if u < 0.0:
            u = -u
        if u > 1.0:
            u = 2.0 - u
        out[k] = u
    return out


def shift_tables(rng):
    """g2 <= g1 with u + g(u) non-decreasing: small, gently sloped shifts."""
    us = np.linspace(0.0, 1.0, 5)
    g1 = 0.02 + 0.05 * rng.uniform(0.0, 1.0, 5)
    g2 = -0.02 - 0.05 * rng.uniform(0.0, 1.0, 5)
    return [[float(u), float(s)] for u, s in zip(us, g1)], [
        [float(u), float(s)] for u, s in zip(us, g2)
    ]


def soft_agents(rng, n: int, knots: int) -> list[dict]:
    """Branches on independent knots, f_plus in [0, 1] below f_minus in [1, 2]."""
    agents = []
    alpha, beta, _ = rect_agents(rng, n)
    for a, b in zip(alpha, beta):
        up = np.sort(rng.uniform(-0.1, 1.1, knots))
        un = np.sort(rng.uniform(-0.1, 1.1, knots))
        fp = np.sort(rng.uniform(0.0, 1.0, knots))
        fn = 1.0 + np.sort(rng.uniform(0.0, 1.0, knots))
        agents.append(
            {
                "alpha": float(a),
                "beta": float(b),
                "f_plus": [[float(u), float(f)] for u, f in zip(up, fp)],
                "f_minus": [[float(u), float(f)] for u, f in zip(un, fn)],
            }
        )
    return agents


def _cli(*args) -> list[str]:
    return [str(a) for a in args]


def _setup(name: str, model: str, out: str, *model_args) -> Invocation:
    """Set-up probe: load the model and take one step (a single-value history)."""
    argv = _cli("simulate", *model_args, "--history", SETUP_INPUT, "--out", out)
    return Invocation(name, argv, out, "simulate", model, np.array([SETUP_INPUT]), 0, 1)


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files under ``work`` and describe its session."""
    rng = np.random.default_rng([seed, sum(name.encode())])
    (work / "out").mkdir(parents=True, exist_ok=True)
    wl = Workload(name=name)
    out = lambda label: str(work / "out" / label)  # noqa: E731

    if name == "grid-deep":
        agents = work / "agents.csv"
        _write_agents_csv(agents, *rect_agents(rng, DEEP_AGENTS))
        path = nested_oscillation(rng, DEEP_EPISODES, DEEP_CYCLES, DEEP_LEG)
        series = work / "series.csv"
        _write_series_csv(series, path)
        wl.files = {"agents": agents}
        grid = ["--grid-n", GRID_N, "--bounds", "%r,%r" % GRID_BOUNDS]
        wl.setup = [_setup("setup-grid", "grid", out("setup.csv"),
                           "--agents", agents, *grid)]
        wl.session = [
            Invocation("simulate-grid",
                       _cli("simulate", "--agents", agents, *grid, "--input", series,
                            "--out", out("grid.csv")),
                       out("grid.csv"), "simulate", "grid", path, 0, len(path)),
        ]
    elif name == "relay-walk":
        alpha, beta, nu = rect_agents(rng, RELAY_AGENTS)
        agents = work / "agents.csv"
        _write_agents_csv(agents, alpha, beta, nu)
        g1, g2 = shift_tables(rng)
        shift = work / "shift.json"
        _write_json(shift, {
            "agents": [{"alpha": float(a), "beta": float(b), "nu": float(v)}
                       for a, b, v in zip(alpha, beta, nu)],
            "g1": g1, "g2": g2,
        })
        path = random_walk(rng, RELAY_DIRECT_SAMPLES, RELAY_STEP)
        half = RELAY_DIRECT_SAMPLES // 2
        first, second = work / "walk1.csv", work / "walk2.csv"
        _write_series_csv(first, path[:half])
        _write_series_csv(second, path[half:])
        shift_path = random_walk(rng, RELAY_SHIFT_SAMPLES, RELAY_STEP)
        shift_series = work / "walk_shift.csv"
        _write_series_csv(shift_series, shift_path)
        memory = out("memory.json")
        wl.files = {"agents": agents, "shift": shift}
        wl.setup = [
            _setup("setup-direct", "direct", out("setup.csv"), "--agents", agents),
            _setup("setup-shifted", "shifted", out("setup_shift.csv"),
                   "--model", "shifted", "--agents", shift),
        ]
        wl.session = [
            Invocation("simulate-direct-1",
                       _cli("simulate", "--agents", agents, "--input", first,
                            "--memory-out", memory, "--out", out("direct1.csv")),
                       out("direct1.csv"), "simulate", "direct", path, 0, half),
            Invocation("simulate-direct-2",
                       _cli("simulate", "--agents", agents, "--input", second,
                            "--memory-in", memory, "--out", out("direct2.csv")),
                       out("direct2.csv"), "simulate", "direct", path, half,
                       len(path) - half),
            Invocation("simulate-shifted",
                       _cli("simulate", "--model", "shifted", "--agents", shift,
                            "--input", shift_series, "--out", out("shifted.csv")),
                       out("shifted.csv"), "simulate", "shifted", shift_path, 0,
                       len(shift_path)),
            Invocation("verify-shifted",
                       _cli("verify", "--model", "shifted", "--agents", shift,
                            "--seed", VERIFY_SEED, "--out", out("verify.json")),
                       out("verify.json"), "verify", "shifted"),
        ]
    elif name == "soft-walk":
        agents = work / "soft.json"
        _write_json(agents, soft_agents(rng, SOFT_AGENTS, SOFT_KNOTS))
        path = random_walk(rng, SOFT_SAMPLES, SOFT_STEP)
        series = work / "walk.csv"
        _write_series_csv(series, path)
        history = np.sort(rng.uniform(0.1, 0.9, 4))[[3, 0, 2, 1]]  # up, down, up, down
        u_minus, u_plus = sorted(rng.uniform(0.2, 0.8, 2))
        wl.loop = {"history": history, "u_minus": float(u_minus), "u_plus": float(u_plus),
                   "n_points": SOFT_LOOP_POINTS}
        wl.files = {"agents": agents}
        gen = ["--model", "generalized", "--agents", agents]
        wl.setup = [_setup("setup-soft", "soft", out("setup.csv"), *gen)]
        wl.session = [
            Invocation("simulate-soft",
                       _cli("simulate", *gen, "--input", series, "--out", out("soft.csv")),
                       out("soft.csv"), "simulate", "soft", path, 0, len(path)),
            Invocation("loop-soft",
                       _cli("loop", *gen, "--history", ",".join(_fmt(v) for v in history),
                            "--u-minus", _fmt(u_minus), "--u-plus", _fmt(u_plus),
                            "--n-points", SOFT_LOOP_POINTS, "--out", out("loop.csv")),
                       out("loop.csv"), "loop", "soft"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl


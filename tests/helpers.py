"""Shared test fixtures and independent oracles.

The oracles here deliberately re-implement model semantics in the plainest
possible way (raw folds over uncompressed histories, per-scalar arithmetic)
so that library results are checked against code that shares nothing with
the fast paths.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from preisach import (
    AgentPopulation,
    GeneralizedPopulation,
    PiecewiseLinear,
    ReversalSequence,
    SampledSeries,
    ShiftModel,
    StaircaseMemory,
    extract_reversals,
    relay_fold,
)


def cell_masses(grid) -> np.ndarray:
    """The n x n cell masses a weight grid was built from, recovered from its
    packed summed-area table by inclusion-exclusion:
    ``m[i, j] = P[i+1, j+1] - P[i, j+1] - P[i+1, j] + P[i, j]``, where
    ``P[i, j] = prefix[i*(i+1)//2 + min(i, j)]``. Exact wherever the table's
    sums are, as for the uniform grids and the small grids of the tests."""
    i, j = np.indices((grid.n + 1, grid.n + 1))
    sat = grid.prefix[i * (i + 1) // 2 + np.minimum(i, j)]
    return np.diff(np.diff(sat, axis=0), axis=1).astype(float)


def raw_relay_states(alphas, betas, seq: ReversalSequence) -> np.ndarray:
    """Brute-force relay fold of the raw, uncompressed history."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    states = np.full(np.broadcast(alphas, betas).shape, -1, dtype=np.int8)
    prev = seq.start_u
    for v in seq.extrema:
        if v > prev:
            states[alphas <= v] = 1
        else:
            states[betas >= v] = -1
        prev = v
    return states


def branch_at(knots, u) -> float:
    """A branch given by its ``(u, f)`` knots at input ``u``, by ``np.interp``."""
    us, fs = zip(*knots)
    return float(np.interp(u, us, fs))


def gen_output(f_plus, f_minus, state: float, u: float) -> float:
    """Output of a soft-branch agent with these branch knots in the given state at ``u``.

    Equals ``loop_gap(u) * state + midline(u)``; evaluated by branch
    selection so the reductions to ``f_plus`` (down) and ``f_minus`` (up)
    are exact in floating point.
    """
    return branch_at(f_minus if int(state) > 0 else f_plus, u)


def gen_apply(alpha, beta, f_plus, f_minus, state: float, seq: ReversalSequence,
              query_u: float) -> float:
    """Drive one soft-branch agent through ``seq`` and evaluate it at ``query_u``.

    ``query_u`` must equal the last reversal value or continue monotonically
    past it (it is the momentary input on the final leg).
    """
    states = relay_fold(
        np.array([alpha]), np.array([beta]), seq.steps_to(query_u),
        np.array([float(state)]),
    )
    return gen_output(f_plus, f_minus, states[0], query_u)


def soft_population(agents) -> GeneralizedPopulation:
    """The population of ``(alpha, beta, f_plus, f_minus)`` agents, in order."""
    return GeneralizedPopulation(*zip(*agents))


def rectangular_population(alpha, beta, nu) -> GeneralizedPopulation:
    """Soft agents with constant branches ``-nu`` and ``+nu``: relays of capacity ``nu``."""
    return GeneralizedPopulation(alpha, beta, [[(0.0, -v)] for v in nu],
                                 [[(0.0, v)] for v in nu])


def push_by_list(mem: StaircaseMemory, u: float) -> StaircaseMemory:
    """``push_extremum`` with the stored pairs copied to a list, edited in
    place and frozen again, as the erasure rule reads in words."""
    pairs = list(mem.vertex_pairs)
    if u > mem.current_u:
        while pairs and pairs[-1][0] <= u:
            pairs.pop()
        trend = "rising"
    else:
        live_max = None  # falling from a virgin state: nothing is up
        if mem.trend == "falling" and pairs:
            live_max, _ = pairs.pop()
        elif mem.trend == "rising":
            live_max = mem.current_u
        if live_max is not None:
            while pairs and pairs[-1][1] >= u:
                live_max, _ = pairs.pop()
            pairs.append((live_max, u))
        trend = "falling"
    return StaircaseMemory(mem.start_u, tuple(pairs), float(u), trend)


def soft_agents_by_loop(path, data):
    """The soft-agent JSON reader as a loop over agents, written out in plain
    Python and ``np.interp``: the thresholds, then ``(sizes, us, fs)`` per
    branch, or the ``ValueError`` naming the first agent at fault."""
    alphas, betas, branches = [], [], ([], [])
    for k, entry in enumerate(data):
        try:
            alpha, beta = float(entry["alpha"]), float(entry["beta"])
            for key, knots in zip(("f_plus", "f_minus"), branches):
                pts = [(float(u), float(f)) for u, f in entry[key]]
                if not pts:
                    raise ValueError("at least one breakpoint is required")
                if not all(math.isfinite(x) for pt in pts for x in pt):
                    raise ValueError("breakpoints must be finite")
                if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
                    raise ValueError("breakpoint abscissae must be strictly increasing")
                if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
                    raise ValueError("branch values must be non-decreasing")
                knots.append(pts)
            if not (math.isfinite(alpha) and math.isfinite(beta)):
                raise ValueError("thresholds must be finite")
            if alpha < beta:
                raise ValueError(f"alpha must be >= beta, got alpha={alpha}, beta={beta}")
            for knots in branches:
                steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(knots[-1], knots[-1][1:])]
                if not all(math.isfinite(x) for step in steps for x in step):
                    raise ValueError("consecutive breakpoints must differ by finite amounts")
                if not all(math.isfinite(df / du) for du, df in steps):
                    raise ValueError("slopes between consecutive breakpoints must be finite")
            f_plus, f_minus = (list(zip(*knots[-1])) for knots in branches)
            probes = sorted({beta, alpha}
                            | {u for u in f_plus[0] if beta <= u <= alpha}
                            | {u for u in f_minus[0] if beta <= u <= alpha})
            for u in probes:
                if np.interp(u, *f_minus) < np.interp(u, *f_plus):
                    raise ValueError(f"descending branch below ascending branch at u={u}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: agent {k}: {exc}") from exc
        alphas.append(alpha)
        betas.append(beta)
    return (np.array(alphas), np.array(betas),
            *((np.array([len(pts) for pts in knots]),
               *np.array([pt for pts in knots for pt in pts]).T) for knots in branches))


def csv_rows(path, names):
    """``(line number, values)`` of each non-blank row under the header of a CSV
    file, or the ``ValueError`` naming the first line that cannot be read."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for lineno, row in enumerate(rows, start=2):
        if all(not cell.strip() for cell in row):
            continue
        if len(row) < len(names):
            raise ValueError(f"{path}:{lineno}: expected {','.join(names)} columns")
        try:
            yield lineno, [float(cell) for cell in row[:len(names)]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc


def agents_by_row(path) -> AgentPopulation:
    """The agent CSV reader as a loop over rows: the population, or the
    ``ValueError`` naming the first line at fault and its first failed check,
    the last being a running total of the capacities that stays finite."""
    names = ("alpha", "beta", "nu")
    rows, total = [], 0.0
    for lineno, (a, b, v) in csv_rows(path, names):
        for name, x in zip(names, (a, b, v)):
            if not math.isfinite(x):
                raise ValueError(f"{path}:{lineno}: non-finite {name}")
        if a < b:
            raise ValueError(f"{path}:{lineno}: alpha < beta ({a!r} < {b!r})")
        if v < 0:
            raise ValueError(f"{path}:{lineno}: negative capacity {v!r}")
        total += v
        if not math.isfinite(total):
            raise ValueError(f"{path}:{lineno}: total capacity overflows")
        rows.append((a, b, v))
    if not rows:
        raise ValueError(f"{path}: empty agent file")
    return AgentPopulation(*zip(*rows))


def series_by_row(path) -> SampledSeries:
    """The series CSV reader as a loop over rows: the series, or the
    ``ValueError`` naming the first line it cannot read, else the first
    non-finite sample, else the first time that does not increase."""
    rows = [values for _, values in csv_rows(path, ("time", "u"))]
    if not rows:
        raise ValueError(f"{path}: empty series")
    for i, (t, u) in enumerate(rows):
        if not (math.isfinite(t) and math.isfinite(u)):
            raise ValueError(f"{path}: invalid sample at row {i}: ({t!r}, {u!r})")
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            raise ValueError(f"{path}: unordered series: time at row {i} does not increase")
    return SampledSeries.from_pairs(rows)


def random_history(rng, lo, hi, max_reversals, start_u=None) -> ReversalSequence:
    if start_u is None:
        start_u = lo
    k = int(rng.integers(1, max_reversals + 1))
    vals = rng.uniform(lo, hi, k)
    series = SampledSeries.from_pairs([(i, v) for i, v in enumerate(vals)])
    return extract_reversals(series, float(start_u))


def random_population(rng, n_agents, lo=0.0, hi=1.0) -> AgentPopulation:
    beta = rng.uniform(lo, hi, n_agents)
    alpha = beta + rng.uniform(0.0, 1.0, n_agents) * (hi - beta)
    nu = rng.uniform(0.0, 2.0, n_agents)
    return AgentPopulation(alpha, beta, nu)


def random_soft_agent(rng, lo=-1.0, hi=1.0):
    """``(alpha, beta, f_plus, f_minus)`` of a random soft agent, branches as knot lists."""
    beta = rng.uniform(lo, 0.5 * (lo + hi))
    alpha = rng.uniform(beta + 0.05 * (hi - lo), hi)
    knots = np.sort(rng.uniform(lo - 0.5, hi + 0.5, 4))
    knots += np.arange(4) * 1e-9  # guard against duplicate knots
    base = np.sort(rng.uniform(-2.0, 0.5, 4))
    lift = np.maximum.accumulate(rng.uniform(0.05, 1.5, 4))
    return alpha, beta, list(zip(knots, base)), list(zip(knots, base + lift))


def random_soft_population(rng, n_agents, lo=-1.0, hi=1.0) -> GeneralizedPopulation:
    return soft_population([random_soft_agent(rng, lo, hi) for _ in range(n_agents)])


def random_shift_model(rng, n_agents=30, knots=9, span=2.0) -> ShiftModel:
    """A shift model with smooth random shifts satisfying well-posedness.

    Both composite maps u + g(u) are built directly as increasing functions
    and g is recovered by subtraction, so the monotonicity constraint holds
    by construction and g2 <= g1 everywhere.
    """
    pop = random_population(rng, n_agents, lo=-1.0, hi=1.0)
    us = np.linspace(-span, span, knots)
    h1 = np.cumsum(rng.uniform(0.05, 0.8, knots))
    h1 = h1 - h1[knots // 2] + rng.uniform(-0.3, 0.3)
    gap = rng.uniform(0.0, 0.5, knots)
    h2 = h1 - gap
    comp2 = np.maximum.accumulate(h2 + us) - us  # keep u + g2 non-decreasing
    g1 = PiecewiseLinear(list(zip(us, h1)))
    g2 = PiecewiseLinear(list(zip(us, comp2)))
    return ShiftModel(pop, g1=g1, g2=g2)


def series_from_values(values, start_time=0.0) -> SampledSeries:
    return SampledSeries.from_pairs(
        [(start_time + i, v) for i, v in enumerate(values)]
    )


def varying_gap_agents():
    """A wide background agent whose loop gap grows with u, plus two agents
    switching inside [-0.5, 0.5], each as ``(alpha, beta, f_plus, f_minus)``.

    Histories that park the background agent in different states bend the
    branches of later cycles without changing their vertical gaps, which is
    exactly the equal-chords-without-congruency signature.
    """
    background = (2.0, -2.0, [(-2.0, -1.0), (2.0, -1.0)], [(-2.0, 0.0), (2.0, 4.0)])
    inner1 = (0.3, -0.2, [(-1.0, -1.0), (1.0, -0.5)], [(-1.0, 0.5), (1.0, 1.0)])
    inner2 = (0.45, -0.4, [(-1.0, -0.8), (1.0, -0.4)], [(-1.0, 0.4), (1.0, 0.8)])
    return [background, inner1, inner2]


def varying_gap_population() -> GeneralizedPopulation:
    return soft_population(varying_gap_agents())

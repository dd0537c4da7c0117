"""Shared test fixtures and independent oracles.

The oracles here deliberately re-implement model semantics in the plainest
possible way (raw folds over uncompressed histories, per-scalar arithmetic)
so that library results are checked against code that shares nothing with
the fast paths.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from preisach import (
    AgentPopulation,
    GeneralizedPopulation,
    PiecewiseLinear,
    ReversalSequence,
    SampledSeries,
    ShiftModel,
    StaircaseMemory,
    WeightGrid,
    extract_reversals,
    from_agents,
    relay_fold,
    states_of,
)
from preisach.classical import _grid_geometry


# the least real that rounds to inf: an exact total below it rounds to a double
ROUNDS_TO_INF = 2 ** 1024 - 2 ** 970


def grid_of(mass, bounds=(0.0, 1.0)) -> WeightGrid:
    """The weight grid of an n x n matrix of cell masses (none above the diagonal) over
    ``bounds``: each nonzero cell's mass on one agent at that cell's center, binned by
    ``from_agents``, so the grid's table holds exactly these masses."""
    mass = np.asarray(mass, dtype=float)
    rows, cols = np.nonzero(mass)
    centers = _grid_geometry(*bounds, len(mass))[3]
    return from_agents(AgentPopulation(centers[rows], centers[cols], mass[rows, cols]),
                       len(mass), bounds)


def uniform_grid(density: float, n: int, bounds) -> WeightGrid:
    """The grid of a constant weight ``density`` over the support triangle (``grid_of``):
    each cell carries ``density * w * w`` for the cell width w, and each diagonal cell half
    of that (the triangular sliver below alpha = beta), so the total is density times the
    triangle's area."""
    width = _grid_geometry(*bounds, n)[2]
    cell = density * width * width
    mass = np.tril(np.full((n, n), cell))
    np.fill_diagonal(mass, 0.5 * cell)
    return grid_of(mass, bounds)


def sat_ints(grid) -> np.ndarray:
    """Every entry of a weight grid's summed-area table, ``P[i, j] * 2**scale`` for i, j
    in 0..n, as Python ints joined from its limbs (an object array). ``P[i, j]`` is packed
    entry ``i*(i+1)//2 + min(i, j)``, and limb l of each entry is in row l of ``prefix``."""
    i, j = np.indices((grid.n + 1, grid.n + 1))
    limbs = grid.prefix[:, i * (i + 1) // 2 + np.minimum(i, j)].astype(object)
    return sum(limb << (grid.bits * l) for l, limb in enumerate(limbs))


def cell_ints(grid) -> np.ndarray:
    """The n x n cell masses of a weight grid times ``2**scale``, recovered exactly from its
    table by inclusion-exclusion: ``m[i, j] = P[i+1, j+1] - P[i, j+1] - P[i+1, j] + P[i, j]``."""
    return np.diff(np.diff(sat_ints(grid), axis=0), axis=1)


def cell_masses(grid) -> np.ndarray:
    """The n x n cell masses a weight grid was built from, each exact sum rounded once."""
    unit = 1 << grid.scale
    return np.array([[m / unit for m in row] for row in cell_ints(grid).tolist()])


def grid_cells(grid) -> tuple:
    """``(alpha, beta, masses)`` of a weight grid's cells that carry mass: their centers
    and their exact masses times ``2**scale`` (``cell_ints``, Python ints)."""
    masses = cell_ints(grid)
    rows, cols = np.nonzero(masses)
    return grid.centers[rows], grid.centers[cols], masses[rows, cols]


def grid_reference(grid, cells, mem: StaircaseMemory) -> tuple:
    """``(value, parts)`` of a weight grid under ``mem`` by its ``cells = grid_cells(grid)``:
    each cell is a relay at its center, folded over the memory (``states_of``), and every
    sum is taken over Python ints and rounded once. The forced cells (center alpha <= u,
    then center beta >= u) count with their own states; that part adds its two sums,
    each rounded once."""
    alpha, beta, masses = cells
    signed = masses * states_of(mem, alpha, beta).astype(object)
    u, unit = mem.current_u, 1 << grid.scale
    total, up = signed.sum(), signed[alpha <= u].sum()
    down = signed[(alpha > u) & (beta >= u)].sum()
    return total / unit, ((total - up - down) / unit, up / unit + down / unit, 0.0)


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


def eval_direct(pop: AgentPopulation, seq: ReversalSequence) -> np.ndarray:
    """Aggregate output along a reversal sequence, one relay per agent: ``len(seq) + 1``
    outputs, in the initial state (every agent DOWN), then after each reversal, each
    read by ``AgentPopulation.output``."""
    states = np.full(len(pop), -1.0)
    out = [pop.output(states, seq.start_u)]
    for value, rising in seq.steps():
        relay_fold(pop.alpha, pop.beta, [(value, rising)], states)
        out.append(pop.output(states, value))
    return np.array(out)


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


def masked_parts(model, states, u) -> tuple[float, float, float]:
    """The band, forced and (zero) offset parts of a capacity model's output at ``u``
    in ``states``, by masks over every relay: ``math.fsum`` of the signed capacities
    of the relays still bistable at ``u``, and that of the relays ``u`` forces UP
    (``alpha <= up(u)``) plus that of the others it forces DOWN (``beta >= down(u)``),
    each relay in its own state. O(agents): the capacity simulators' reference."""
    signed = model.nu * states
    up = model.alpha <= model.up_compare(u)
    down = ~up & (model.beta >= model.down_compare(u))
    band = (model.alpha > model.up_compare(u)) & (model.beta < model.down_compare(u))
    return math.fsum(signed[band]), math.fsum(signed[up]) + math.fsum(signed[down]), 0.0


def soft_exact(agents, states, u, u_minus, u_plus) -> tuple:
    """``(value, parts, chord)`` of soft agents ``(alpha, beta, f_plus, f_minus)`` in
    ``states`` at ``u``, from each agent's branch values (``branch_at``) summed as
    ``Fraction``s, each sum rounded once: the agents' values for their states; the band,
    forced and offset parts, half of ``s * (f_minus - f_plus)`` over the agents with
    ``beta < u < alpha``, over those with ``alpha <= u`` plus (rounded apart) over the
    others with ``beta >= u``, and half of ``f_minus + f_plus`` over every agent; and the
    chord of the cycle ``[u_minus, u_plus]``, ``f_minus - f_plus`` over the agents it
    flips (``u < alpha <= u_plus`` and ``u_minus <= beta < u``)."""
    value, band, up, down, offset, chord = (Fraction(0),) * 6
    for (alpha, beta, f_plus, f_minus), s in zip(agents, states):
        low, high = Fraction(branch_at(f_plus, u)), Fraction(branch_at(f_minus, u))
        value += high if s > 0 else low
        gap = int(s) * (high - low) / 2
        if alpha <= u:
            up += gap
        elif beta >= u:
            down += gap
        else:
            band += gap
        offset += (high + low) / 2
        if u < alpha <= u_plus and u_minus <= beta < u:
            chord += high - low
    return float(value), (float(band), float(up) + float(down), float(offset)), float(chord)


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


def _check_steps(pts):
    """Raise for the first step or slope between consecutive knots ``pts`` past the float range."""
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])]
    if not all(math.isfinite(x) for step in steps for x in step):
        raise ValueError("consecutive breakpoints must differ by finite amounts")
    if not all(math.isfinite(df / du) for du, df in steps):
        raise ValueError("slopes between consecutive breakpoints must be finite")


def soft_agents_by_loop(path, data):
    """The soft-agent JSON reader as a loop over agents, written out in plain
    Python and ``np.interp``: the thresholds, then ``(sizes, us, fs)`` per
    branch, or the ``ValueError`` naming the first agent at fault. An
    ``f_minus`` that cannot be read is named after any fault of ``f_plus``, and
    the exact running total of the agents' largest branch values last."""
    alphas, betas, branches, total = [], [], ([], []), 0.0
    for k, entry in enumerate(data):
        try:
            alpha, beta = float(entry["alpha"]), float(entry["beta"])
            for key, knots in zip(("f_plus", "f_minus"), branches):
                try:
                    pts = [(float(u), float(f)) for u, f in entry[key]]
                except (KeyError, TypeError, ValueError, OverflowError):
                    if key == "f_minus":
                        _check_steps(branches[0][-1])
                    raise
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
                _check_steps(knots[-1])
            f_plus, f_minus = (list(zip(*knots[-1])) for knots in branches)
            probes = sorted({beta, alpha}
                            | {u for u in f_plus[0] if beta <= u <= alpha}
                            | {u for u in f_minus[0] if beta <= u <= alpha})
            for u in probes:
                if np.interp(u, *f_minus) < np.interp(u, *f_plus):
                    raise ValueError(f"descending branch below ascending branch at u={u}")
            total += Fraction(max(map(abs, f_plus[1]))) + Fraction(max(map(abs, f_minus[1])))
            if total >= ROUNDS_TO_INF:
                raise ValueError("total branch value overflows")
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
    the last being an exact running total of the capacities that rounds to a double."""
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
        total += Fraction(v)
        if total >= ROUNDS_TO_INF:
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

"""Aggregation of rectangular binary agents, with two evaluation routes.

``eval_direct`` is the definition: each agent is a rectangular relay, the
aggregate output is the capacity-weighted sum of relay states. It costs
O(agents) per input move and serves as the oracle for everything else.

``eval_geometric`` is the fast route: agents are binned by threshold pair
into a triangular grid (``WeightGrid``); the up-set under a staircase
memory is a union of one rectangle per stored vertex pair, so the output
is assembled from O(stored pairs) summed-area-table lookups, independent of
the agent count. Grid cells act as point masses at their centers, which
makes the two routes agree exactly whenever no history extremum needs to
split a cell.

Also here: cycle tracing (``minor_loop``), the translation-adjusted loop
comparison (``check_congruency``), the vertical-chord formula
(``vertical_chord``: twice the capacity inside the rectangle spanned by the
cycle bounds and the probe input, a history-independent quantity), and the
split of the output into its history-carrying band contribution and the
part forced by the current input (``decompose_classical``). What every
relay model and its simulator share lives here as well (``_RelayModel``,
``_RelaySimulator``), and so does ``_relay_fault``, the one validity rule
every relay agent is checked by.

A relay simulator does not pay O(agents) per move: each relay model sorts
its thresholds once (``_RelayIndex``), and a leg switches only the relays
whose threshold it crosses, in O(log n + crossed). Capacity sums over a
threshold range come from exact integer prefix sums (``_ExactCapacities``),
rounded once, which is the Everett-function view of the output (Mayergoyz,
*Mathematical Models of Hysteresis*) taken exactly.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hysteron import relay_fold
from .memory import (
    FALLING,
    INITIAL,
    RISING,
    StaircaseMemory,
    push_extremum,
    starting_memory,
)
from .signal import ReversalSequence, require_valid


def require_cycle(u_minus: float, u_plus: float, n_points: int = 2) -> None:
    """Reject a cycle that cannot be sampled: non-finite or empty bounds, or
    fewer than two points on it."""
    if not (math.isfinite(u_minus) and math.isfinite(u_plus)):
        raise ValueError("cycle bounds must be finite")
    if u_minus >= u_plus:
        raise ValueError(f"empty cycle: [{u_minus!r}, {u_plus!r}]")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")


def _require_in_cycle(u_minus: float, u_plus: float, u: float) -> None:
    if not (u_minus <= u <= u_plus):
        raise ValueError(
            f"outside cycle: u={u!r} not within [{u_minus!r}, {u_plus!r}]"
        )


class _RelayModel:
    """What every relay model shares.

    A relay model has thresholds ``alpha``/``beta`` and differs from the
    others only in the value they are compared with (``up_compare`` and
    ``down_compare``: the identity here, the sliding maps of ``ShiftModel``)
    and in ``output``, its readout of the relay states. ``parts`` splits
    that readout with the relay ``weight`` and the state-free ``offset``.
    """

    def up_compare(self, u: float) -> float:
        """The value compared against up-thresholds when the input is at ``u``."""
        return u

    def down_compare(self, u: float) -> float:
        """The value compared against down-thresholds at ``u``."""
        return u

    def support_bounds(self) -> tuple[float, float]:
        """Smallest closed interval containing every threshold."""
        return float(self.beta.min()), float(self.alpha.max())  # alpha >= beta

    def __len__(self) -> int:
        return int(self.alpha.size)

    def weight(self, u: float) -> np.ndarray:
        """What each relay's state counts for in the output at ``u``."""
        return self.nu

    def offset(self, u: float) -> float:
        """The part of the output at ``u`` that no relay state carries."""
        return 0.0

    def parts(self, states: np.ndarray, u: float) -> tuple[float, float, float]:
        """The output at ``u`` as its band, forced and offset parts, which add up to it.

        The forced part counts each relay outside the band in its own state,
        which ``u`` alone fixes only after the input first rises, away from ties."""
        w = self.weight(u)
        up = self.alpha <= self.up_compare(u)
        down = ~up & (self.beta >= self.down_compare(u))
        signed = w * states
        forced = math.fsum(signed[up]) + math.fsum(signed[down])
        return self.band_sum(w, states, u), forced, self.offset(u)

    @functools.cached_property
    def _index(self) -> _RelayIndex:
        return _RelayIndex(self)

    def fold(self, steps) -> np.ndarray:
        """Relay states after ``(value, rising)`` steps, starting all-DOWN.

        The states of :func:`relay_fold`, switching only the relays each step
        crosses (``_RelayIndex.crossed``); the steps must be those of one input
        path, each leg starting where the one before it ended.
        """
        states = np.full(self.alpha.shape, -1.0)
        last = None  # where the last leg ended, once the input has risen
        for value, rising in steps:
            crossed, state = self._index.crossed(last, value, rising)
            states[crossed] = state
            if rising or last is not None:
                last = value
        return states

    def band_sum(self, weight: np.ndarray, states: np.ndarray, u: float) -> float:
        """Signed ``weight`` of the relays still bistable at ``u``: the
        only ones whose state depends on the history."""
        band = (self.alpha > self.up_compare(u)) & (self.beta < self.down_compare(u))
        return math.fsum(weight[band] * states[band])

    def flipped(self, u_minus: float, u_plus: float, u: float) -> np.ndarray:
        """Mask of the relays the steady cycle ``[u_minus, u_plus]`` flips at ``u``.

        Up-threshold in ``(u, u_plus]`` and down-threshold in
        ``[u_minus, u)``, each bound taken through the compare maps.
        """
        _require_in_cycle(u_minus, u_plus, u)
        return (
            (self.alpha > self.up_compare(u))
            & (self.alpha <= self.up_compare(u_plus))
            & (self.beta >= self.down_compare(u_minus))
            & (self.beta < self.down_compare(u))
        )

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        """Vertical gap of the steady cycle at ``u``: twice the weight at ``u``
        of the relays the cycle flips (``flipped``)."""
        return 2.0 * math.fsum(self.weight(u)[self.flipped(u_minus, u_plus, u)])


class _RelayIndex:
    """A relay model's thresholds sorted once, so that a leg switches only the
    relays it crosses: O(log n + crossed) per leg instead of O(agents).

    Every range is taken by value, so relays with tied thresholds always move
    together and the sort need not be stable.
    """

    def __init__(self, model: _RelayModel):
        self.model = model
        self.by_alpha = np.argsort(model.alpha)
        self.alpha = model.alpha[self.by_alpha]
        self.by_beta = np.argsort(model.beta)
        self.beta = model.beta[self.by_beta]

    def up_to(self, a: float) -> int:
        """How many relays have an up-threshold ``<= a``: ``by_alpha[:up_to(a)]``."""
        return int(self.alpha.searchsorted(a, "right"))

    def down_from(self, d: float) -> int:
        """Where the relays with a down-threshold ``>= d`` start: ``by_beta[down_from(d):]``."""
        return int(self.beta.searchsorted(d, "left"))

    def alpha_within(self, lo: float, hi: float) -> np.ndarray:
        """The relays with ``lo <= alpha <= hi``."""
        return self.by_alpha[self.alpha.searchsorted(lo, "left"):self.up_to(hi)]

    def beta_within(self, lo: float, hi: float) -> np.ndarray:
        """The relays with ``lo <= beta <= hi``."""
        return self.by_beta[self.down_from(lo):self.beta.searchsorted(hi, "right")]

    def crossed(self, c, v: float, rising: bool) -> tuple[np.ndarray, int]:
        """The relays a leg from ``c`` to ``v`` may switch, and the state it gives them.

        ``c`` is None before the input first rises, when every relay is DOWN:
        a rise then switches UP every ``alpha <= up(v)`` and a fall nothing.
        After it, the relays with ``alpha`` below both ``up(c)`` and
        ``down(c)`` are UP and those with ``beta`` above both are DOWN, so a
        rise needs only ``alpha`` in ``[min(up(c), down(c)), up(v)]`` and a
        fall only ``beta`` in ``[down(v), max(down(c), up(c))]``. Both bounds
        are needed: ``g2 <= g1`` does not make ``up(c) <= down(c)`` in floats.
        """
        m = self.model
        if rising:
            lo = -math.inf if c is None else min(m.up_compare(c), m.down_compare(c))
            return self.alpha_within(lo, m.up_compare(v)), 1
        if c is None:
            return self.by_beta[:0], -1
        return self.beta_within(m.down_compare(v), max(m.down_compare(c), m.up_compare(c))), -1


_LIMB = 30  # bits per limb: a sum of n limbs stays exact in int64 while n < 2**33


class _ExactCapacities:
    """A relay model's capacities as exact integers ``I_k = nu_k * 2**K``.

    Each ``I_k`` is kept as 30-bit int64 limbs, with prefix sums of the limbs
    in the index's alpha order and beta order, so any sum of capacities over
    a threshold range is exact after two lookups. Python ints join the limbs,
    and ``int / 2**K`` rounds the exact sum once, correctly: the bits of
    ``math.fsum``, which also rounds the exact sum once.
    """

    def __init__(self, nu: np.ndarray, index: _RelayIndex):
        mant, exp = np.frexp(nu)
        mant = (mant * 2.0 ** 53).astype(np.int64)  # nu = mant * 2**(exp - 53), exactly
        exp = exp.astype(np.int64) - 53
        live = mant != 0
        self.scale = max(0, -int(exp[live].min())) if live.any() else 0  # K
        q, r = np.divmod(np.where(live, exp + self.scale, 0), _LIMB)
        # mant << r spans limbs q, q + 1 and q + 2
        rows, mask = np.arange(nu.size), (1 << _LIMB) - 1
        self.limbs = np.zeros((nu.size, int(q.max(initial=0)) + 3), dtype=np.int64)
        self.limbs[rows, q] = (mant & ((1 << (_LIMB - r)) - 1)) << r
        self.limbs[rows, q + 1] = (mant >> (_LIMB - r)) & mask
        self.limbs[rows, q + 2] = mant >> (2 * _LIMB - r)
        self.index = index
        self.by_alpha, self.by_beta = (
            np.concatenate((np.zeros((1, self.limbs.shape[1]), np.int64),
                            np.cumsum(self.limbs[order], axis=0)))
            for order in (index.by_alpha, index.by_beta))

    @staticmethod
    def _join(limbs: np.ndarray) -> int:
        return sum(x << (_LIMB * j) for j, x in enumerate(limbs.tolist()))

    def sum_of(self, relays: np.ndarray) -> int:
        """``sum(I_k)`` over ``relays``."""
        return self._join(self.limbs[relays].sum(axis=0)) if relays.size else 0

    def signed_total(self, states: np.ndarray) -> int:
        """``sum(s_k * I_k)`` over every relay."""
        return self._join(states.astype(np.int64) @ self.limbs)

    def band(self, total: int, states: np.ndarray, u: float, risen: bool) -> float:
        """The signed capacity of the relays still bistable at ``u``, from
        ``total = signed_total(states)``; ``states`` must be those of an input
        path that is at ``u`` and has ``risen`` or not.

        The band is the total minus the forced relays. Those with only
        ``alpha <= up(u)`` are UP once the input has risen (DOWN before), those
        with only ``beta >= down(u)`` are DOWN, and the tie set in both counts
        with its own states.
        """
        index, m = self.index, self.index.model
        a, d = m.up_compare(u), m.down_compare(u)
        up = self._join(self.by_alpha[index.up_to(a)])
        down = self._join(self.by_beta[-1] - self.by_beta[index.down_from(d)])
        tie = index.alpha_within(d, a)
        tie = tie[m.beta[tie] >= d]
        tie_all, tie_up = self.sum_of(tie), self.sum_of(tie[states[tie] > 0])
        forced = (up - tie_all) * (1 if risen else -1) - (down - tie_all) + 2 * tie_up - tie_all
        return (total - forced) / (1 << self.scale)


class _RelaySimulator:
    """Relay states of one input path, kept with the path's staircase memory.

    It starts from ``fold`` of its memory's steps, and a push switches only
    the relays its leg crosses (``_RelayIndex``). The per-kind subclasses
    exist so that each kind is a type of its own; all of them read out
    through their model's ``output`` and ``parts``.
    """

    def __init__(self, model: _RelayModel, memory: StaircaseMemory):
        self.model = model
        self.memory = memory
        self.states = model.fold(memory.steps())

    def push(self, u) -> None:
        u = float(u)
        mem = self.memory
        if u == mem.current_u:
            return
        self._switch(*self.model._index.crossed(mem.current_u if mem.risen else None,
                                                 u, u > mem.current_u))
        self.memory = push_extremum(mem, u)

    def _switch(self, crossed: np.ndarray, state: int) -> None:
        self.states[crossed] = state

    def value(self) -> float:
        return self.model.output(self.states, self.memory.current_u)

    def parts(self) -> tuple[float, float, float]:
        return self.model.parts(self.states, self.memory.current_u)


class PopulationSimulator(_RelaySimulator):
    """Relay-state tracker for one input path over a population."""


def _relay_fault(alpha, beta, nu):
    """``(k, message)`` for the first relay agent at fault and its first failed
    check, or None: finite ``alpha``, ``beta`` and ``nu``; ``alpha >= beta``; ``nu >= 0``."""
    rules = np.vstack([~np.isfinite([alpha, beta, nu]), alpha < beta, nu < 0])
    if not rules.any():
        return None
    k = int(np.argmax(rules.any(0)))
    rule = int(np.argmax(rules[:, k]))
    a, b, v = float(alpha[k]), float(beta[k]), float(nu[k])
    return k, (*(f"non-finite {name}" for name in ("alpha", "beta", "nu")),
               f"alpha < beta ({a!r} < {b!r})", f"negative capacity {v!r}")[rule]


class AgentPopulation(_RelayModel):
    """A finite set of rectangular agents stored as parallel arrays.

    Duplicate threshold pairs are allowed; their capacities simply add.
    Summation order is the fixed agent order, so outputs are reproducible.
    """

    def __init__(self, alpha, beta, nu):
        alpha, beta, nu = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (alpha, beta, nu))
        if not (alpha.shape == beta.shape == nu.shape) or alpha.ndim != 1:
            raise ValueError("alpha, beta, nu must be 1-d arrays of equal length")
        fault = _relay_fault(alpha, beta, nu)
        if fault is not None:
            raise ValueError(f"agent {fault[0]}: {fault[1]}")
        self.alpha, self.beta, self.nu = alpha, beta, nu

    def output(self, states: np.ndarray, u: float) -> float:
        return float(self.nu @ states)

    def simulator(self, start_u=None, memory: StaircaseMemory | None = None):
        return PopulationSimulator(self, starting_memory(start_u, memory))

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        # np.sum, not fsum: fsum changes the bits of 103 in 300 random chords at 5e4 agents
        return 2.0 * float(self.nu[self.flipped(u_minus, u_plus, u)].sum())


def eval_direct(pop: AgentPopulation, seq: ReversalSequence) -> np.ndarray:
    """Aggregate output along a reversal sequence, one relay per agent.

    Returns ``len(seq) + 1`` outputs: in the initial state, all agents
    DOWN, then after each reversal.
    """
    require_valid(seq)
    states = np.full(len(pop), -1.0)
    out = [pop.output(states, seq.start_u)]
    for value, rising in seq.steps():
        relay_fold(pop.alpha, pop.beta, [(value, rising)], states)
        out.append(pop.output(states, value))
    return np.array(out)


class WeightGrid:
    """Cell-binned weight over the triangle beta0 <= beta <= alpha <= alpha0.

    ``cell_mass[i, j]`` is the capacity whose up-threshold falls in cell row
    i and down-threshold in cell column j; cells strictly above the diagonal
    must be empty. Queries treat each cell as a point mass at its center.
    The summed-area table is kept in extended precision so that region sums
    stay exact to ~1 ulp of the double-precision masses even at fine
    resolutions.
    """

    def __init__(self, beta0: float, alpha0: float, cell_mass):
        self.beta0, self.alpha0 = _grid_bounds(beta0, alpha0)
        cell_mass = np.asarray(cell_mass, dtype=float)
        if cell_mass.ndim != 2 or cell_mass.shape[0] != cell_mass.shape[1]:
            raise ValueError("cell_mass must be a square matrix")
        if not np.isfinite(cell_mass).all() or (cell_mass < 0).any():
            raise ValueError("cell masses must be finite and non-negative")
        n = cell_mass.shape[0]
        if n < 2:
            raise ValueError("grid needs at least 2 cells per axis")
        if np.triu(cell_mass, 1).any():
            raise ValueError("cells with alpha < beta must carry zero mass")
        self.n = n
        self.cell_mass = cell_mass
        self.cell_width = (self.alpha0 - self.beta0) / n
        self.centers = self.beta0 + (np.arange(n) + 0.5) * self.cell_width
        self._center_list = self.centers.tolist()  # bisect: ~10x a scalar searchsorted
        self.prefix = self._build_prefix(cell_mass)
        self.total_mass = float(self.prefix[n, n])

    @staticmethod
    def _build_prefix(cell_mass: np.ndarray) -> np.ndarray:
        n = cell_mass.shape[0]
        prefix = np.zeros((n + 1, n + 1), dtype=np.longdouble)
        body = prefix[1:, 1:]
        body[...] = cell_mass
        np.cumsum(body, axis=0, out=body)  # in place: no table-sized temporaries
        np.cumsum(body, axis=1, out=body)
        return prefix

    # Index cuts mirror the relay tie-breaks: a rise to v switches cells
    # whose center alpha is <= v; a fall to v leaves up only centers < v.
    def icut_up(self, v: float) -> int:
        return bisect_right(self._center_list, v)

    def jcut_down(self, v: float) -> int:
        return bisect_left(self._center_list, v)

    def rect_mass(self, i0: int, i1: int, j0: int, j1: int) -> float:
        """Mass of cell rows [i0, i1) x cols [j0, j1), empty ranges giving 0."""
        i0 = max(i0, 0)
        j0 = max(j0, 0)
        i1 = min(i1, self.n)
        j1 = min(j1, self.n)
        if i0 >= i1 or j0 >= j1:
            return 0.0
        return float(_strip(self.prefix, i1, j0, j1, i0))

    def support_bounds(self) -> tuple[float, float]:
        return self.beta0, self.alpha0

    def simulator(self, start_u=None, memory: StaircaseMemory | None = None):
        return GridSimulator(self, starting_memory(start_u, memory))

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        _require_in_cycle(u_minus, u_plus, u)
        return 2.0 * self.rect_mass(
            self.icut_up(u), self.icut_up(u_plus), self.jcut_down(u_minus), self.jcut_down(u)
        )


class GridSimulator:
    """Staircase-memory tracker evaluating through the summed-area table.

    ``cuts[k]`` and ``strips[k]`` are stored vertex pair k's column cut and
    up-set strip (those of ``_up_mass``); one more entry holds the live
    link's sweep while rising. A push recomputes only the entries past the
    pairs it kept, so a step costs O(erased pairs + 1) table lookups, and a
    readout sums the same strips in the same order as ``_up_mass``.
    """

    def __init__(self, grid: WeightGrid, memory: StaircaseMemory):
        self.grid = grid
        self.memory = memory
        self.cuts: list[int] = []
        self.strips = np.zeros(len(memory.vertex_pairs) + 16, dtype=np.longdouble)
        self._restack(0)

    def _restack(self, keep: int) -> None:
        """Recompute the stack entries from ``keep`` on; those before are current."""
        grid, mem, cuts = self.grid, self.memory, self.cuts
        pairs = mem.vertex_pairs
        depth = len(pairs) + (mem.trend == RISING)
        if depth > self.strips.size:
            self.strips = np.concatenate((self.strips[:keep], np.zeros(2 * depth, np.longdouble)))
        del cuts[keep:]
        for k in range(keep, depth):
            if k < len(pairs):
                row, col_up = grid.icut_up(pairs[k][0]), grid.jcut_down(pairs[k][1])
            else:
                row, col_up = grid.icut_up(mem.current_u), grid.n
            self.strips[k] = _strip(grid.prefix, row, cuts[-1] if cuts else 0, col_up)
            cuts.append(col_up)

    def push(self, u) -> None:
        if float(u) != self.memory.current_u:
            self.memory = mem = push_extremum(self.memory, float(u))
            # a fall replaces the innermost pair; a rise only erases pairs
            self._restack(max(len(mem.vertex_pairs) - (mem.trend == FALLING), 0))

    def value(self) -> float:
        return eval_geometric(self.grid, self.memory, self.strips[:len(self.cuts)])

    def parts(self) -> tuple[float, float, float]:
        return (*decompose_classical(self.grid, self.memory), 0.0)


def _grid_bounds(beta0: float, alpha0: float) -> tuple[float, float]:
    """Grid bounds as floats; they must be finite with ``beta0 < alpha0``."""
    beta0, alpha0 = float(beta0), float(alpha0)
    if not -math.inf < beta0 < alpha0 < math.inf:  # nan fails too
        raise ValueError(f"invalid bounds ({beta0!r}, {alpha0!r})")
    return beta0, alpha0


def from_agents(pop: AgentPopulation, n: int, bounds: tuple[float, float]) -> WeightGrid:
    """Bin a population into an n x n grid over ``bounds = (beta0, alpha0)``.

    Binning is conservative: the total grid mass equals the summed agent
    capacity. Agents must lie inside the bounds.
    """
    beta0, alpha0 = _grid_bounds(*bounds)
    outside = np.flatnonzero((pop.alpha > alpha0) | (pop.beta < beta0))  # alpha >= beta
    if outside.size:
        k = int(outside[0])
        raise ValueError(
            f"agent out of range: agent {k} with "
            f"(alpha={float(pop.alpha[k])!r}, beta={float(pop.beta[k])!r}) "
            f"outside bounds ({beta0!r}, {alpha0!r})"
        )
    width = (alpha0 - beta0) / n
    rows = np.clip(((pop.alpha - beta0) / width).astype(int), 0, n - 1)
    cols = np.clip(((pop.beta - beta0) / width).astype(int), 0, n - 1)
    cell_mass = np.bincount(rows * n + cols, weights=pop.nu, minlength=n * n).reshape(n, n)
    return WeightGrid(beta0, alpha0, cell_mass)


def uniform_grid(density: float, n: int, bounds: tuple[float, float]) -> WeightGrid:
    """Grid for a constant weight ``density`` over the support triangle.

    Diagonal cells carry half a cell of mass (the triangular sliver below
    alpha = beta), so the total is density * triangle area exactly.
    """
    beta0, alpha0 = float(bounds[0]), float(bounds[1])
    width = (alpha0 - beta0) / n
    cell = density * width * width
    mass = np.zeros((n, n))
    rows, cols = np.indices((n, n))
    mass[rows > cols] = cell
    mass[rows == cols] = 0.5 * cell
    return WeightGrid(beta0, alpha0, mass)


class SupportError(ValueError):
    """A history leaves the threshold triangle a weight grid covers."""


def _require_in_support(grid: WeightGrid, mem: StaircaseMemory) -> None:
    if mem.trend == INITIAL:
        return
    lo, hi = mem.extrema_bounds()
    if lo < grid.beta0 or hi > grid.alpha0:
        raise SupportError(
            f"out of triangle T: history spans [{lo!r}, {hi!r}] but the grid "
            f"supports [{grid.beta0!r}, {grid.alpha0!r}]"
        )


def _strip(p: np.ndarray, rows, col_lo, col_up, row_lo=0):
    """Mass of rows [row_lo, rows) x cols [col_lo, col_up) on the summed-area table ``p``."""
    return p[rows, col_up] - p[row_lo, col_up] - p[rows, col_lo] + p[row_lo, col_lo]


def _up_mass(grid: WeightGrid, mem: StaircaseMemory, row_lo: int = 0, col_hi=None) -> float:
    """Mass of the up-set, optionally clipped to rows >= row_lo, cols < col_hi.

    The up-set under a staircase is one rectangle of whole cells per stored
    vertex pair (columns between consecutive stored minima, rows up to the
    pair's maximum) plus, while rising, the sweep of the live link. All
    rectangles are resolved in one gather on the summed-area table, so the
    cost scales with the number of stored pairs, never the agent count.
    """
    if col_hi is None:
        col_hi = grid.n
    pairs = mem.vertex_pairs
    rising = mem.trend == RISING
    if not pairs and not rising:
        return 0.0
    if pairs:
        arr = np.asarray(pairs)
        rows = np.searchsorted(grid.centers, arr[:, 0], side="right")
        j_cuts = np.searchsorted(grid.centers, arr[:, 1], side="left")
        col_lo = np.concatenate(([0], j_cuts[:-1]))
        col_up = j_cuts
    else:
        rows = np.empty(0, dtype=int)
        col_lo = col_up = rows
    if rising:
        rows = np.append(rows, grid.icut_up(mem.current_u))
        col_lo = np.append(col_lo, col_up[-1] if col_up.size else 0)
        col_up = np.append(col_up, grid.n)
    rows = np.maximum(rows, row_lo)
    col_lo = np.minimum(col_lo, col_hi)
    col_up = np.minimum(col_up, col_hi)
    return float(_strip(grid.prefix, rows, col_lo, col_up, row_lo).sum())


def eval_geometric(grid: WeightGrid, mem: StaircaseMemory, strips=None) -> float:
    """Aggregate output for a staircase memory: up-mass minus down-mass.

    ``strips`` are the memory's up-set strips as ``GridSimulator`` keeps
    them; without them they are built from ``mem`` (``_up_mass``).
    """
    _require_in_support(grid, mem)
    up = _up_mass(grid, mem) if strips is None else float(strips.sum())
    return 2.0 * up - grid.total_mass


class Decomposition(NamedTuple):
    irreversible: float
    reversible: float


def decompose_classical(grid: WeightGrid, mem: StaircaseMemory) -> Decomposition:
    """Split the grid output at the memory's current input ``u``.

    The reversible part counts the cells whose state is forced by ``u``
    alone (up-thresholds at or below ``u`` minus down-thresholds at or above
    ``u``); the irreversible part is the signed mass of the bistable band,
    the only region where history matters. The two parts add back to
    ``eval_geometric`` for any memory of an input path: every cell is DOWN
    until the input first rises, and a cell centered at ``u`` is UP only after a rise.
    """
    _require_in_support(grid, mem)
    u = mem.current_u
    a = grid.icut_up(u)
    b = grid.jcut_down(u)
    n = grid.n
    forced_up = grid.rect_mass(0, a, 0, n)
    if not mem.risen:
        forced_up = -forced_up
    elif mem.trend != RISING:
        forced_up -= 2.0 * grid.rect_mass(b, a, b, a)  # the cell centered at u, if any
    forced_down = grid.rect_mass(0, n, b, n) - grid.rect_mass(0, a, b, n)
    reversible = forced_up - forced_down
    band_mass = grid.rect_mass(a, n, 0, b)
    up_in_band = _up_mass(grid, mem, row_lo=a, col_hi=b)
    irreversible = 2.0 * up_in_band - band_mass
    return Decomposition(irreversible=irreversible, reversible=reversible)


@dataclass(eq=False)
class LoopTrace:
    """Sampled ascending/descending branches of one input cycle.

    Both branches are tabulated on the same ascending input grid ``us``;
    ``f_ascending[k]`` and ``f_descending[k]`` are the outputs at ``us[k]``
    on the way up and on the way down.
    """

    u_minus: float
    u_plus: float
    us: np.ndarray
    f_ascending: np.ndarray
    f_descending: np.ndarray

    def chord(self) -> np.ndarray:
        """Vertical gap between the branches at each grid input."""
        return self.f_descending - self.f_ascending


def minor_loop(model, history: ReversalSequence, u_minus: float, u_plus: float,
               n_points: int = 101) -> LoopTrace:
    """Trace the steady cycle between ``u_minus`` and ``u_plus``.

    The history is applied first, the input is led into the cycle, and one
    full unrecorded cycle is run so the recorded branches are the repeating
    loop (the first traverse after an arbitrary entry can still be wiping
    out old vertices; from the second cycle on the loop retraces itself).
    ``model`` is anything with a ``simulator(start_u)`` -- a population, a
    weight grid, or their generalized counterparts.
    """
    require_cycle(u_minus, u_plus, n_points)
    require_valid(history)

    sim = model.simulator(history.start_u)
    for v in history.extrema:
        sim.push(v)
    for v in (u_minus, u_plus, u_minus):
        sim.push(v)

    us = np.linspace(u_minus, u_plus, n_points)
    f_asc = np.empty(n_points)
    f_asc[0] = sim.value()
    for k in range(1, n_points):
        sim.push(us[k])
        f_asc[k] = sim.value()
    f_desc = np.empty(n_points)
    f_desc[-1] = f_asc[-1]
    for k in range(n_points - 2, -1, -1):
        sim.push(us[k])
        f_desc[k] = sim.value()
    return LoopTrace(
        u_minus=float(u_minus),
        u_plus=float(u_plus),
        us=us,
        f_ascending=f_asc,
        f_descending=f_desc,
    )


@dataclass(frozen=True)
class CongruencyReport:
    congruent: bool
    max_deviation: float


def _require_comparable(l1: LoopTrace, l2: LoopTrace) -> None:
    if (
        l1.u_minus != l2.u_minus
        or l1.u_plus != l2.u_plus
        or not np.array_equal(l1.us, l2.us)
    ):
        raise ValueError("incomparable loops: cycle bounds or input grids differ")


def check_congruency(l1: LoopTrace, l2: LoopTrace, tol: float = 1e-12) -> CongruencyReport:
    """Compare two loops up to a vertical translation.

    Both loops are anchored at their ascending start; the report carries
    the largest remaining branch deviation over both branches.
    """
    _require_comparable(l1, l2)
    shift1 = l1.f_ascending[0]
    shift2 = l2.f_ascending[0]
    d_asc = np.abs((l1.f_ascending - shift1) - (l2.f_ascending - shift2))
    d_desc = np.abs((l1.f_descending - shift1) - (l2.f_descending - shift2))
    dev = float(max(d_asc.max(), d_desc.max()))
    return CongruencyReport(congruent=dev <= tol, max_deviation=dev)


def vertical_chord(model, u_minus: float, u_plus: float, u: float) -> float:
    """Vertical gap of the steady cycle at input ``u``, from capacities alone.

    Twice the capacity of agents whose up-threshold lies in ``(u, u_plus]``
    and down-threshold in ``[u_minus, u)`` -- the agents that flip between
    the two branch passes. Boundary membership matches the relay
    tie-breaks, which is what makes this equal the sampled branch gap
    exactly. The answer does not depend on the history before the cycle.
    ``model`` is any model kind; each answers through its ``chord``.
    """
    return model.chord(u_minus, u_plus, u)

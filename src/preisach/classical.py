"""Aggregation of rectangular binary agents, with two evaluation routes.

``eval_direct`` is the definition: each agent is a rectangular relay, the
aggregate output is the capacity-weighted sum of relay states, taken exactly
and rounded once. It costs O(agents) per input move and is the oracle.

``eval_geometric`` is the fast route: agents are binned by threshold pair
into a triangular grid (``WeightGrid``); the up-set under a staircase
memory is a union of one rectangle per stored vertex pair, so the output
is assembled from O(stored pairs) summed-area-table lookups, independent of
the agent count. ``GridSimulator`` keeps those rectangles as a stack, the one
route from a memory to the table. Grid cells act as point masses at their
centers, which makes the two routes agree exactly whenever no history
extremum needs to split a cell. No cell above the diagonal carries mass, so
the table entry ``P[i, j]`` equals ``P[i, i]`` for ``j >= i``: only the lower
triangle is kept, packed row by row, and ``_strip`` reads any entry from it.
The table, built one cell row at a time, is all the grid keeps: ``from_agents``
bins each row of agents straight into it, with no matrix of cell masses.

Also here: cycle tracing (``minor_loop``), the translation-adjusted loop
comparison (``check_congruency``), the vertical-chord formula (each
model's ``chord``: twice the capacity inside the rectangle spanned by the
cycle bounds and the probe input, a history-independent quantity), and the
split of the output into its history-carrying band contribution and the
part forced by the current input (each simulator's ``parts``). What every
relay model and its simulator share lives here as well (``_RelayModel``,
``_RelaySimulator``), and so does ``_relay_fault``, the one validity rule
every relay agent is checked by.

A relay simulator does not pay O(agents) per move: each relay model sorts
its thresholds once (``_RelayIndex``), and a leg switches only the relays
whose threshold it crosses, in O(log n + crossed). The two capacity models,
``AgentPopulation`` and ``ShiftModel``, share one simulator (``_CapacitySimulator``)
that keeps the exact signed total and reads the output and its parts from it and
from integer prefix sums over threshold ranges (``_ExactCapacities``), each rounded
once, in O(log n + ties): the bits of ``math.fsum`` on any machine, and the
Everett-function view (Mayergoyz, *Mathematical Models of Hysteresis*) taken exactly.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
        which ``u`` alone fixes only after the input first rises, away from ties.
        O(agents): the soft model's route, and the capacity simulators' reference."""
        w = self.weight(u)
        up = self.alpha <= self.up_compare(u)
        down = ~up & (self.beta >= self.down_compare(u))
        signed = w * states
        forced = math.fsum(signed[up]) + math.fsum(signed[down])
        return self.band_sum(w, states, u), forced, self.offset(u)

    @functools.cached_property
    def _index(self) -> _RelayIndex:
        return _RelayIndex(self)

    @functools.cached_property
    def _exact(self) -> _ExactCapacities:
        return _ExactCapacities(self.nu, self._index)

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
        of the relays the cycle flips (``flipped``). Its tie-breaks are the
        relays', so it equals the sampled branch gap; no history enters."""
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

    Each ``I_k`` is kept as 30-bit int64 limbs (a row of ``limbs`` per limb),
    with prefix sums of the limbs in the index's alpha order and beta order, so
    any sum of capacities over a threshold range is exact after two lookups.
    Python ints join the limbs, and ``int / 2**K`` rounds the exact sum once,
    correctly: the bits of ``math.fsum``, which also rounds the exact sum once.
    """

    def __init__(self, nu: np.ndarray, index: _RelayIndex):
        mant, exp = np.frexp(nu)
        mant = (mant * 2.0 ** 53).astype(np.int64)  # nu = mant * 2**(exp - 53), exactly
        exp = exp.astype(np.int64) - 53
        live = mant != 0
        self.scale = max(0, -int(exp[live].min())) if live.any() else 0  # K
        q, r = np.divmod(np.where(live, exp + self.scale, 0), _LIMB)
        # mant << r spans limbs q, q + 1 and q + 2
        agents, mask = np.arange(nu.size), (1 << _LIMB) - 1
        self.limbs = np.zeros((int(q.max(initial=0)) + 3, nu.size), dtype=np.int64)
        self.limbs[q, agents] = (mant & ((1 << (_LIMB - r)) - 1)) << r
        self.limbs[q + 1, agents] = (mant >> (_LIMB - r)) & mask
        self.limbs[q + 2, agents] = mant >> (2 * _LIMB - r)
        self.index = index
        self.by_alpha, self.by_beta = np.zeros((2, len(self.limbs), nu.size + 1), np.int64)
        for order, prefix in ((index.by_alpha, self.by_alpha), (index.by_beta, self.by_beta)):
            np.cumsum(self.limbs.take(order, axis=1), axis=1, out=prefix[:, 1:])

    @staticmethod
    def _join(limbs) -> int:
        return sum(int(x) << (_LIMB * j) for j, x in enumerate(limbs))

    def sum_of(self, relays: np.ndarray) -> int:
        """``sum(I_k)`` over ``relays``."""
        return self._join([row[relays].sum() for row in self.limbs]) if relays.size else 0

    def signed_total(self, states: np.ndarray) -> int:
        """``sum(s_k * I_k)`` over every relay."""
        return self._join(self.limbs @ states.astype(np.int64))

    def parts(self, total: int, states: np.ndarray, u: float, risen: bool) -> tuple[float, float]:
        """The band and forced parts of the signed capacity at ``u``, from
        ``total = signed_total(states)``; ``states`` must be those of an input
        path that is at ``u`` and has ``risen`` or not.

        The forced relays are those with ``alpha <= up(u)``, UP once the input
        has risen (DOWN before), and the others with ``beta >= down(u)``, DOWN;
        the tie set in both counts with its own states. Each forced sum is rounded
        once, then the two are added; the band is the total minus both, rounded
        once: the bits of ``_RelayModel.parts``."""
        index, m = self.index, self.index.model
        a, d = m.up_compare(u), m.down_compare(u)
        tie = index.alpha_within(d, a)
        tie = tie[m.beta[tie] >= d]
        tie_all = self.sum_of(tie)
        up = self._join(self.by_alpha[:, index.up_to(a)]) - tie_all
        up = (up if risen else -up) + 2 * self.sum_of(tie[states[tie] > 0]) - tie_all
        down = tie_all - self._join(self.by_beta[:, -1] - self.by_beta[:, index.down_from(d)])
        scale = 1 << self.scale
        return (total - up - down) / scale, up / scale + down / scale


class _RelaySimulator:
    """Relay states of one input path, kept with the path's staircase memory.

    It starts from ``fold`` of its memory's steps, and a push switches only
    the relays its leg crosses (``_RelayIndex``). Each model kind has its own
    subclass, and none derives from another, so that a class picks out one kind
    (a benchmark tracer wraps ``push`` by class, and would count a subclass twice).
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
        self.memory = push_extremum(mem, u)  # first: a rejected u switches nothing
        self._switch(*self.model._index.crossed(mem.current_u if mem.risen else None,
                                                 u, u > mem.current_u))

    def _switch(self, crossed: np.ndarray, state: int) -> None:
        self.states[crossed] = state

    def value(self) -> float:
        return self.model.output(self.states, self.memory.current_u)

    def parts(self) -> tuple[float, float, float]:
        return self.model.parts(self.states, self.memory.current_u)


class _CapacitySimulator(_RelaySimulator):
    """A capacity model's simulator: it keeps the exact signed total, adds only the
    relays a push flips, and reads ``parts`` from it in O(log n + ties), bit for bit
    what ``_RelayModel.parts`` sums with ``math.fsum``."""

    def __init__(self, model: _RelayModel, memory: StaircaseMemory):
        super().__init__(model, memory)
        self.total = model._exact.signed_total(self.states)

    def _switch(self, crossed: np.ndarray, state: int) -> None:
        flipped = crossed[self.states[crossed] != state]
        self.states[flipped] = state
        self.total += 2 * state * self.model._exact.sum_of(flipped)

    def parts(self) -> tuple[float, float, float]:
        mem = self.memory
        return *self.model._exact.parts(self.total, self.states, mem.current_u, mem.risen), 0.0


class PopulationSimulator(_CapacitySimulator):
    """Relay-state tracker for one input path over a population; ``value`` is O(1)."""

    def value(self) -> float:
        return self.total / (1 << self.model._exact.scale)


def _relay_fault(alpha, beta, nu):
    """``(k, message)`` for the first relay agent at fault and its first failed
    check, or None: finite ``alpha``, ``beta`` and ``nu``; ``alpha >= beta``; ``nu >= 0``;
    and a running total of ``nu`` that stays finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.cumsum(nu)
    rules = np.vstack([~np.isfinite([alpha, beta, nu]), alpha < beta, nu < 0, ~np.isfinite(total)])
    if not rules.any():
        return None
    k = int(np.argmax(rules.any(0)))
    rule = int(np.argmax(rules[:, k]))
    a, b, v = float(alpha[k]), float(beta[k]), float(nu[k])
    return k, (*(f"non-finite {name}" for name in ("alpha", "beta", "nu")),
               f"alpha < beta ({a!r} < {b!r})", f"negative capacity {v!r}",
               "total capacity overflows")[rule]


class AgentPopulation(_RelayModel):
    """A finite set of rectangular agents stored as parallel arrays.

    Duplicate threshold pairs are allowed; their capacities simply add.
    The output, the capacity-weighted sum of the states, is taken exactly and rounded once.
    """

    def __init__(self, alpha, beta, nu):
        alpha, beta, nu = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (alpha, beta, nu))
        if not (alpha.shape == beta.shape == nu.shape) or alpha.ndim != 1:
            raise ValueError("alpha, beta, nu must be 1-d arrays of equal length")
        if not alpha.size:
            raise ValueError("at least one agent is required")
        fault = _relay_fault(alpha, beta, nu)
        if fault is not None:
            raise ValueError(f"agent {fault[0]}: {fault[1]}")
        self.alpha, self.beta, self.nu = alpha, beta, nu

    def output(self, states: np.ndarray, u: float) -> float:
        return self._exact.signed_total(states) / (1 << self._exact.scale)

    def simulator(self, start_u=None, memory: StaircaseMemory | None = None):
        return PopulationSimulator(self, starting_memory(start_u, memory))


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
    The grid keeps only the summed-area table of the masses, ``prefix``, in
    extended precision so that region sums stay exact to ~1 ulp of the
    double-precision masses even at fine resolutions. It holds the lower
    triangle, ``P[i, j]`` for ``j <= i`` with row i at offset ``i*(i+1)//2``:
    (n+1)(n+2)/2 entries, as the rest equals the diagonal (``P[i, j] ==
    P[i, i]`` for ``j >= i``). The masses themselves are not kept.
    """

    def __init__(self, beta0: float, alpha0: float, cell_mass):
        cell_mass = np.asarray(cell_mass, dtype=float)
        if cell_mass.ndim != 2 or cell_mass.shape[0] != cell_mass.shape[1]:
            raise ValueError("cell_mass must be a square matrix")
        self._build(beta0, alpha0, cell_mass.shape[0], cell_mass)

    @classmethod
    def _from_rows(cls, beta0: float, alpha0: float, n: int, rows) -> WeightGrid:
        """The grid of n cell rows given one at a time, with no n x n matrix."""
        grid = cls.__new__(cls)
        grid._build(beta0, alpha0, n, rows)
        return grid

    def _build(self, beta0: float, alpha0: float, n: int, rows) -> None:
        """Set up the grid and its packed table from its cell rows, in order.

        Row i - 1 goes in as its first i cells or all n of them. These are the
        additions of ``cumsum(0).cumsum(1)`` on the square table, in the same
        order, so each entry has the same bits (but ``-0.0`` masses may sum
        to ``+0.0``). Each row is checked as it arrives."""
        self.beta0, self.alpha0 = _grid_bounds(beta0, alpha0, n)
        self.n = n
        self.cell_width = (self.alpha0 - self.beta0) / n
        self.centers = self.beta0 + (np.arange(n) + 0.5) * self.cell_width
        self._center_list = self.centers.tolist()  # bisect: ~10x a scalar searchsorted
        self.prefix = prefix = np.zeros((n + 1) * (n + 2) // 2, dtype=np.longdouble)
        cols = np.zeros(n, dtype=np.longdouble)  # column sums of the rows so far
        for i, row in enumerate(rows, 1):
            if not (0.0 <= row.min() and row.max() < math.inf):  # nan fails too
                raise ValueError("cell masses must be finite and non-negative")
            if row.size > i and row[i:].any():  # the size test: ~2 us less per row of i cells
                raise ValueError("cells with alpha < beta must carry zero mass")
            cols[:i] += row[:i]
            start = i * (i + 1) // 2
            np.cumsum(cols[:i], out=prefix[start + 1:start + i + 1])
        self.total_mass = float(prefix[-1])  # P[n, n]

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

    The up-set under a staircase is one rectangle of whole cells per stored
    vertex pair (rows up to its maximum, columns from the last cut to its
    minimum's) plus, while rising, the live link's sweep: stack entry k is
    ``rows[k]``, ``cuts[k]`` and its mass ``strips[k]``. A push recomputes only
    the entries past the pairs it kept: O(erased pairs + 1) table lookups.
    """

    def __init__(self, grid: WeightGrid, memory: StaircaseMemory):
        self.grid = grid
        self.memory = memory
        self.rows: list[int] = []
        self.cuts: list[int] = []
        self.strips = np.zeros(len(memory.vertex_pairs) + 16, dtype=np.longdouble)
        self._restack(0)

    def _restack(self, keep: int) -> None:
        """Recompute the stack entries from ``keep`` on; those before are current."""
        grid, mem, rows, cuts = self.grid, self.memory, self.rows, self.cuts
        pairs = mem.vertex_pairs
        depth = len(pairs) + (mem.trend == RISING)
        if depth > self.strips.size:
            self.strips = np.concatenate((self.strips[:keep], np.zeros(2 * depth, np.longdouble)))
        del rows[keep:], cuts[keep:]
        for k in range(keep, depth):
            if k < len(pairs):
                row, col_up = grid.icut_up(pairs[k][0]), grid.jcut_down(pairs[k][1])
            else:
                row, col_up = grid.icut_up(mem.current_u), grid.n
            self.strips[k] = _strip(grid.prefix, row, cuts[-1] if cuts else 0, col_up)
            rows.append(row)
            cuts.append(col_up)

    def push(self, u) -> None:
        if float(u) != self.memory.current_u:
            self.memory = mem = push_extremum(self.memory, float(u))
            # a fall replaces the innermost pair; a rise only erases pairs
            self._restack(max(len(mem.vertex_pairs) - (mem.trend == FALLING), 0))

    def value(self) -> float:
        return eval_geometric(self.grid, self.memory, self.strips[:len(self.cuts)])

    def parts(self) -> tuple[float, float, float]:
        """The output at the input ``u`` as its band, forced and (zero) offset parts.

        The forced part counts the cells ``u`` alone fixes (up-thresholds at or
        below ``u`` minus down-thresholds at or above it); the band part, the only
        one history enters, clips the stack to the bistable band. They add up to
        ``value``: cells are DOWN until the input first rises, and one centered
        at ``u`` is UP only after a rise."""
        grid, mem = self.grid, self.memory
        _require_in_support(grid, mem)
        a, b, n = grid.icut_up(mem.current_u), grid.jcut_down(mem.current_u), grid.n
        forced_up = grid.rect_mass(0, a, 0, n)
        if not mem.risen:
            forced_up = -forced_up
        elif mem.trend != RISING:
            forced_up -= 2.0 * grid.rect_mass(b, a, b, a)  # the cell centered at u, if any
        forced_down = grid.rect_mass(0, n, b, n) - grid.rect_mass(0, a, b, n)
        rows = np.maximum(np.array(self.rows, int), a)  # int also when the stack is empty
        cols = np.minimum([0, *self.cuts], b)
        up = _strip(grid.prefix, rows, cols[:-1], cols[1:], a)
        return 2.0 * float(up.sum()) - grid.rect_mass(a, n, 0, b), forced_up - forced_down, 0.0


def _grid_bounds(beta0: float, alpha0: float, n: int) -> tuple[float, float]:
    """Grid bounds as floats: ``beta0 < alpha0`` with a finite width (so both are finite),
    and ``n >= 2`` cells per axis. Builders check before they divide by n."""
    beta0, alpha0 = float(beta0), float(alpha0)
    if not (beta0 < alpha0 and math.isfinite(alpha0 - beta0)):  # nan and inf fail too
        raise ValueError(f"invalid bounds ({beta0!r}, {alpha0!r})")
    if n < 2:
        raise ValueError("grid needs at least 2 cells per axis")
    return beta0, alpha0


def from_agents(pop: AgentPopulation, n: int, bounds: tuple[float, float]) -> WeightGrid:
    """Bin a population into an n x n grid over ``bounds = (beta0, alpha0)``.

    Binning is conservative: the total grid mass equals the summed agent
    capacity. Agents must lie inside the bounds.
    """
    beta0, alpha0 = _grid_bounds(*bounds, n)
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
    cols = np.clip(((pop.beta - beta0) / width).astype(int), 0, n - 1)  # <= rows
    # a stable sort keeps each cell's additions in agent order; rows that fit
    # 16 bits take numpy's radix sort, ~9x faster than sorting int64
    order = np.argsort(rows.astype(np.min_scalar_type(n - 1)), kind="stable")
    cols, nu = cols[order], pop.nu[order]
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    del rows, order  # not held while the table is built
    return WeightGrid._from_rows(beta0, alpha0, n, (
        np.bincount(cols[start:end], weights=nu[start:end], minlength=i)
        for i, start, end in zip(range(1, n + 1), [0, *ends], ends)))


def uniform_grid(density: float, n: int, bounds: tuple[float, float]) -> WeightGrid:
    """Grid for a constant weight ``density`` over the support triangle.

    Diagonal cells carry half a cell of mass (the triangular sliver below
    alpha = beta), so the total is density * triangle area exactly.
    """
    beta0, alpha0 = _grid_bounds(*bounds, n)
    width = (alpha0 - beta0) / n
    cell = density * width * width
    return WeightGrid._from_rows(beta0, alpha0, n,
                                 (np.append(np.full(i, cell), 0.5 * cell) for i in range(n)))


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
    """Mass of rows [row_lo, rows) x cols [col_lo, col_up) on the packed summed-area table ``p``.

    ``P[i, j]`` is ``p[i*(i+1)//2 + min(i, j)]``. Inline ``j - (j - i) * (j > i)``
    is that min for ints and int arrays alike, with no ufunc or function call
    on the step path (a call per entry adds about 3% to a grid step)."""
    r1, r0 = rows * (rows + 1) // 2, row_lo * (row_lo + 1) // 2  # where the two rows start
    return (p[r1 + col_up - (col_up - rows) * (col_up > rows)]
            - p[r0 + col_up - (col_up - row_lo) * (col_up > row_lo)]
            - p[r1 + col_lo - (col_lo - rows) * (col_lo > rows)]
            + p[r0 + col_lo - (col_lo - row_lo) * (col_lo > row_lo)])


def eval_geometric(grid: WeightGrid, mem: StaircaseMemory, strips=None) -> float:
    """Aggregate output for a staircase memory: up-mass minus down-mass.

    ``strips`` are the memory's up-set strips as ``GridSimulator`` keeps
    them; without them they are those of a simulator started from ``mem``.
    """
    _require_in_support(grid, mem)
    if strips is None:
        sim = GridSimulator(grid, mem)
        strips = sim.strips[:len(sim.cuts)]
    return 2.0 * float(strips.sum()) - grid.total_mass


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

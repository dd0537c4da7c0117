"""Aggregation of rectangular binary agents, with two evaluation routes.

``AgentPopulation.output`` is the definition: each agent is a rectangular relay,
the aggregate output is the capacity-weighted sum of relay states, taken exactly
and rounded once. It costs O(agents) per input move and is the oracle.

``eval_geometric`` is the fast route: agents are binned by threshold pair
into a triangular grid (``WeightGrid``); the up-set under a staircase
memory is a union of one rectangle per stored vertex pair, so the output
is assembled from O(stored pairs) summed-area-table lookups, independent of
the agent count. ``GridSimulator`` keeps those rectangles as a stack, the one
route from a memory to the table. Grid cells act as point masses at their
centers, and the table holds their exact integer sums, so every grid output is
one exact sum rounded once, and the two routes agree bit for bit whenever no
history extremum needs to split a cell. Only the table's lower triangle is kept
(no cell above the diagonal carries mass), packed row by row; built one cell
row at a time, it is all the grid keeps, with no matrix of cell masses.

Also here: cycle tracing (``minor_loop``), the one loop comparison
(``check_congruency``: branches up to a translation, and chords), the vertical-chord
formula (each model's ``chord``: twice the capacity inside the rectangle spanned by
the cycle bounds and the probe input, a history-independent quantity), and the split
of the output into its history-carrying band contribution and the part forced by the
current input (each simulator's ``parts``, over the relays of
``_RelayModel.masks``). What every relay model and its simulator share lives here as
well (``_RelayModel``, ``_RelaySimulator``), and so does ``_relay_fault``, the one
validity rule every relay agent is checked by: its exact total capacity must round
to a double, so every sum of capacities a readout forms does.

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

from .hysteron import _overflow_at
from .memory import (
    FALLING,
    INITIAL,
    RISING,
    StaircaseMemory,
    memory_from_sequence,
    push_extremum,
)
from .signal import ReversalSequence


def require_cycle(u_minus: float, u_plus: float, n_points: int = 2) -> np.ndarray:
    """The ``n_points`` evenly spaced inputs of a cycle that can be sampled: finite bounds,
    ``u_minus < u_plus`` a finite width apart, and at least two points. Inputs that cannot
    be allocated are named by ``n_points``."""
    if not (math.isfinite(u_minus) and math.isfinite(u_plus)):
        raise ValueError("cycle bounds must be finite")
    if u_minus >= u_plus:
        raise ValueError(f"empty cycle: [{u_minus!r}, {u_plus!r}]")
    if not math.isfinite(u_plus - u_minus):
        raise ValueError(f"cycle [{u_minus!r}, {u_plus!r}] is too wide: "
                         "its width is past the float range")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return _per_point(n_points, "inputs", np.linspace, u_minus, u_plus, n_points)


def _per_point(n_points: int, what: str, make, *args) -> np.ndarray:
    """``make(*args)``, an array of the cycle's ``what``; named by ``n_points`` if it cannot
    be allocated."""
    try:
        return make(*args)
    except (MemoryError, ValueError):  # numpy refuses a size past its index range at once
        raise ValueError(f"n_points={n_points} is too large: "
                         f"the cycle's {what} cannot be allocated") from None


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
    and in ``output``, its readout of the relay states: one exact sum rounded
    once, from the capacity ledger (``_ExactCapacities``) or, for soft agents,
    by ``math.fsum`` of their branch levels.
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

    def masks(self, u: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(band, up, down)``: the relays still bistable at ``u``, the only ones whose state
        depends on the history; those ``u`` forces UP (``alpha <= up(u)``), once the input
        has risen and away from ties; and the others it forces DOWN (``beta >= down(u)``)."""
        up = self.alpha <= self.up_compare(u)
        down = ~up & (self.beta >= self.down_compare(u))
        return ~(up | down), up, down

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
        last = -math.inf  # where the last leg ended, once the input has risen
        for value, rising in steps:
            crossed, state = self._index.crossed(last, value, rising)
            states[crossed] = state
            if rising or last > -math.inf:
                last = value
        return states

    def flipped(self, u_minus: float, u_plus: float, u: float) -> np.ndarray:
        """Mask of the relays the steady cycle ``[u_minus, u_plus]`` flips at ``u``: those of
        the band at ``u`` (``masks``) with ``alpha <= up(u_plus)`` and ``beta >= down(u_minus)``."""
        _require_in_cycle(u_minus, u_plus, u)
        return (self.masks(u)[0] & (self.alpha <= self.up_compare(u_plus))
                & (self.beta >= self.down_compare(u_minus)))

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        """Vertical gap of the steady cycle at ``u``: twice the capacity of the
        relays the cycle flips (``flipped``). Its tie-breaks are the relays',
        so it equals the sampled branch gap; no history enters."""
        return 2.0 * math.fsum(self.nu[self.flipped(u_minus, u_plus, u)])


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

        The relays with ``alpha`` below both ``up(c)`` and ``down(c)`` are UP and those
        with ``beta`` above both are DOWN, so a rise needs only ``alpha`` in ``[min(up(c),
        down(c)), up(v)]`` and a fall only ``beta`` in ``[down(v), max(down(c), up(c))]``.
        Both bounds are needed: ``g2 <= g1`` does not make ``up(c) <= down(c)`` in floats.
        Before the input first rises ``c`` is -inf: every relay is DOWN, as a fall to -inf
        leaves it. Every compare map sends -inf to -inf (``_composite_map``: ``u + g(first
        knot)``), so a rise takes every ``alpha <= up(v)`` and a fall ``[down(v), -inf]``, none.
        """
        m = self.model
        if rising:
            return self.alpha_within(min(m.up_compare(c), m.down_compare(c)), m.up_compare(v)), 1
        return self.beta_within(m.down_compare(v), max(m.down_compare(c), m.up_compare(c))), -1


def _limb_bits(n: int, word: int) -> int:
    """Bits per limb when n limbs are summed in a ``word``-bit integer (53 for float64,
    63 for int64): ``n * (2**bits - 1) < 2**word``."""
    return word - (n - 1).bit_length()


def _split(nu: np.ndarray, bits: int, dtype) -> tuple[int, np.ndarray]:
    """``(K, limbs)`` of finite ``nu >= 0``: a scale ``K >= 0`` at which each ``I_k = nu_k *
    2**K`` is an integer (the lowest place of every 53-bit significand), and each ``I_k``
    in column k of ``limbs`` as ``bits``-bit limbs, lowest first, as many as the largest needs."""
    mant, exp = np.frexp(nu)
    mant = (mant * 2.0 ** 53).astype(np.int64)  # nu = mant * 2**(exp - 53), exactly
    exp = exp.astype(np.int64) - 53
    live = mant != 0
    scale = max(0, -int(exp[live].min(initial=0)))
    q, r = np.divmod(np.where(live, exp + scale, 0), bits)
    # mant << r < 2**(52 + bits) spans limbs q to q + ceil(52 / bits)
    span, agents, mask = 1 - (-52 // bits), np.arange(nu.size), (1 << bits) - 1
    limbs = np.zeros((int(q.max(initial=0)) + span, nu.size), dtype)
    limbs[q, agents] = (mant & (mask >> r)) << r
    for j in range(1, span):  # numpy shifts past 63 bits give 0
        limbs[q + j, agents] = (mant >> (j * bits - r)) & mask
    top = int(exp[live].max(initial=-52 - scale)) + scale + 52  # the top bit of the largest I_k
    return scale, limbs[:top // bits + 1]


class _ExactCapacities:
    """A relay model's capacities as exact integers ``I_k = nu_k * 2**K``.

    Each ``I_k`` is kept as float64 limbs (``_split``, a row of ``limbs`` per limb), with
    prefix sums of the limbs in the index's alpha order and beta order, so any sum of
    capacities over a threshold range is exact after two lookups. Every partial sum of n
    limbs is an integer below 2**53 (``_limb_bits``), so float sums and BLAS products of
    them are exact in any order. Python ints join the limbs, and ``int / 2**K`` rounds
    the exact sum once, correctly: the bits of ``math.fsum``, which also rounds it once.
    """

    def __init__(self, nu: np.ndarray, index: _RelayIndex):
        self.bits = _limb_bits(nu.size, 53)
        self.scale, self.limbs = _split(nu, self.bits, float)
        self.index = index
        self.by_alpha, self.by_beta = np.zeros((2, len(self.limbs), nu.size + 1))
        for order, prefix in ((index.by_alpha, self.by_alpha), (index.by_beta, self.by_beta)):
            np.cumsum(self.limbs.take(order, axis=1), axis=1, out=prefix[:, 1:])

    def _join(self, limbs) -> int:
        return sum(int(x) << (self.bits * j) for j, x in enumerate(limbs))

    def sum_of(self, relays: np.ndarray) -> int:
        """``sum(I_k)`` over ``relays``."""
        return self._join([row[relays].sum() for row in self.limbs]) if relays.size else 0

    def signed_total(self, states: np.ndarray) -> int:
        """``sum(s_k * I_k)`` over every relay."""
        return self._join(self.limbs @ states)

    def parts(self, total: int, states: np.ndarray, u: float, risen: bool) -> tuple[float, float]:
        """The band and forced parts of the signed capacity at ``u``, from
        ``total = signed_total(states)``; ``states`` must be those of an input
        path that is at ``u`` and has ``risen`` or not.

        The forced relays are those with ``alpha <= up(u)``, UP once the input
        has risen (DOWN before), and the others with ``beta >= down(u)``, DOWN;
        the tie set in both counts with its own states. Each forced sum is rounded
        once, then the two are added; the band is the total minus both, rounded
        once: the bits of ``math.fsum`` over each of the ``masks``' signed capacities."""
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
        self._switch(*self.model._index.crossed(mem.current_u if mem.risen else -math.inf,
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
    what ``math.fsum`` gives over the relays of each of the model's ``masks``."""

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
    and an exact running total of ``nu`` that rounds to a double (``_overflow_at``)."""
    rules = np.vstack([~np.isfinite([alpha, beta, nu]), alpha < beta, nu < 0])
    m = int(np.argmax(rules.any(0))) if rules.any() else len(nu)
    over = _overflow_at(nu[:m])
    if over < m:
        return over, "total capacity overflows"
    if m == len(nu):
        return None
    a, b, v = float(alpha[m]), float(beta[m]), float(nu[m])
    messages = (*(f"non-finite {name}" for name in ("alpha", "beta", "nu")),
                f"alpha < beta ({a!r} < {b!r})", f"negative capacity {v!r}")
    return m, messages[int(np.argmax(rules[:, m]))]


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

    def simulator(self, memory: StaircaseMemory):
        return PopulationSimulator(self, memory)


class WeightGrid:
    """Cell-binned weight over the triangle beta0 <= beta <= alpha <= alpha0, built by
    ``from_agents``: cell ``[i, j]`` holds the capacity of the agents whose up-threshold
    falls in cell row i and down-threshold in cell column j, so no cell above the
    diagonal carries mass. Queries treat each cell as a point mass at its center.
    The grid keeps only the summed-area table of the masses, ``prefix``, exactly:
    the mass ``P[i, j]`` of rows [0, i) x cols [0, j) times ``2**scale`` is the sum
    of the masses' ``_split`` limbs, summed but never carried, and ``prefix[l]``
    holds limb l (int64, ``bits`` bits) of every entry. It holds the lower triangle,
    ``P[i, j]`` for ``j <= i`` at entry ``i*(i+1)//2 + j``: (n+1)(n+2)/2 entries,
    as the rest equals the diagonal. The masses themselves are not kept.
    """

    def __init__(self, geometry: tuple, scale: int, bits: int, limbs: int, rows):
        """Set up the grid of a ``_grid_geometry`` and its packed table from its cell rows,
        row i - 1 given as the ``limbs`` x i limbs of its first i cells. The table is
        allocated first, so that a table too large for memory fails before the list of
        centers is made."""
        self.beta0, self.alpha0, self.cell_width, self.centers = geometry
        self.n = n = self.centers.size
        self.prefix = prefix = np.zeros((limbs, (n + 1) * (n + 2) // 2), np.int64)
        self._center_list = self.centers.tolist()  # bisect: ~10x a scalar searchsorted
        self.scale, self.bits = scale, bits
        cols = np.zeros((limbs, n), np.int64)  # column sums of the rows so far
        for i, row in enumerate(rows, 1):
            cols[:, :i] += row
            start = i * (i + 1) // 2
            np.cumsum(cols[:, :i], axis=1, out=prefix[:, start + 1:start + i + 1])
        self._limbs = range(limbs - 1, -1, -1)  # the highest first
        self.total = self.rect_mass(0, n, 0, n)  # exact, times 2**scale
        self.total_mass = self.total / (1 << scale)

    # Index cuts mirror the relay tie-breaks: a rise to v switches cells
    # whose center alpha is <= v; a fall to v leaves up only centers < v.
    def icut_up(self, v: float) -> int:
        return bisect_right(self._center_list, v)

    def jcut_down(self, v: float) -> int:
        return bisect_left(self._center_list, v)

    def rect_mass(self, i0: int, i1: int, j0: int, j1: int) -> int:
        """Mass of cell rows [i0, i1) x cols [j0, j1) times ``2**scale``, exactly, for ``0 <=
        i0 <= i1 <= n`` and ``0 <= j0 <= j1 <= n``: ``P[i1, j1] - P[i1, j0] - P[i0, j1] +
        P[i0, j0]``, each ``P[i, j]`` the limbs of packed entry ``i*(i+1)//2 + min(i, j)``."""
        a, b, c, d = (i * (i + 1) // 2 + (j if j < i else i) for i in (i1, i0) for j in (j1, j0))
        mass, item = 0, self.prefix.item
        for r in self._limbs:
            mass = (mass << self.bits) + item(r, a) - item(r, b) - item(r, c) + item(r, d)
        return mass

    def support_bounds(self) -> tuple[float, float]:
        return self.beta0, self.alpha0

    def simulator(self, memory: StaircaseMemory):
        return GridSimulator(self, memory)

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        _require_in_cycle(u_minus, u_plus, u)
        mass = self.rect_mass(self.icut_up(u), self.icut_up(u_plus),
                              self.jcut_down(u_minus), self.jcut_down(u))
        return 2.0 * (mass / (1 << self.scale))  # rounded, then doubled: inf past the float range


class GridSimulator:
    """Staircase-memory tracker evaluating through the summed-area table.

    The up-set under a staircase is one rectangle of whole cells per stored
    vertex pair (rows up to its maximum, columns from the last cut to its
    minimum's) plus, while rising, the live link's sweep: stack entry k is
    ``cuts[k]`` and its exact mass ``strips[k]``, and ``up`` is their sum. A push
    recomputes only the entries past the pairs it kept: O(erased pairs + 1) table
    lookups. ``value`` and ``parts`` read ``up`` and O(1) entries, each rounded once.
    """

    def __init__(self, grid: WeightGrid, memory: StaircaseMemory):
        self.grid, self.memory = grid, memory
        self.cuts, self.strips, self.up = [], [], 0  # the up-mass: the strips' sum
        self._restack(0)

    def _restack(self, keep: int) -> None:
        """Recompute the stack entries from ``keep`` on; those before are current."""
        grid, mem, cuts, strips = self.grid, self.memory, self.cuts, self.strips
        self.up -= sum(strips[keep:])
        del cuts[keep:], strips[keep:]
        live = ((mem.current_u, None),) if mem.trend == RISING else ()  # the rising link
        for big, small in mem.vertex_pairs[keep:] + live:
            col_up = grid.n if small is None else grid.jcut_down(small)
            strips.append(grid.rect_mass(0, grid.icut_up(big), cuts[-1] if cuts else 0, col_up))
            cuts.append(col_up)
            self.up += strips[-1]

    def push(self, u) -> None:
        if float(u) != self.memory.current_u:
            self.memory = mem = push_extremum(self.memory, float(u))
            # a fall replaces the innermost pair; a rise only erases pairs
            self._restack(max(len(mem.vertex_pairs) - (mem.trend == FALLING), 0))

    def value(self) -> float:
        """Up-mass minus down-mass, the exact ``2 * up - total`` rounded once."""
        _require_in_support(self.grid, self.memory)
        return (2 * self.up - self.grid.total) / (1 << self.grid.scale)

    def parts(self) -> tuple[float, float, float]:
        """The output at the input ``u`` as its band, forced and (zero) offset parts, read
        as ``_ExactCapacities.parts`` reads them: the forced cells are those with center
        alpha ``<= u``, UP once risen (DOWN before; the cell centered at ``u`` DOWN after a
        fall), and the others with center beta ``>= u``, DOWN. Each forced sum is rounded
        once, then added; the band, the rest of the exact output, is rounded once."""
        grid, mem = self.grid, self.memory
        _require_in_support(grid, mem)
        a, b, n = grid.icut_up(mem.current_u), grid.jcut_down(mem.current_u), grid.n
        up = grid.rect_mass(0, a, 0, n)
        if not mem.risen:
            up = -up
        elif mem.trend != RISING:
            up -= 2 * grid.rect_mass(b, a, b, a)  # the cell centered at u, if any
        down = -grid.rect_mass(a, n, b, n)
        unit = 1 << grid.scale
        return (2 * self.up - grid.total - up - down) / unit, up / unit + down / unit, 0.0


def _grid_geometry(beta0: float, alpha0: float, n: int) -> tuple:
    """``(beta0, alpha0, cell_width, centers)`` of n >= 2 cells per axis (``from_agents`` checks
    n), checked: ``beta0 < alpha0``, a finite width, and centers that strictly increase."""
    beta0, alpha0 = float(beta0), float(alpha0)
    if beta0 < alpha0 and math.isfinite(alpha0 - beta0):  # nan and inf fail here
        width = (alpha0 - beta0) / n
        centers = beta0 + (np.arange(n) + 0.5) * width
        if (centers[1:] > centers[:-1]).all():  # a width of 0 fails here
            return beta0, alpha0, width, centers
    raise ValueError(f"invalid bounds ({beta0!r}, {alpha0!r})")


def _binned(n: int, cell: np.ndarray, limbs: np.ndarray):
    """``WeightGrid``'s cell rows: the masses' limbs (a column each) in cell ``row * n + col``
    (``col <= row``) summed exactly, one L x (i + 1) array of limbs per cell row i. The sums
    are taken at once, the rows when they are read."""
    order = np.argsort(cell)  # any order: the sums are exact
    cell = cell[order]
    first = np.flatnonzero(np.diff(cell, prepend=-1))  # each cell's first mass
    sums, cell = np.add.reduceat(limbs[:, order], first, axis=1), cell[first]

    def rows():
        ends = cell.searchsorted(np.arange(1, n + 1) * n).tolist()
        for i, start, end in zip(range(n), [0, *ends], ends):
            row = np.zeros((len(sums), i + 1), np.int64)
            row[:, cell[start:end] - i * n] = sums[:, start:end]
            yield row
    return rows()


def from_agents(pop: AgentPopulation, n: int, bounds: tuple[float, float]) -> WeightGrid:
    """Bin a population into an n x n grid over ``bounds = (beta0, alpha0)``.

    Binning is conservative and exact: the grid's total mass is the agents'
    exact total capacity. Agents must lie inside the bounds. The packed table is sized
    before any array of n entries is made, and a grid that cannot be allocated, its table
    or any other of its arrays, is named by n and the bytes of its table.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 cells per axis")
    bits = _limb_bits(pop.nu.size, 63)
    scale, limbs = _split(pop.nu, bits, np.int64)
    depth = len(limbs)
    table = 8 * depth * ((n + 1) * (n + 2) // 2)
    too_large = f"grid n={n} is too large: its table needs {table} bytes"
    if table > np.iinfo(np.intp).max:  # past numpy's index range: nothing is allocated
        raise ValueError(too_large)
    try:  # any array of the grid may be the one that does not fit
        geometry = beta0, alpha0, width, _ = _grid_geometry(*bounds, n)
        outside = np.flatnonzero((pop.alpha > alpha0) | (pop.beta < beta0))  # alpha >= beta
        if outside.size:
            k = int(outside[0])
            raise ValueError(
                f"agent out of range: agent {k} with "
                f"(alpha={float(pop.alpha[k])!r}, beta={float(pop.beta[k])!r}) "
                f"outside bounds ({beta0!r}, {alpha0!r})"
            )

        def cut(x):  # the cell row of an alpha, or column of a beta (alpha >= beta: col <= row)
            return np.clip(((x - beta0) / width).astype(int), 0, n - 1)
        rows = _binned(n, cut(pop.alpha) * n + cut(pop.beta), limbs)
        del limbs  # the rows keep the cell sums: no second copy while the table fills
        return WeightGrid(geometry, scale, bits, depth, rows)
    except MemoryError:
        raise ValueError(too_large) from None


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


def eval_geometric(grid: WeightGrid, mem: StaircaseMemory) -> float:
    """Aggregate output for a staircase memory, up-mass minus down-mass: the
    ``value`` of a grid simulator started from ``mem``."""
    return grid.simulator(mem).value()


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
        """Vertical gap between the branches at each grid input; ``inf`` past the float range."""
        with np.errstate(over="ignore"):
            return self.f_descending - self.f_ascending


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest ``|a - b|`` where ``a != b``: equal values, equal infinities too, read 0."""
    differ = a != b
    with np.errstate(over="ignore"):  # a gap past the float range reads inf
        return float(np.abs(a[differ] - b[differ]).max(initial=0.0))


def minor_loop(model, history: ReversalSequence, u_minus: float, u_plus: float,
               n_points: int = 101) -> LoopTrace:
    """Trace the steady cycle between ``u_minus`` and ``u_plus``.

    The history is applied first, the input is led into the cycle, and one
    full unrecorded cycle is run so the recorded branches are the repeating
    loop (the first traverse after an arbitrary entry can still be wiping
    out old vertices; from the second cycle on the loop retraces itself).
    ``model`` is anything with a ``simulator(memory)`` -- a population, a
    weight grid, or their generalized counterparts.
    """
    us = require_cycle(u_minus, u_plus, n_points)
    branches = _per_point(n_points, "outputs", np.empty, (2, n_points))
    sim = model.simulator(memory_from_sequence(history))
    for v in (u_minus, u_plus, u_minus):
        sim.push(v)
    # up the inputs, then back down them; each branch starts where the input already is
    for f, ks in zip(branches, (range(n_points), range(n_points - 1, -1, -1))):
        for k in ks:
            sim.push(us[k])
            f[k] = sim.value()
    return LoopTrace(float(u_minus), float(u_plus), us, *branches)


@dataclass(frozen=True)
class CongruencyReport:
    congruent: bool
    max_deviation: float
    chords_equal: bool
    max_chord_deviation: float


def check_congruency(l1: LoopTrace, l2: LoopTrace, tol: float = 1e-12) -> CongruencyReport:
    """Compare two loops up to a vertical translation, and their vertical chords.

    Both loops are anchored at their ascending start; ``max_deviation`` is
    the largest remaining branch deviation over both branches. The branches
    are anchored in halves, so ``f - f_ascending[0]`` never passes the float
    range, and the deviation is doubled back: wherever the direct difference
    stays in range and no nonzero value is below 2**-1021 in magnitude, these
    are its bits. ``max_chord_deviation`` is the largest pointwise gap between
    the two loops' chords (``_max_gap``). Soft-weight models keep the chords
    equal across histories while the branch shapes may differ beyond any
    translation, so ``chords_equal`` true with ``congruent`` false is the
    signature of an input-dependent weight.
    """
    if l1.u_minus != l2.u_minus or l1.u_plus != l2.u_plus or not np.array_equal(l1.us, l2.us):
        raise ValueError("incomparable loops: cycle bounds or input grids differ")

    def anchored(loop):
        return np.array([loop.f_ascending, loop.f_descending]) / 2 - loop.f_ascending[0] / 2
    with np.errstate(over="ignore"):  # a deviation past the float range reads inf
        dev = 2 * float(np.abs(anchored(l1) - anchored(l2)).max())
    chord_dev = _max_gap(l1.chord(), l2.chord())
    return CongruencyReport(congruent=dev <= tol, max_deviation=dev,
                            chords_equal=chord_dev <= tol, max_chord_deviation=chord_dev)

"""Aggregation of soft-branch agents and input-dependent threshold shifts.

``GeneralizedPopulation(alpha, beta, f_plus, f_minus)`` holds soft-branch
agents as arrays: the thresholds, and each branch's ``(u, f)`` knots packed
into one ``hysteron.BranchTable``, so the whole population's branches are
read in one numpy pass.

The aggregate output of soft-branch agents splits, per agent, into a relay
part weighted by the loop gap at the *current* input plus the branch
midline. Summed over the population this yields

    f(u) = sum_k gap_k(u) * s_k  +  sum_k midline_k(u)

and the relay sum itself splits further into the contribution of the
bistable band (agents with beta < u < alpha -- the only history-dependent
piece) and that of the agents whose state the current input forces, each
counted in its own state. A simulator's ``parts`` returns the band, forced
and midline pieces; they add up to ``eval_generalized`` of the same history.

Because the loop gap moves with the input, cycles traced after different
histories are generally *not* congruent: agents outside the cycle band
contribute ``gap_k(u) * s_k`` with history-dependent signs, which bends the
branches rather than translating them. The vertical gap between the two
branches, however, only involves agents flipped inside the cycle and stays
history-independent (``chord_generalized``; ``check_equal_chords`` verifies
both halves of that statement on sampled loops).

``ShiftModel`` drives rectangular agents whose switching thresholds slide
with the input: the up threshold is crossed where ``u + g2(u)`` reaches
``alpha``, the down threshold where ``u + g1(u)`` falls to ``beta``. Both
composite maps must be non-decreasing so each monotone input leg crosses an
effective threshold at most once, and its cycle chords are bounded through
the same maps. Relabeling each agent by its momentary effective
thresholds, ``(alpha - g2(u), beta - g1(u))``, would turn the shift model
into a soft-weight model whose weight rides with the input; switching and
band membership are decided on the base side instead (``alpha`` against
``u + g2(u)``), because comparing ``alpha - g2(u)`` with ``u`` rounds
differently and disagrees at exact ties. This is the moving Preisach model
of Della Torre and Vajda.

``eval_generalized`` is the raw-history reference for every relay model:
it folds the uncompressed history over all relays and reads the output with
the model's own ``output`` in O(agents); ``ShiftModel.output`` sums the
band with ``math.fsum``. ``ShiftedSimulator`` reads the same bits in
O(log n) from the exact signed capacity total it keeps
(``classical._ExactCapacities``), and its steps, like every relay
simulator's, touch only the crossed relays.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    AgentPopulation,
    LoopTrace,
    _ExactCapacities,
    _RelayModel,
    _RelaySimulator,
    _require_comparable,
    check_congruency,
)
from .hysteron import BranchTable, PiecewiseLinear, _packed, _soft_fault
from .memory import StaircaseMemory, starting_memory
from .signal import ReversalSequence


class GeneralizedPopulation(_RelayModel):
    """Soft-branch agents in fixed order, kept as thresholds and two branch tables.

    Agent ``k`` switches as a relay on ``alpha[k] >= beta[k]`` and emits
    ``f_plus[k]`` while down and ``f_minus[k]`` while up: non-decreasing maps
    given as ``(u, f)`` knots and clamped to their end values outside them.
    ``f_minus`` must dominate ``f_plus`` on ``[beta, alpha]`` so the loop has
    a non-negative vertical gap. Raises ``agent k: <message>`` for the first
    agent at fault (``hysteron._soft_fault``).
    """

    def __init__(self, alpha, beta, f_plus, f_minus):
        self.alpha, self.beta = np.array(alpha, dtype=float), np.array(beta, dtype=float)
        if not self.alpha.shape == self.beta.shape == (len(f_plus),) == (len(f_minus),):
            raise ValueError("alpha, beta, f_plus, f_minus must be 1-d and of equal length")
        packed = _packed(f_plus), _packed(f_minus)
        fault = _soft_fault(self.alpha, self.beta, *packed)
        if fault is not None:
            raise ValueError("agent %d: %s" % fault)
        self.f_plus, self.f_minus = (BranchTable(s, *k.T) for s, k in packed)

    def loop_gap_at(self, u: float) -> np.ndarray:
        return 0.5 * (self.f_minus(u) - self.f_plus(u))

    def midline_at(self, u: float) -> np.ndarray:
        return 0.5 * (self.f_minus(u) + self.f_plus(u))

    def weight(self, u: float) -> np.ndarray:
        return self.loop_gap_at(u)

    def offset(self, u: float) -> float:
        return math.fsum(self.midline_at(u))

    def output(self, states: np.ndarray, u: float) -> float:
        return math.fsum(self.loop_gap_at(u) * states + self.midline_at(u))

    def simulator(self, start_u=None, memory: StaircaseMemory | None = None):
        return GeneralizedSimulator(self, starting_memory(start_u, memory))

    def chord(self, u_minus: float, u_plus: float, u: float) -> float:
        return chord_generalized(self, u_minus, u_plus, u)


def eval_generalized(model: _RelayModel, seq: ReversalSequence, query_u: float) -> float:
    """Output of any relay model after ``seq`` at input ``query_u``, by the reference
    route: its relays folded over the raw history from all-DOWN, then ``model.output``."""
    return model.output(model.fold(seq.steps_to(query_u)), query_u)


class GeneralizedSimulator(_RelaySimulator):
    """Relay-state tracker emitting soft-branch output along an input path."""


def chord_generalized(gpop: GeneralizedPopulation, u_minus: float,
                      u_plus: float, u: float) -> float:
    """Vertical branch gap of the steady cycle at ``u`` from the weights.

    Twice the summed loop gap (taken at ``u``) of the agents flipped by the
    cycle: up-threshold in ``(u, u_plus]``, down-threshold in
    ``[u_minus, u)``. History before the cycle does not enter.
    """
    return _RelayModel.chord(gpop, u_minus, u_plus, u)


@dataclass(frozen=True)
class EqualChordsReport:
    chords_equal: bool
    max_chord_deviation: float
    congruent: bool
    max_branch_deviation: float


def check_equal_chords(l1: LoopTrace, l2: LoopTrace, tol: float = 1e-12) -> EqualChordsReport:
    """Compare two loops' vertical gaps pointwise; also report congruency.

    Soft-weight models keep the gaps equal across histories while the
    branch shapes themselves may differ beyond any translation, so
    ``chords_equal`` true with ``congruent`` false is the expected signature
    of an input-dependent weight.
    """
    _require_comparable(l1, l2)
    chord_dev = float(np.abs(l1.chord() - l2.chord()).max())
    congruency = check_congruency(l1, l2, tol)
    return EqualChordsReport(
        chords_equal=chord_dev <= tol,
        max_chord_deviation=chord_dev,
        congruent=congruency.congruent,
        max_branch_deviation=congruency.max_deviation,
    )


def _composite_map(g: PiecewiseLinear, name: str):
    """``u -> u + g(u)``, evaluated so that it is non-decreasing in floats too.

    Summing ``u + g(u)`` is not: along a flat stretch of the composite map
    ``0.5 + g(0.5)`` can exceed ``0.9 + g(0.9)`` by an ulp, and the
    staircase memory's erasure is exact only for a non-decreasing compare
    map. So the composite knot table is interpolated directly, each segment
    clamped to its end value, with slope 1 outside the knots. The values at
    the knots and for a constant shift are exactly ``u + g(u)``.
    """
    us = g.us.tolist()
    cs = [u + f for u, f in zip(us, g.fs.tolist())]  # past the float range: inf, no warning
    if any(b < a for a, b in zip(cs, cs[1:])):
        raise ValueError(f"ill-posed shift: u + {name}(u) must be non-decreasing")
    if not all(map(math.isfinite, cs)):
        raise ValueError(f"ill-posed shift: u + {name}(u) must be finite at every knot")
    slopes = [(c1 - c0) / (u1 - u0) for u0, u1, c0, c1 in zip(us, us[1:], cs, cs[1:])]
    if not all(map(math.isfinite, slopes)):
        raise ValueError(f"ill-posed shift: u + {name}(u) must have finite slopes")
    first, last = float(g.fs[0]), float(g.fs[-1])

    def compare(u: float) -> float:
        u = float(u)
        if u <= us[0]:
            return u + first
        if u >= us[-1]:
            return u + last
        j = bisect.bisect_right(us, u) - 1
        return min(cs[j] + slopes[j] * (u - us[j]), cs[j + 1])

    return compare


class ShiftModel(_RelayModel):
    """Rectangular agents whose thresholds slide with the current input.

    ``g2`` shifts the up thresholds, ``g1`` the down thresholds
    (``g2 <= g1`` everywhere). An agent switches up once ``u + g2(u)``
    reaches its ``alpha`` and down once ``u + g1(u)`` falls to its ``beta``;
    both composite maps must be non-decreasing, otherwise a single monotone
    input leg could cross the same effective threshold several times.
    """

    def __init__(self, base: AgentPopulation, g1: PiecewiseLinear, g2: PiecewiseLinear):
        self.base = base
        self.alpha, self.beta, self.nu = base.alpha, base.beta, base.nu
        self.g1 = g1
        self.g2 = g2
        self.down_compare = _composite_map(g1, "g1")
        self.up_compare = _composite_map(g2, "g2")
        probes = np.concatenate(
            (
                [min(g1.us[0], g2.us[0]) - 1.0],
                np.unique(np.concatenate((g1.us, g2.us))),
                [max(g1.us[-1], g2.us[-1]) + 1.0],
            )
        )
        with np.errstate(over="ignore"):  # a gap past the float range is still >= 0
            gap = np.asarray(g1(probes)) - np.asarray(g2(probes))
        if np.any(gap < 0):
            u_bad = float(probes[np.argmin(gap)])
            raise ValueError(f"shift functions must satisfy g2 <= g1 (fails at u={u_bad})")

    def output(self, states: np.ndarray, u: float) -> float:
        return self.band_sum(self.nu, states, u)

    @functools.cached_property
    def _exact(self) -> _ExactCapacities:
        return _ExactCapacities(self.nu, self._index)

    def simulator(self, start_u=None, memory: StaircaseMemory | None = None):
        return ShiftedSimulator(self, starting_memory(start_u, memory))


class ShiftedSimulator(_RelaySimulator):
    """Moving-threshold relay tracker emitting the band output.

    It keeps the exact signed capacity total, adds to it only the relays a
    push flips, and reads the band out of it in O(log n + ties): bit for bit
    what ``ShiftModel.output`` sums with ``math.fsum``.
    """

    def __init__(self, model: ShiftModel, memory: StaircaseMemory):
        super().__init__(model, memory)
        self.total = model._exact.signed_total(self.states)

    def _switch(self, crossed: np.ndarray, state: int) -> None:
        flipped = crossed[self.states[crossed] != state]
        self.states[flipped] = state
        self.total += 2 * state * self.model._exact.sum_of(flipped)

    def value(self) -> float:
        mem = self.memory
        return self.model._exact.band(self.total, self.states, mem.current_u, mem.risen)


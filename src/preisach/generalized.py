"""Aggregation of soft-branch agents and input-dependent threshold shifts.

``GeneralizedPopulation(alpha, beta, f_plus, f_minus)`` holds soft-branch
agents as arrays: the thresholds, and each branch's ``(u, f)`` knots packed
into one ``hysteron.BranchTable``. Its readout reads each table once per input
(``levels``: every agent's output while DOWN, ``f_plus(u)``, and while UP,
``f_minus(u)``), and each output, part and chord is one ``math.fsum`` of those
levels, the exact sum rounded once. Per agent the output is the loop gap
``(f_minus - f_plus) / 2`` signed by the state plus the midline; ``parts`` sums
the signed gaps of the bistable band (``beta < u < alpha``, the only
history-dependent piece) apart from those of the agents the input forces, and
the midlines apart from both.

Because the loop gap moves with the input, cycles traced after different
histories are generally *not* congruent: agents outside the cycle band
contribute ``gap_k(u) * s_k`` with history-dependent signs, which bends the
branches rather than translating them. The vertical gap between the two
branches, however, only involves agents flipped inside the cycle and stays
history-independent (``chord_generalized``; ``classical.check_congruency``
reports both halves of that statement on sampled loops).

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
the model's own ``output`` in O(agents); ``ShiftModel.output`` reads the band
from the capacity ledger. ``ShiftedSimulator`` reads the same bits in
O(log n + ties) as the band part of its ``parts``: it is a capacity
simulator (``classical._CapacitySimulator``), as the direct model's is, and
its steps, like every relay simulator's, touch only the crossed relays.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .classical import AgentPopulation, _CapacitySimulator, _RelayModel, _RelaySimulator
from .hysteron import BranchTable, PiecewiseLinear, _packed, _soft_fault
from .memory import StaircaseMemory
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
        if not len(f_plus):
            raise ValueError("at least one agent is required")
        packed = _packed(f_plus), _packed(f_minus)
        fault = _soft_fault(self.alpha, self.beta, *packed)
        if fault is not None:
            raise ValueError("agent %d: %s" % fault)
        self.f_plus, self.f_minus = (BranchTable(s, *k.T) for s, k in packed)

    def loop_gap_at(self, u: float) -> np.ndarray:
        return 0.5 * (self.f_minus(u) - self.f_plus(u))

    def midline_at(self, u: float) -> np.ndarray:
        return 0.5 * (self.f_minus(u) + self.f_plus(u))

    def levels(self, u: float) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's output at ``u`` while DOWN and while UP: ``f_plus(u)``, ``f_minus(u)``."""
        return self.f_plus(u), self.f_minus(u)

    def output(self, states: np.ndarray, u: float) -> float:
        down, up = self.levels(u)
        return math.fsum(np.where(states > 0, up, down).tolist())

    def parts(self, states: np.ndarray, u: float) -> tuple[float, float, float]:
        """The output at ``u`` as its band, forced and offset parts (``masks``), which add up
        to it: half of ``s * (f_minus - f_plus)`` over the band, and over the agents forced UP
        plus over those forced DOWN, each in its state ``s``; and half of ``f_minus + f_plus``
        over all. An exact sum rounded once and halved is its exact half rounded once."""
        down, up = self.levels(u)

        def half(a, b):
            return 0.5 * math.fsum(np.concatenate((a, b)).tolist())
        band, rise, fall = (half(states[m] * up[m], -states[m] * down[m]) for m in self.masks(u))
        return band, rise + fall, half(up, down)

    def simulator(self, memory: StaircaseMemory):
        return GeneralizedSimulator(self, memory)

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
    """Vertical branch gap of the steady cycle at ``u``: ``f_minus(u) - f_plus(u)`` of the
    agents the cycle flips (``flipped``), summed exactly and rounded once. History before
    the cycle does not enter."""
    flipped = gpop.flipped(u_minus, u_plus, u)
    down, up = gpop.levels(u)
    return math.fsum(np.concatenate((up[flipped], -down[flipped])).tolist())


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
        band = np.where(self.masks(u)[0], states, 0.0)
        return self._exact.signed_total(band) / (1 << self._exact.scale)

    def simulator(self, memory: StaircaseMemory):
        return ShiftedSimulator(self, memory)


class ShiftedSimulator(_CapacitySimulator):
    """Moving-threshold relay tracker emitting the band output (``ShiftModel.output``)."""

    def value(self) -> float:
        return self.parts()[0]

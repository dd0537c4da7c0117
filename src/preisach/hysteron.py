"""Elementary hysteresis operators, kept as arrays with no per-agent class.

Two kinds of binary agent live here:

* the rectangular-loop relay, as the switching rule ``relay_fold`` over
  arrays of thresholds: the state jumps to +1 when the input rises to the
  up-threshold ``alpha`` and to -1 when it falls to the down-threshold
  ``beta``; in between (the range of inactivity) the state is retained,
* the soft-branch agent: the same two-state relay, but the two output
  levels are replaced by monotone piecewise-linear curves ``f_plus`` (taken
  while the state is down) and ``f_minus`` (taken while up), each given as
  ``(u, f)`` knots. ``BranchTable`` evaluates many such curves in one numpy
  pass, and ``_soft_fault`` is the one validity rule every soft agent is
  checked by; ``generalized.GeneralizedPopulation`` holds the agents.

``relay_fold`` costs O(agents) per step and is the reference: the relay
models' sorted-threshold steps (``classical._RelayIndex``), which touch only
the relays a leg crosses, are tested against it bit for bit.

Threshold ties are closed: an increasing input switches up at exactly
``u == alpha`` and a decreasing input switches down at exactly
``u == beta``. ``alpha == beta`` is allowed and gives a fully reversible
step agent. All region-membership conventions elsewhere in the package
match these tie-breaks.
"""

from __future__ import annotations

import itertools

import numpy as np

_ROUNDS_TO_INF = 2 ** 1024 - 2 ** 970  # the least real that rounds to inf


def relay_fold(alpha, beta, steps, states=None, up_compare=None,
               down_compare=None) -> np.ndarray:
    """Relay states after a stream of ``(value, rising)`` input legs.

    This is the reference switching rule of the package. A rise to ``value``
    switches UP every relay whose up-threshold is <= the compared value, a
    fall switches DOWN every relay whose down-threshold is >= it, and all
    other relays keep their state. ``up_compare``/``down_compare`` map the
    input to the value compared (the identity when omitted; the shift model
    slides them). ``states`` is updated in place and defaults to all-DOWN
    floats.
    """
    if states is None:
        states = np.full(np.shape(alpha), -1.0)
    for value, rising in steps:
        if rising:
            states[alpha <= (value if up_compare is None else up_compare(value))] = 1
        else:
            states[beta >= (value if down_compare is None else down_compare(value))] = -1
    return states


_KNOT_RULES = ("at least one breakpoint is required", "breakpoints must be finite",
               "breakpoint abscissae must be strictly increasing",
               "branch values must be non-decreasing",
               "consecutive breakpoints must differ by finite amounts",
               "slopes between consecutive breakpoints must be finite")


def _packed(maps) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, knots)`` of ``(u, f)`` knot lists: the counts, then all knots as rows."""
    knots = itertools.chain.from_iterable(itertools.chain.from_iterable(maps))
    return np.fromiter(map(len, maps), int, len(maps)), np.fromiter(knots, float).reshape(-1, 2)


def _knot_faults(sizes, knots) -> np.ndarray:
    """Which maps of ``(sizes, knots)`` break each of ``_KNOT_RULES``, a row per rule."""
    ends = np.cumsum(sizes)
    prev = np.vstack([knots[:1], knots[:-1]])
    prev[(ends - sizes)[sizes > 0]] = np.nan  # no step into a map's first knot
    # a step or a slope past the float range is a fault
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = knots - prev
        bad = np.c_[~np.isfinite(knots).all(1), knots[:, 0] <= prev[:, 0],
                    knots[:, 1] < prev[:, 1], np.isinf(step).any(1),
                    np.isinf(step[:, 1] / step[:, 0])]
    seen = np.vstack([np.zeros((1, bad.shape[1])), np.cumsum(bad, 0)])
    return np.vstack([sizes < 1, (seen[ends] > seen[ends - sizes]).T])


def _branch_fault(points, rules=range(6)) -> str | None:
    """The first of ``_KNOT_RULES`` numbered in ``rules`` that one map's ``(u, f)``
    knots ``points`` break, or None; by default every rule a soft branch keeps."""
    broken = _knot_faults(*_packed([points]))[list(rules), 0]
    return _KNOT_RULES[rules[int(np.argmax(broken))]] if broken.any() else None


def _overflow_at(values: np.ndarray) -> int:
    """Index of the first of ``values`` (finite, >= 0) at which their exact running total
    rounds past the largest double, or ``len(values)``. A float sum of n values is within a
    factor ``1 + n * 2**-52`` of the exact one, so below 2**1023 the exact sum is not taken."""
    with np.errstate(over="ignore"):
        if np.sum(values) < 2.0 ** 1023:
            return len(values)
    from fractions import Fraction  # imported here: only a total past 2**1023 pays for it
    totals = itertools.accumulate(map(Fraction, values.tolist()))
    return next((k for k, t in enumerate(totals) if t >= _ROUNDS_TO_INF), len(values))


def _soft_fault(alpha, beta, f_plus, f_minus):
    """``(k, message)`` for the first soft agent at fault and its first failed check, or None:
    ``_KNOT_RULES[:4]`` of ``f_plus``, then of ``f_minus``; finite thresholds; ``alpha >= beta``;
    the finite steps and slopes of ``f_plus``, then ``f_minus``; ``f_minus >= f_plus`` at band
    edges and knots in the band; an exact running total of the largest ``|f|`` of each branch
    that rounds to a double (``_overflow_at``), which bounds every sum a soft readout forms."""
    plus, minus = _knot_faults(*f_plus), _knot_faults(*f_minus)
    rules = np.vstack([plus[:4], minus[:4], ~(np.isfinite(alpha) & np.isfinite(beta)),
                       alpha < beta, plus[4:], minus[4:]])
    m = int(np.argmax(rules.any(0))) if rules.any() else len(alpha)
    # the agents before m pass all other checks, so a gap fault among them comes first
    heads = [(sizes[:m], knots[:sizes[:m].sum()]) for sizes, knots in (f_plus, f_minus)]
    plus, minus = (BranchTable(sizes, *knots.T) for sizes, knots in heads)
    largest = [np.abs(plus.fs).max(0), np.abs(minus.fs).max(0)]
    over = _overflow_at(np.ravel(largest, "F")) // 2  # each agent's two, in agent order
    agent = np.concatenate([np.arange(m), np.arange(m),
                            *(np.repeat(np.arange(m), sizes) for sizes, _ in heads)])
    u = np.concatenate([beta[:m], alpha[:m], *(knots[:, 0] for _, knots in heads)])
    keep = (u >= beta[agent]) & (u <= alpha[agent]) & (agent <= over)
    agent, u = agent[keep], u[keep]
    low = minus(u, agent) < plus(u, agent)
    if low.any():
        # its lowest faulty probe; of equal ones the first listed, as a set keeps it
        at = np.flatnonzero(low & (agent == agent[low].min()))
        k, u = agent[at[0]], u[at[np.argmin(u[at])]]
        return int(k), f"descending branch below ascending branch at u={float(u)}"
    if over < m:
        return over, "total branch value overflows"
    if m == len(alpha):
        return None
    messages = (*_KNOT_RULES[:4], *_KNOT_RULES[:4], "thresholds must be finite",
                f"alpha must be >= beta, got alpha={float(alpha[m])}, beta={float(beta[m])}",
                *_KNOT_RULES[4:], *_KNOT_RULES[4:])
    return m, messages[int(np.argmax(rules[:, m]))]


class PiecewiseLinear:
    """A piecewise-linear map, clamped to its end values outside the knots.

    Knot abscissae must be strictly increasing, all knot data finite, and so
    must the steps and slopes between consecutive knots. A single knot gives a
    constant map.
    """

    def __init__(self, points):
        points = [(float(u), float(f)) for u, f in points]
        fault = _branch_fault(points, (0, 1, 2, 4, 5))  # the values may fall
        if fault is not None:
            raise ValueError(fault)
        self.us, self.fs = np.array(points).T.copy()

    def __call__(self, u):
        # np.interp clamps to the end values, which is exactly the contract
        return np.interp(u, self.us, self.fs)

    def __repr__(self):
        return f"{type(self).__name__}({list(zip(self.us.tolist(), self.fs.tolist()))!r})"


class BranchTable:
    """Many piecewise-linear maps, evaluated together in one numpy pass.

    Map ``k`` has ``sizes[k]`` of the flat knots ``us``/``fs``; column ``k``
    holds them, padded with ``+inf`` and the last value to one row more than
    the longest map (knots are rows, so counting those below ``u`` adds
    contiguous rows). At a finite ``u``, or one per column, each map gets
    ``np.interp``'s formula and tie rule, so each value is bit-identical.
    """

    def __init__(self, sizes, us, fs):
        knots = np.arange(sizes.max(initial=0) + 1)[:, None]
        idx = np.minimum(knots, sizes - 1) + (np.cumsum(sizes) - sizes)
        self.us = np.where(knots < sizes, us[idx], np.inf)
        self.fs = fs[idx]
        self.cols = np.arange(len(sizes))

    def __call__(self, u, cols=None) -> np.ndarray:
        # j: flat index of each column's last knot at or below u (its first
        # knot below them all); np.interp returns fs[j] there, at a knot and
        # past the last knot, and otherwise interpolates towards the next row
        n, rows = len(self.cols), len(self.us)
        if cols is None:
            cols, below = self.cols, (self.us <= u).sum(0)
        else:  # map cols[i] at u[i]; complex keys sort as (column, u) pairs
            keys = np.empty(self.us.size, dtype=complex)
            keys.real, keys.imag = np.repeat(self.cols, rows), self.us.T.ravel()
            below = np.searchsorted(keys, cols + 1j * u, side="right") - cols * rows
        j = np.clip(below - 1, 0, rows - 2) * n + cols
        us, fs = self.us.ravel(), self.fs.ravel()
        x0, x1, y0, y1 = us[j], us[j + n], fs[j], fs[j + n]
        at_y0 = (u <= x0) | np.isinf(x1)  # where u - x0 may pass the float range, read 0
        return np.where(at_y0, y0, (y1 - y0) / (x1 - x0) * (np.where(at_y0, x0, u) - x0) + y0)

"""Elementary hysteresis operators.

Two kinds of binary agent live here:

* the rectangular-loop relay, as the switching rule ``relay_fold`` over
  arrays of thresholds (there is no per-agent class): the state jumps to
  +1 when the input rises to the up-threshold ``alpha`` and to -1 when it
  falls to the down-threshold ``beta``; in between (the range of
  inactivity) the state is retained,
* the soft-branch agent (``GeneralizedHysteron``): the same two-state
  relay, but the two output levels are replaced by monotone curves
  ``f_plus`` (taken while the state is down) and ``f_minus`` (taken while
  up). ``BranchTable`` evaluates many such curves in one numpy pass.

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

import math

import numpy as np


def relay_fold(alpha, beta, steps, states=None, up_compare=None,
               down_compare=None) -> np.ndarray:
    """Relay states after a stream of ``(value, rising)`` input legs.

    This is the one switching rule of the package. A rise to ``value``
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


class PiecewiseLinear:
    """A piecewise-linear map, clamped to its end values outside the knots.

    Knot abscissae must be strictly increasing and all knot data finite.
    A single knot gives a constant map.
    """

    def __init__(self, points):
        pts = [(float(u), float(f)) for u, f in points]
        if not pts:
            raise ValueError("at least one breakpoint is required")
        us = np.array([u for u, _ in pts], dtype=float)
        fs = np.array([f for _, f in pts], dtype=float)
        if not (np.isfinite(us).all() and np.isfinite(fs).all()):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(us) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        self.us = us
        self.fs = fs

    def __call__(self, u):
        # np.interp clamps to the end values, which is exactly the contract
        return np.interp(u, self.us, self.fs)

    def breakpoints(self) -> list[tuple[float, float]]:
        return list(zip(self.us.tolist(), self.fs.tolist()))

    def __repr__(self):
        return f"{type(self).__name__}({self.breakpoints()!r})"


class BranchTable:
    """Many piecewise-linear maps, evaluated together in one numpy pass.

    Map ``k`` has ``sizes[k]`` of the flat knots ``us``/``fs``; column ``k``
    holds them, padded with ``+inf`` and the last value to one row more than
    the longest map (knots are rows, so counting those below ``u`` adds
    contiguous rows). At a finite ``u``, or one per column, each map gets
    ``np.interp``'s formula and tie rule, so each value is bit-identical.
    """

    def __init__(self, sizes, us, fs):
        knots = np.arange(sizes.max() + 1)[:, None]
        idx = np.minimum(knots, sizes - 1) + (np.cumsum(sizes) - sizes)
        self.us = np.where(knots < sizes, us[idx], np.inf)
        self.fs = fs[idx]
        self.cols = np.arange(len(sizes))

    @classmethod
    def from_maps(cls, maps) -> "BranchTable":
        return cls(np.array([m.us.size for m in maps]), np.concatenate([m.us for m in maps]),
                   np.concatenate([m.fs for m in maps]))

    def __call__(self, u) -> np.ndarray:
        # j: flat index of each column's last knot at or below u (its first
        # knot below them all); np.interp returns fs[j] there, at a knot and
        # past the last knot, and otherwise interpolates towards the next row
        n = len(self.cols)
        j = np.clip((self.us <= u).sum(0) - 1, 0, len(self.us) - 2) * n + self.cols
        us, fs = self.us.ravel(), self.fs.ravel()
        x0, x1, y0, y1 = us[j], us[j + n], fs[j], fs[j + n]
        return np.where((u <= x0) | np.isinf(x1), y0, (y1 - y0) / (x1 - x0) * (u - x0) + y0)


class BranchFunction(PiecewiseLinear):
    """A monotone (non-decreasing) piecewise-linear output branch."""

    def __init__(self, points):
        super().__init__(points)
        if np.any(np.diff(self.fs) < 0):
            raise ValueError("branch values must be non-decreasing")

    @classmethod
    def constant(cls, value: float) -> "BranchFunction":
        return cls([(0.0, value)])


class GeneralizedHysteron:
    """A soft-branch binary agent.

    The relay part switches by :func:`relay_fold` on ``(alpha, beta)``;
    the emitted output is ``f_plus(u)`` while down and ``f_minus(u)`` while
    up. ``f_minus`` must dominate ``f_plus`` on ``[beta, alpha]`` so the
    loop has a non-negative vertical gap.
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        f_plus: BranchFunction,
        f_minus: BranchFunction,
    ):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("thresholds must be finite")
        if alpha < beta:
            raise ValueError(f"alpha must be >= beta, got alpha={alpha}, beta={beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.f_plus = f_plus
        self.f_minus = f_minus
        # Piecewise-linear branches: checking the gap at every knot inside
        # the switching band plus the band edges is exact.
        probes = sorted(
            {self.beta, self.alpha}
            | {u for u in f_plus.us.tolist() if self.beta <= u <= self.alpha}
            | {u for u in f_minus.us.tolist() if self.beta <= u <= self.alpha}
        )
        for u in probes:
            if float(f_minus(u)) < float(f_plus(u)):
                raise ValueError(
                    f"descending branch below ascending branch at u={u}"
                )

    @classmethod
    def rectangular(cls, alpha: float, beta: float, nu: float = 1.0):
        """The rectangular special case: constant branches -nu and +nu."""
        if nu < 0:
            raise ValueError(f"capacity must be >= 0, got {nu}")
        return cls(
            alpha,
            beta,
            f_plus=BranchFunction.constant(-nu),
            f_minus=BranchFunction.constant(+nu),
        )

    def loop_gap(self, u) -> float:
        """Half the vertical distance between the branches at ``u``."""
        return 0.5 * (float(self.f_minus(u)) - float(self.f_plus(u)))

    def midline(self, u) -> float:
        """The branch average at ``u`` (the reversible midline)."""
        return 0.5 * (float(self.f_minus(u)) + float(self.f_plus(u)))

    def __repr__(self):
        return (
            f"GeneralizedHysteron(alpha={self.alpha}, beta={self.beta}, "
            f"f_plus={self.f_plus!r}, f_minus={self.f_minus!r})"
        )

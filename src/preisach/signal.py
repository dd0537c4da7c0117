"""Piecewise-monotone inputs and their reduction to reversal sequences.

Rate-independent hysteresis operators never see how fast the input moves:
only the turning points of the input path matter. This module holds the two
input representations used throughout the package -- a sampled time series
and the alternating sequence of reversal values it reduces to -- plus the
reduction itself.

Reduction conventions (fixed for determinism):

* plateaus (consecutive equal values) are not extrema; a run of equal
  samples collapses to a single point and the direction is decided by the
  next unequal sample,
* a leading sample equal to the starting value is absorbed,
* equality means exact float equality; callers that want fuzzy collapsing
  should round before building the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SampledSeries:
    """An input record u(t): strictly increasing times, finite values."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) == 0:
            raise ValueError("empty series")
        for i, (t, u) in enumerate(zip(self.times, self.values)):
            if not (math.isfinite(t) and math.isfinite(u)):
                raise ValueError(f"invalid sample at row {i}: ({t!r}, {u!r})")
        for i in range(1, len(self.times)):
            if self.times[i] <= self.times[i - 1]:
                raise ValueError(
                    f"unordered series: time at row {i} does not increase"
                )

    @classmethod
    def from_pairs(cls, pairs) -> "SampledSeries":
        pairs = list(pairs)
        return cls(
            times=tuple(float(t) for t, _ in pairs),
            values=tuple(float(u) for _, u in pairs),
        )


@dataclass(frozen=True)
class ReversalSequence:
    """Alternating reversal values of an input path starting at ``start_u``.

    The invariants (strict alternation, no repeats, all finite) are not
    enforced on construction; use :func:`validate` to check a hand-built
    sequence. Everything produced by :func:`extract_reversals` is valid.
    """

    start_u: float
    extrema: tuple[float, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.extrema)

    def steps(self):
        """Yield ``(value, rising)`` for each reversal value in order."""
        prev = self.start_u
        for v in self.extrema:
            yield v, v > prev
            prev = v

    def steps_to(self, query_u: float) -> list[tuple[float, bool]]:
        """The steps of :meth:`steps` plus the final monotone leg to ``query_u``.

        ``query_u`` is the momentary input on the final leg: it must equal
        the last reversal value or continue monotonically past it.
        """
        require_valid(self)
        if not math.isfinite(query_u):
            raise ValueError("query value must be finite")
        steps = list(self.steps())
        last = self.extrema[-1] if self.extrema else self.start_u
        if query_u != last:
            rising = query_u > last
            if steps and rising != steps[-1][1]:
                raise ValueError(
                    "non-monotone query: query value backtracks from the last reversal"
                )
            steps.append((query_u, rising))
        return steps


def validate(seq: ReversalSequence) -> str | None:
    """Check the alternation invariants of a reversal sequence.

    Returns None when the sequence is valid, otherwise a description of the
    first violation (including the offending index).
    """
    if not math.isfinite(seq.start_u):
        return "start value is not finite"
    prev = seq.start_u
    direction = 0
    for i, v in enumerate(seq.extrema):
        if not math.isfinite(v):
            return f"violation at index {i}: value is not finite"
        if v == prev:
            return f"violation at index {i}: repeats previous value"
        d = 1 if v > prev else -1
        if d == direction:
            word = "increases" if d > 0 else "decreases"
            return f"violation at index {i}: two {word} in a row"
        direction = d
        prev = v
    return None


def require_valid(seq: ReversalSequence) -> None:
    """Raise ValueError if ``seq`` violates the reversal-sequence invariants."""
    problem = validate(seq)
    if problem is not None:
        raise ValueError(f"invalid reversal sequence: {problem}")


def extract_reversals(series: SampledSeries, start_u: float) -> ReversalSequence:
    """Reduce a sampled series to its alternating reversal values.

    Walks the piecewise-linear interpolant of the samples starting from
    ``start_u``, collapsing plateaus and monotone runs; every direction
    change records the value where the run turned, and the final sample
    always terminates the last run.
    """
    if not math.isfinite(start_u):
        raise ValueError("invalid sample: start value is not finite")
    extrema: list[float] = []
    prev = start_u
    direction = 0
    for u in series.values:
        if u == prev:
            continue
        d = 1 if u > prev else -1
        if direction != 0 and d != direction:
            extrema.append(prev)
        direction = d
        prev = u
    if direction != 0:
        extrema.append(prev)
    return ReversalSequence(start_u=start_u, extrema=tuple(extrema))

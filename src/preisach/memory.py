"""Staircase memory: the dominant-extrema record of an input history.

Aggregates of rectangular relays do not remember the whole input path. A
new maximum deletes every older maximum it exceeds (together with the
minimum that followed it), and a new minimum deletes every older minimum it
undercuts. What survives is the alternating sequence of dominant extrema

    M1 > M2 > ... and m1 < m2 < ...  with  m_k < M_k

plus the moving current input. That record fully determines the state of
every relay ``(alpha, beta)``: replaying just the dominant extrema through
the switching rule gives the same state as replaying the raw history.

Representation: ``vertex_pairs`` holds (max, min) pairs from outermost to
innermost. While the input is falling, the last pair's minimum is the live
current input and keeps moving; while rising, the current input rides
separately as the running (not yet committed) maximum. The convention of a
fresh memory is negative saturation: every relay starts DOWN, equivalent to
a history that never rose.

Erasure comparisons use the same closed tie-breaks as relay switching
(a new maximum erases stored maxima <= it; a new minimum erases stored
minima >= it), so compression is exact, not approximate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hysteron import relay_fold
from .signal import ReversalSequence

INITIAL = "initial"
RISING = "rising"
FALLING = "falling"


@dataclass(frozen=True)
class StaircaseMemory:
    start_u: float
    vertex_pairs: tuple[tuple[float, float], ...]
    current_u: float
    trend: str

    def steps(self):
        """Yield ``(value, rising)``: each stored vertex pair, then a rising live link."""
        for big, small in self.vertex_pairs:
            yield big, True
            yield small, False
        if self.trend == RISING:
            yield self.current_u, True

    @property
    def risen(self) -> bool:
        """Whether the input has risen since the fresh start: before it, every relay is DOWN."""
        return self.trend == RISING or bool(self.vertex_pairs)

    def extrema_bounds(self) -> tuple[float, float]:
        """(lowest, highest) input value the stored history ever reached."""
        lo = hi = self.current_u
        if self.vertex_pairs:  # nested pairs: the outermost holds the extremes
            big, small = self.vertex_pairs[0]
            lo, hi = min(lo, small), max(hi, big)
        return lo, hi


def check_invariants(mem: StaircaseMemory) -> str | None:
    """Return None if the memory satisfies its ordering invariants, else why not."""
    if mem.trend not in (INITIAL, RISING, FALLING):
        return f"unknown trend {mem.trend!r}"
    if not math.isfinite(mem.current_u) or not math.isfinite(mem.start_u):
        return "non-finite input value"
    pairs = mem.vertex_pairs
    for k, (big, small) in enumerate(pairs):
        if not (math.isfinite(big) and math.isfinite(small)):
            return f"non-finite vertex in pair {k}"
        if big <= small:
            return f"pair {k} has max <= min"
        if k > 0:
            if big >= pairs[k - 1][0]:
                return f"maxima not strictly decreasing at pair {k}"
            if small <= pairs[k - 1][1]:
                return f"minima not strictly increasing at pair {k}"
    if mem.trend == INITIAL:
        if pairs:
            return "initial memory must have no vertices"
        if mem.current_u != mem.start_u:
            return "initial memory must sit at its start value"
    elif mem.trend == RISING:
        if pairs:
            if mem.current_u <= pairs[-1][1]:
                return "rising input must exceed the last stored minimum"
            if mem.current_u >= pairs[-1][0]:
                return "rising input must stay below the last stored maximum"
    elif mem.trend == FALLING:
        if pairs:
            if mem.current_u != pairs[-1][1]:
                return "falling memory must keep its live minimum at current_u"
    return None


def initial_memory(start_u: float) -> StaircaseMemory:
    """A fresh memory at ``start_u`` with every relay in the DOWN state."""
    return memory_from_sequence(ReversalSequence(start_u))


def push_extremum(mem: StaircaseMemory, u: float) -> StaircaseMemory:
    """Advance the input to ``u`` and return the updated memory.

    Works both for a genuine reversal and for a monotone continuation of
    the current trend (the live link of the interface just keeps moving).
    Erasure happens on the way: a rise to ``u`` deletes stored pairs whose
    maximum is <= u, a fall deletes pairs whose minimum is >= u.
    """
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("input value must be finite")
    if u == mem.current_u:
        raise ValueError("not an extremum: input value did not change")

    # the stored pairs stay a tuple: a push keeps a prefix of them (all of
    # them, the same tuple, when a rise erases nothing) and may add one pair
    pairs = mem.vertex_pairs
    k = len(pairs)
    if u > mem.current_u:
        # Rising. A falling live pair freezes at its current minimum first.
        while k and pairs[k - 1][0] <= u:
            k -= 1
        pairs = pairs[:k]
        trend = RISING
    else:
        # Falling. The link drops from the most recent maximum, swallowing
        # dominated pairs from the inside out.
        if mem.trend == FALLING and k:
            k -= 1
            live_max = pairs[k][0]
        elif mem.trend == RISING:
            live_max = mem.current_u
        else:
            live_max = None  # falling from a virgin state: nothing is up
        if live_max is not None:
            while k and pairs[k - 1][1] >= u:
                k -= 1
                live_max = pairs[k][0]
            pairs = pairs[:k] + ((live_max, u),)
        trend = FALLING

    return StaircaseMemory(
        start_u=mem.start_u,
        vertex_pairs=pairs,
        current_u=u,
        trend=trend,
    )


def memory_from_sequence(seq: ReversalSequence) -> StaircaseMemory:
    """Build a memory from scratch by folding ``seq`` onto a fresh start."""
    mem = StaircaseMemory(float(seq.start_u), (), float(seq.start_u), INITIAL)
    for v in seq.extrema:
        mem = push_extremum(mem, v)
    return mem


def states_of(mem: StaircaseMemory, alphas, betas) -> np.ndarray:
    """Relay states (+1/-1) for arrays of thresholds under this memory.

    The reference replay: the stored dominant extrema plus the live link go
    through :func:`~preisach.hysteron.relay_fold` from all-DOWN, in
    O(stored pairs x relays). Simulators start from their model's ``fold``
    of the same steps instead, which touches only the relays each leg
    crosses; this replay is what erasure soundness and the tests check
    compression against.
    """
    alphas, betas = np.broadcast_arrays(
        np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    )
    states = np.full(alphas.shape, -1, dtype=np.int8)
    return relay_fold(alphas, betas, mem.steps(), states)


def to_dict(mem: StaircaseMemory) -> dict:
    """JSON-friendly form: start, vertex pairs, current input, trend."""
    return {
        "start_u": mem.start_u,
        "pairs": [[big, small] for big, small in mem.vertex_pairs],
        "current_u": mem.current_u,
        "trend": mem.trend,
    }


def from_dict(data: dict) -> StaircaseMemory:
    """Rebuild a memory from its JSON form, validating the invariants."""
    try:
        mem = StaircaseMemory(
            start_u=float(data["start_u"]),
            vertex_pairs=tuple(map(_pair, data["pairs"])),
            current_u=float(data["current_u"]),
            trend=str(data["trend"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed memory record: {exc}") from exc
    problem = check_invariants(mem)
    if problem is not None:
        raise ValueError(f"invalid memory record: {problem}")
    return mem


def save_memory(mem: StaircaseMemory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(mem), fh, indent=2)
        fh.write("\n")


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not JSON is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a syntax error, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from exc


def _pair(item) -> tuple[float, float]:
    """A JSON array of two numbers as two floats: no string or object unpacks as a pair."""
    if not isinstance(item, list):
        raise TypeError(f"expected an array of two numbers, got {item!r}")
    a, b = item
    return float(a), float(b)


def load_memory(path) -> StaircaseMemory:
    data = read_json(path)
    try:
        return from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

"""Executable property suite behind ``preisach verify``.

Each check exercises one structural fact of the models on randomized,
seeded fixtures and reports the worst deviation it observed:

* erasure soundness -- compressing a history to its dominant extrema never
  changes any relay's state,
* congruency (classical) -- steady cycles over the same bounds coincide up
  to a vertical translation no matter the prior history,
* equal chords (generalized) -- cycle branch gaps match across histories
  even where the branches themselves do not (the incongruence witness),
* reconstruction (generalized) -- the soft model folded over the raw
  history (``eval_generalized``, the raw-history reference of every relay
  model) gives the sum of the band, forced and midline parts of the
  simulator resumed from the history's staircase memory,
* shift equivalence -- the shift model folded over the raw history and
  summed with ``math.fsum`` (``eval_generalized``) gives the band output of
  the moving-threshold simulator resumed from the history's compressed
  staircase memory, read from its exact integer total.

All but erasure soundness pass when their worst deviation is within
``residual_limit``: ``tol`` times the largest ``|output|`` they evaluated,
or ``tol`` if that is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import AgentPopulation, WeightGrid, check_congruency, minor_loop
from .generalized import GeneralizedPopulation, ShiftModel, check_equal_chords, eval_generalized
from .hysteron import relay_fold
from .memory import memory_from_sequence, states_of
from .signal import ReversalSequence, SampledSeries, extract_reversals


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: max deviation {self.max_deviation:.3e}  ({self.detail})"


def residual_limit(tol: float, outputs) -> float:
    """Pass limit for a dual-path residual: ``tol`` times max(1, the largest
    ``|output|`` among ``outputs``, each an array or a number)."""
    return tol * max([1.0, *(float(np.abs(f).max()) for f in outputs)])


def random_history(rng, lo: float, hi: float, max_reversals: int) -> ReversalSequence:
    """A random alternating history inside [lo, hi], starting at ``lo``."""
    k = int(rng.integers(1, max_reversals + 1))
    vals = rng.uniform(lo, hi, k)
    series = SampledSeries.from_pairs([(i, v) for i, v in enumerate(vals)])
    return extract_reversals(series, lo)


def check_erasure(bounds: tuple[float, float], rng) -> CheckResult:
    """Compressed-memory states vs. brute-force replay on a probe lattice."""
    n_histories = 200
    lo, hi = bounds
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, 50)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    keep = aa >= bb
    alphas, betas = aa[keep], bb[keep]
    mismatches = 0
    for _ in range(n_histories):
        seq = random_history(rng, lo, hi, 100)
        mem = memory_from_sequence(seq)
        got = states_of(mem, alphas, betas)
        want = relay_fold(alphas, betas, seq.steps())  # the uncompressed history
        mismatches += int(np.count_nonzero(got != want))
    return CheckResult(
        name="erasure-soundness",
        passed=mismatches == 0,
        max_deviation=float(mismatches),
        detail=f"{n_histories} histories x {alphas.size} probes, {mismatches} state mismatches",
    )


def _support(model) -> tuple[float, float]:
    lo, hi = model.support_bounds()  # widened by 0.5 on each side if it is one value
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def _random_cycle(rng, lo: float, hi: float) -> tuple[float, float]:
    a, b = np.sort(rng.uniform(lo, hi, 2))
    if a == b:
        b = a + 0.1 * (hi - lo)
    return float(a), float(b)


def _loop_pairs(model, rng, n_pairs: int, max_reversals: int, pad: float, tol: float):
    """Two steady loops of 61 points per random cycle, 3 cycles traced after
    each of ``n_pairs`` pairs of random histories.

    Histories range over the model's support widened by ``pad`` times its
    width on each side. Also returns the ``residual_limit`` of the branches.
    """
    lo, hi = _support(model)
    h_lo, h_hi = lo - pad * (hi - lo), hi + pad * (hi - lo)
    pairs = []
    for _ in range(n_pairs):
        h1 = random_history(rng, h_lo, h_hi, max_reversals)
        h2 = random_history(rng, h_lo, h_hi, max_reversals)
        for _ in range(3):
            um, up = _random_cycle(rng, lo, hi)
            pairs.append((minor_loop(model, h1, um, up, 61),
                          minor_loop(model, h2, um, up, 61)))
    branches = (f for pair in pairs for loop in pair
                for f in (loop.f_ascending, loop.f_descending))
    return pairs, residual_limit(tol, branches)


def check_classical_congruency(model, rng, tol: float = 1e-12) -> CheckResult:
    """Steady cycles from different histories must be congruent."""
    # grid evaluation is only defined inside the binned support
    pad = 0.0 if isinstance(model, WeightGrid) else 0.4
    pairs, limit = _loop_pairs(model, rng, 10, 40, pad, tol)
    worst = max(check_congruency(l1, l2, tol).max_deviation for l1, l2 in pairs)
    return CheckResult(
        name="congruency",
        passed=worst <= limit,
        max_deviation=worst,
        detail="10 history pairs x 3 cycles, translation-adjusted",
    )


def check_generalized_equal_chords(gpop: GeneralizedPopulation, rng,
                                   tol: float = 1e-12) -> CheckResult:
    """Branch gaps must agree across histories; congruency usually fails."""
    pairs, limit = _loop_pairs(gpop, rng, 8, 30, 0.4, tol)
    reports = [check_equal_chords(l1, l2, limit) for l1, l2 in pairs]
    worst = max(rep.max_chord_deviation for rep in reports)
    incongruent_seen = not all(rep.congruent for rep in reports)
    witness = "incongruent loops observed" if incongruent_seen else "all loops congruent"
    return CheckResult(
        name="equal-chords",
        passed=worst <= limit,
        max_deviation=worst,
        detail=f"8 history pairs x 3 cycles; {witness}",
    )


def _two_routes(name: str, model, rng, tol: float, pad: float, routes,
                detail: str) -> CheckResult:
    """Compare two routes to one output after 100 random histories, padded as in ``_loop_pairs``.

    ``routes(seq, q)`` gives each route's output at ``q`` after ``seq``, then any terms one summed.
    """
    lo, hi = _support(model)
    span = hi - lo
    worst, outputs = 0.0, []
    for _ in range(100):
        seq = random_history(rng, lo - pad * span, hi + pad * span, 30)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        first, second, *terms = routes(seq, q)
        worst = max(worst, abs(first - second))
        outputs += (first, second, *terms)
    return CheckResult(
        name=name,
        passed=worst <= residual_limit(tol, outputs),
        max_deviation=worst,
        detail=f"100 random histories{detail}",
    )


def check_reconstruction(gpop: GeneralizedPopulation, rng, tol: float = 1e-12) -> CheckResult:
    """The soft model folded over the raw history vs. the parts of the
    simulator resumed from the history's staircase memory, summed as ``decompose`` sums them."""
    def routes(seq, q):
        band, forced, offset = gpop.simulator(memory=memory_from_sequence(seq)).parts()
        return eval_generalized(gpop, seq, q), band + forced + offset, band, forced, offset

    return _two_routes("reconstruction", gpop, rng, tol, 0.2, routes, "")


def check_shift_equivalence(sm: ShiftModel, rng, tol: float = 1e-12) -> CheckResult:
    """The shift model folded over the raw history vs. the moving-threshold
    simulator resumed, as a ``--memory-in`` run is, from the history's staircase memory."""
    def routes(seq, q):
        return eval_generalized(sm, seq, q), sm.simulator(memory=memory_from_sequence(seq)).value()

    return _two_routes("shift-equivalence", sm, rng, tol, 0.5, routes,
                       ", dual evaluation paths")


# Each model kind's checks after erasure soundness, by name so wrappers apply.
_CHECKS = {
    AgentPopulation: ("check_classical_congruency",),
    WeightGrid: ("check_classical_congruency",),
    GeneralizedPopulation: ("check_generalized_equal_chords", "check_reconstruction"),
    ShiftModel: ("check_shift_equivalence",),
}


def run_suite(model, seed: int = 0, tol: float = 1e-12) -> list[CheckResult]:
    """Run the checks that apply to ``model`` and return their results."""
    checks = _CHECKS.get(type(model))
    if checks is None:
        raise ValueError(f"unsupported model type: {type(model).__name__}")
    rng = np.random.default_rng(seed)
    return [check_erasure(_support(model), rng),
            *(globals()[name](model, rng, tol=tol) for name in checks)]

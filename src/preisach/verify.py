"""Executable property suite behind ``preisach verify``.

Each check exercises one structural fact of the models on randomized,
seeded fixtures and reports the worst deviation it observed:

* erasure soundness -- compressing a history to its dominant extrema never
  changes any relay's state,
* congruency (classical) -- steady cycles over the same bounds coincide up
  to a vertical translation no matter the prior history,
* equal chords (generalized) -- cycle branch gaps match across histories
  even where the branches themselves do not (the incongruence witness),
* reconstruction (generalized) -- band + saturation + midline parts add
  back to the full output,
* shift equivalence -- the moving-threshold model and its relabeling as an
  input-dependent weight produce the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import AgentPopulation, WeightGrid, check_congruency, minor_loop
from .generalized import (
    GeneralizedPopulation,
    ShiftModel,
    check_equal_chords,
    eval_generalized,
    eval_irreversible,
    eval_shifted,
    midline_offset,
    saturation_term,
    to_generalized,
)
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


def random_history(rng, lo: float, hi: float, max_reversals: int,
                   start_u: float | None = None) -> ReversalSequence:
    """A random alternating history inside [lo, hi]."""
    if start_u is None:
        start_u = lo
    k = int(rng.integers(1, max_reversals + 1))
    vals = rng.uniform(lo, hi, k)
    series = SampledSeries.from_pairs([(i, v) for i, v in enumerate(vals)])
    return extract_reversals(series, start_u)


def check_erasure(bounds: tuple[float, float], rng, n_histories: int = 200,
                  max_reversals: int = 100, probe_n: int = 50) -> CheckResult:
    """Compressed-memory states vs. brute-force replay on a probe lattice."""
    lo, hi = bounds
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, probe_n)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    keep = aa >= bb
    alphas, betas = aa[keep], bb[keep]
    mismatches = 0
    for _ in range(n_histories):
        seq = random_history(rng, lo, hi, max_reversals)
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


def _random_cycle(rng, lo: float, hi: float) -> tuple[float, float]:
    a, b = np.sort(rng.uniform(lo, hi, 2))
    if a == b:
        b = a + 0.1 * (hi - lo)
    return float(a), float(b)


def _loop_pairs(model, rng, n_pairs: int, n_cycles: int, max_reversals: int,
                n_points: int, pad: float):
    """Yield two steady loops per random cycle, traced after two random histories.

    Histories range over the model's support widened by ``pad`` times its
    width on each side.
    """
    lo, hi = model.support_bounds()
    h_lo, h_hi = lo - pad * (hi - lo), hi + pad * (hi - lo)
    for _ in range(n_pairs):
        h1 = random_history(rng, h_lo, h_hi, max_reversals)
        h2 = random_history(rng, h_lo, h_hi, max_reversals)
        for _ in range(n_cycles):
            um, up = _random_cycle(rng, lo, hi)
            yield minor_loop(model, h1, um, up, n_points), minor_loop(model, h2, um, up, n_points)


def check_classical_congruency(model, rng, n_pairs: int = 10, n_cycles: int = 3,
                               tol: float = 1e-12, n_points: int = 61) -> CheckResult:
    """Steady cycles from different histories must be congruent."""
    # grid evaluation is only defined inside the binned support
    pad = 0.0 if isinstance(model, WeightGrid) else 0.4
    worst = 0.0
    for l1, l2 in _loop_pairs(model, rng, n_pairs, n_cycles, 40, n_points, pad):
        worst = max(worst, check_congruency(l1, l2, tol).max_deviation)
    return CheckResult(
        name="congruency",
        passed=worst <= tol,
        max_deviation=worst,
        detail=f"{n_pairs} history pairs x {n_cycles} cycles, translation-adjusted",
    )


def check_generalized_equal_chords(gpop: GeneralizedPopulation, rng,
                                   n_pairs: int = 8, n_cycles: int = 3,
                                   tol: float = 1e-12, n_points: int = 61) -> CheckResult:
    """Branch gaps must agree across histories; congruency usually fails."""
    worst = 0.0
    incongruent_seen = False
    for l1, l2 in _loop_pairs(gpop, rng, n_pairs, n_cycles, 30, n_points, 0.4):
        rep = check_equal_chords(l1, l2, tol)
        worst = max(worst, rep.max_chord_deviation)
        if not rep.congruent:
            incongruent_seen = True
    witness = "incongruent loops observed" if incongruent_seen else "all loops congruent"
    return CheckResult(
        name="equal-chords",
        passed=worst <= tol,
        max_deviation=worst,
        detail=f"{n_pairs} history pairs x {n_cycles} cycles; {witness}",
    )


def check_reconstruction(gpop: GeneralizedPopulation, rng, n_cases: int = 100,
                         tol: float = 1e-12) -> CheckResult:
    """Band + saturation + midline must re-assemble the full output."""
    lo, hi = gpop.support_bounds()
    span = hi - lo
    worst = 0.0
    for _ in range(n_cases):
        seq = random_history(rng, lo - 0.2 * span, hi + 0.2 * span, 30)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        full = eval_generalized(gpop, seq, q)
        rebuilt = (
            eval_irreversible(gpop, seq, q)
            + saturation_term(gpop, q)
            + midline_offset(gpop, q)
        )
        worst = max(worst, abs(full - rebuilt))
    return CheckResult(
        name="reconstruction",
        passed=worst <= tol,
        max_deviation=worst,
        detail=f"{n_cases} random histories",
    )


def check_shift_equivalence(sm: ShiftModel, rng, n_cases: int = 100,
                            tol: float = 1e-12) -> CheckResult:
    """Moving-threshold evaluation vs. the relabeled-weight evaluation."""
    lo, hi = sm.support_bounds()
    span = hi - lo
    view = to_generalized(sm)
    worst = 0.0
    for _ in range(n_cases):
        seq = random_history(rng, lo - 0.5 * span, hi + 0.5 * span, 30)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        worst = max(worst, abs(eval_shifted(sm, seq, q) - view.eval_irreversible(seq, q)))
    return CheckResult(
        name="shift-equivalence",
        passed=worst <= tol,
        max_deviation=worst,
        detail=f"{n_cases} random histories, dual evaluation paths",
    )


def run_suite(model, seed: int = 0, tol: float = 1e-12) -> list[CheckResult]:
    """Run the checks that apply to ``model`` and return their results."""
    if not isinstance(model, (AgentPopulation, WeightGrid, GeneralizedPopulation, ShiftModel)):
        raise ValueError(f"unsupported model type: {type(model).__name__}")
    rng = np.random.default_rng(seed)
    results = [check_erasure(model.support_bounds(), rng)]
    if isinstance(model, GeneralizedPopulation):
        results.append(check_generalized_equal_chords(model, rng, tol=tol))
        results.append(check_reconstruction(model, rng, tol=tol))
    elif isinstance(model, ShiftModel):
        results.append(check_shift_equivalence(model, rng, tol=tol))
    else:
        results.append(check_classical_congruency(model, rng, tol=tol))
    return results

"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are pinned here and must not be loosened: exact
identities run at 1e-12 (relative to the aggregate capacity where a scale
is involved), grid-vs-population comparisons at 1e-9 only where binning is
itself the approximation under test.
"""

import time

import numpy as np
import pytest

from helpers import (
    eval_direct,
    random_history,
    random_population,
    random_shift_model,
    random_soft_population,
    raw_relay_states,
    rectangular_population,
    series_from_values,
    varying_gap_population,
)
from preisach import (
    AgentPopulation,
    ReversalSequence,
    check_congruency,
    eval_generalized,
    extract_reversals,
    from_agents,
    initial_memory,
    memory_from_sequence,
    minor_loop,
    states_of,
)

RS = ReversalSequence


def report(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {index} {name}: {detail}"


def test_01_erasure_soundness():
    rng = np.random.default_rng(101)
    grid = np.linspace(-5.5, 5.5, 50)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    keep = aa >= bb
    alphas, betas = aa[keep], bb[keep]
    mismatches = 0
    n_histories = 1000
    for _ in range(n_histories):
        seq = random_history(rng, -5.0, 5.0, 200, start_u=0.0)
        mem = memory_from_sequence(seq)
        got = states_of(mem, alphas, betas)
        want = raw_relay_states(alphas, betas, seq)
        mismatches += int(np.count_nonzero(got != want))
    report(
        1,
        "erasure-soundness",
        mismatches == 0,
        f"{n_histories} histories x {alphas.size} probes, {mismatches} mismatches",
    )


def test_02_oracle_equivalence_direct_vs_geometric():
    rng = np.random.default_rng(102)
    n_agents, n = 100_000, 512
    pop = random_population(rng, n_agents, lo=0.0, hi=1.0)
    grid = from_agents(pop, n, (0.0, 1.0))
    edges = np.linspace(0.0, 1.0, n + 1)
    scale = max(1.0, grid.total_mass)
    worst = 0.0
    for _ in range(25):
        snapped = edges[rng.integers(0, n + 1, 40)]
        seq = extract_reversals(series_from_values(snapped), 0.0)
        if not seq.extrema:
            continue
        sim = grid.simulator(initial_memory(0.0))
        geo = [sim.value()]
        for v in seq.extrema:
            sim.push(v)
            geo.append(sim.value())
        direct = eval_direct(pop, seq)
        worst = max(worst, float(np.abs(np.array(geo) - direct).max()) / scale)
    report(
        2,
        "oracle-equivalence",
        worst <= 1e-12,
        f"{n_agents} agents binned at n={n}, max relative deviation {worst:.3e}",
    )


def test_03_classical_congruency():
    rng = np.random.default_rng(103)
    pop = random_population(rng, 400, lo=0.0, hi=1.0)
    worst = 0.0
    n_pairs, n_cycles = 10, 5
    for _ in range(n_pairs):
        h1 = random_history(rng, -0.2, 1.2, 40, start_u=0.0)
        h2 = random_history(rng, -0.2, 1.2, 40, start_u=0.0)
        for _ in range(n_cycles):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 0.02:
                hi = lo + 0.02
            l1 = minor_loop(pop, h1, lo, hi, 61)
            l2 = minor_loop(pop, h2, lo, hi, 61)
            worst = max(worst, check_congruency(l1, l2, 1e-12).max_deviation)
    report(
        3,
        "classical-congruency",
        worst <= 1e-12,
        f"{n_pairs} history pairs x {n_cycles} cycles, max deviation {worst:.3e}",
    )


def test_04_chord_identity_and_universality():
    rng = np.random.default_rng(104)
    pop = random_population(rng, 300, lo=0.0, hi=1.0)
    histories = [
        RS(0.0, (0.95,)),
        RS(0.0, (0.9, 0.25, 0.7)),
        RS(0.0, (1.0, 0.05, 0.5, 0.3)),
    ]
    lo, hi = 0.2, 0.8
    traces = [minor_loop(pop, h, lo, hi, 81) for h in histories]
    identity_dev = 0.0
    for trace in traces:
        gap = trace.chord()
        formula = np.array([pop.chord(lo, hi, float(u)) for u in trace.us])
        identity_dev = max(identity_dev, float(np.abs(gap - formula).max()))
    universality_dev = 0.0
    base = traces[0].chord()
    for trace in traces[1:]:
        universality_dev = max(universality_dev, float(np.abs(trace.chord() - base).max()))
    ok = identity_dev <= 1e-12 and universality_dev <= 1e-12
    report(
        4,
        "chord-identity",
        ok,
        f"formula vs loop {identity_dev:.3e}, across {len(histories)} histories {universality_dev:.3e}",
    )


def test_05_generalized_reconstruction():
    rng = np.random.default_rng(105)
    worst = 0.0
    cases = 100
    for _ in range(cases):
        gpop = random_soft_population(rng, int(rng.integers(3, 40)))
        seq = random_history(rng, -1.6, 1.6, 30, start_u=-1.6)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        whole = eval_generalized(gpop, seq, q)
        band, forced, offset = gpop.simulator(memory=memory_from_sequence(seq)).parts()
        worst = max(worst, abs(whole - (band + forced + offset)))
    report(5, "generalized-reconstruction", worst <= 1e-12,
           f"{cases} random populations/histories, max deviation {worst:.3e}")


def test_06_equal_chords_without_congruency():
    gpop = varying_gap_population()
    h_up = RS(-3.0, (2.5, -0.6))
    h_down = RS(-3.0, (1.0, -0.6))
    l1 = minor_loop(gpop, h_up, -0.5, 0.5, 61)
    l2 = minor_loop(gpop, h_down, -0.5, 0.5, 61)
    rep = check_congruency(l1, l2, 1e-12)
    degenerate_dev = 0.0
    for hist in (h_up, h_down, RS(-3.0, (0.05, -0.05))):
        trace = minor_loop(gpop, hist, -0.1, 0.1, 31)
        degenerate_dev = max(degenerate_dev, float(np.abs(trace.chord()).max()))
    ok = (
        rep.chords_equal
        and not rep.congruent
        and rep.max_deviation > 1e-3
        and degenerate_dev == 0.0
    )
    report(
        6,
        "equal-chords-without-congruency",
        ok,
        f"chord dev {rep.max_chord_deviation:.3e}, branch dev {rep.max_deviation:.3e}, "
        f"degenerate-cycle chord {degenerate_dev:.3e}",
    )


def test_07_shift_equivalence():
    rng = np.random.default_rng(107)
    worst = 0.0
    cases = 100
    for _ in range(cases):
        sm = random_shift_model(rng, n_agents=int(rng.integers(5, 40)))
        seq = random_history(rng, -2.0, 2.0, 30, start_u=-2.0)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        # raw-history fold vs the simulator resumed from the compressed memory
        resumed = sm.simulator(memory=memory_from_sequence(seq)).value()
        worst = max(worst, abs(eval_generalized(sm, seq, q) - resumed))
    report(7, "shift-equivalence", worst <= 1e-12,
           f"{cases} random shift pairs, max dual-path deviation {worst:.3e}")


def test_08_degeneration_to_classical():
    # Dyadic capacities keep every summation order exact, so the outputs
    # must agree bit for bit, not merely within tolerance.
    alphas = [0.5, 0.25, 0.75, 0.0]
    betas = [-0.5, -0.25, 0.0, -1.0]
    nus = [1.0, 0.5, 2.0, 0.25]
    pop = AgentPopulation(alphas, betas, nus)
    gpop = rectangular_population(alphas, betas, nus)
    rng = np.random.default_rng(108)
    exact = True
    for _ in range(50):
        seq = random_history(rng, -1.2, 1.2, 25, start_u=-1.2)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        if eval_generalized(gpop, seq, q) != eval_direct(pop, seq)[-1]:
            exact = False
            break
    report(8, "degeneration", exact, "constant +/-nu branches equal the relay aggregate exactly")


def test_09_rate_independence():
    pop = AgentPopulation([2, 3], [1, 0], [1, 2])
    fast = series_from_values([0, 1, 3, 1.5, 1, 2])
    slow = series_from_values([0, 0.5, 1.2, 2.0, 3, 2.5, 1.7, 1, 1.4, 2])
    seq_fast = extract_reversals(fast, 0.0)
    seq_slow = extract_reversals(slow, 0.0)
    same_reduction = seq_fast == seq_slow

    def outputs_at_reversals(series, seq):
        sim = pop.simulator(initial_memory(0.0))
        wanted = list(seq.extrema)
        out = []
        for u in series.values:
            sim.push(u)
            if wanted and u == wanted[0]:
                out.append(sim.value())
                wanted.pop(0)
        return out

    fast_out = outputs_at_reversals(fast, seq_fast)
    slow_out = outputs_at_reversals(slow, seq_slow)
    ok = same_reduction and fast_out == slow_out and len(fast_out) == len(seq_fast.extrema)
    report(9, "rate-independence", ok,
           f"two samplings, identical outputs at {len(fast_out)} reversal points")


def test_10_performance_property():
    rng = np.random.default_rng(110)
    n, n_agents = 512, 1_000_000
    beta = rng.uniform(0.0, 1.0, n_agents)
    alpha = beta + rng.uniform(0.0, 1.0, n_agents) * (1.0 - beta)
    nu = rng.uniform(0.0, 2.0, n_agents)
    pop = AgentPopulation(alpha, beta, nu)
    grid = from_agents(pop, n, (0.0, 1.0))

    # Nested, fully retained 100-reversal history: worst case for the
    # staircase (50 live vertex pairs), cell-aligned so results are exact.
    edges = np.linspace(0.0, 1.0, n + 1)
    values = []
    lo_i, hi_i = 0, n
    for _ in range(50):
        values.append(edges[hi_i])
        values.append(edges[lo_i])
        hi_i -= 2
        lo_i += 2
    seq = RS(0.0, tuple(values))

    def run_direct():
        return eval_direct(pop, seq)

    def run_geometric():
        sim = grid.simulator(initial_memory(seq.start_u))
        out = [sim.value()]
        for v in seq.extrema:
            sim.push(v)
            out.append(sim.value())
        return out

    def best_of(fn, repeats=3):
        result, best = fn(), float("inf")  # first call warms caches
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return result, best

    direct, t_direct = best_of(run_direct)
    geo, t_geometric = best_of(run_geometric)
    speedup = t_direct / t_geometric
    dev = float(np.abs(np.array(geo) - direct).max()) / max(1.0, grid.total_mass)
    ok = speedup >= 100.0 and dev <= 1e-9
    report(
        10,
        "performance",
        ok,
        f"direct {t_direct*1e3:.0f} ms vs geometric {t_geometric*1e3:.1f} ms "
        f"({speedup:.0f}x, need >=100x), relative deviation {dev:.3e}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))

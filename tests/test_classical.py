import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preisach.classical
from helpers import (
    cell_masses,
    eval_direct,
    grid_of,
    random_history,
    random_population,
    raw_relay_states,
    rectangular_population,
    sat_ints,
    series_from_values,
    uniform_grid,
)
from preisach import (
    AgentPopulation,
    LoopTrace,
    PiecewiseLinear,
    ReversalSequence,
    ShiftModel,
    check_congruency,
    eval_geometric,
    extract_reversals,
    from_agents,
    initial_memory,
    memory_from_sequence,
    minor_loop,
)
from preisach.classical import _limb_bits

RS = ReversalSequence
# a relay whose branches are 2e308 apart: past the float range
HUGE_RELAY = ([0.5], [0.25], [1e308])
# magnitudes whose halves are exact, and whose anchored differences stay in range
NORMAL_OUTPUT = st.one_of(st.just(0.0), st.floats(2.0 ** -1021, 1e300),
                          st.floats(-1e300, -(2.0 ** -1021)))


def scaled(values, scale):
    """Each float of ``values`` times ``2**scale`` as an exact Python int, in an object array."""
    def one(v):
        p, q = v.as_integer_ratio()  # q is a power of two
        assert (p << scale) % q == 0, (v, scale)
        return (p << scale) // q
    return np.array([one(v) for v in np.ravel(values).tolist()], dtype=object).reshape(
        np.shape(values))


def square_sat(ints):
    """The whole (n+1) x (n+1) summed-area table of an n x n object array of Python ints."""
    n = ints.shape[0]
    want = np.zeros((n + 1, n + 1), dtype=object)
    want[1:, 1:] = ints.cumsum(0).cumsum(1)
    return want


def assert_sat_matches(grid, want):
    """Every ``P[i, j] * 2**scale`` equals the Python int ``want[i, j]``: joined from the
    limbs of the whole table at once, and read through ``rect_mass`` one entry at a time
    (the strip of rows [0, i) and cols [0, j))."""
    assert (sat_ints(grid) == want).all()
    i, j = np.indices(want.shape)
    assert all(grid.rect_mass(0, a, 0, b) == want[a, b]
               for a, b in zip(i.ravel().tolist(), j.ravel().tolist()))


@pytest.fixture(scope="module")
def unit_grid():
    return uniform_grid(1.0, 64, (0.0, 1.0))


@pytest.fixture(scope="module")
def center_population(unit_grid):
    """One agent per occupied cell, sitting exactly at the cell center."""
    mass = cell_masses(unit_grid)
    rows, cols = np.nonzero(mass)
    return AgentPopulation(unit_grid.centers[rows], unit_grid.centers[cols], mass[rows, cols])


class TestEvalDirect:
    def test_saturated_start(self):
        pop = AgentPopulation([2, 3], [1, 0], [1, 2])
        assert eval_direct(pop, RS(0.0, ())).tolist() == [-3.0]

    def test_partial_switch(self):
        pop = AgentPopulation([2, 3], [1, 0], [1, 2])
        assert eval_direct(pop, RS(0.0, (2.5,))).tolist() == [-3.0, -1.0]

    def test_switch_back_down(self):
        pop = AgentPopulation([2, 3], [1, 0], [1, 2])
        assert eval_direct(pop, RS(0.0, (2.5, 0.5))).tolist() == [-3.0, -1.0, -3.0]

    def test_dominated_subcycle_leaves_later_outputs_unchanged(self):
        # Model-level erasure: once a later maximum wipes an inserted
        # sub-cycle, everything downstream is as if it never happened.
        rng = np.random.default_rng(24)
        pop = random_population(rng, 150)
        with_cycle = RS(0.0, (0.9, 0.2, 0.5, 0.3, 0.95, 0.4, 0.6))
        without = RS(0.0, (0.9, 0.2, 0.95, 0.4, 0.6))
        assert eval_direct(pop, with_cycle)[-3:].tolist() == eval_direct(pop, without)[-3:].tolist()

    def test_monotone_output_along_monotone_input(self):
        rng = np.random.default_rng(2)
        pop = random_population(rng, 200)
        sim = pop.simulator(initial_memory(0.0))
        values = [sim.value()]
        for u in np.linspace(0.0, 1.0, 50):
            sim.push(u)
            values.append(sim.value())
        assert np.all(np.diff(values) >= 0)

    def test_validation_names_agent(self):
        with pytest.raises(ValueError, match="agent 1: alpha < beta"):
            AgentPopulation([2, 0], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="agent 0: negative capacity"):
            AgentPopulation([2], [1], [-1])
        with pytest.raises(ValueError, match="agent 1: total capacity overflows"):
            AgentPopulation([0.9, 0.8, 0.7], [0.1, 0.2, 0.3], [1e308] * 3)
        with pytest.raises(ValueError, match="^agent 1: total capacity overflows$"):
            AgentPopulation([0.5, 0.5], [0.25, 0.25], [1.7e308, 1.7e308])
        # the float running total stays at the largest double; the exact one rounds to inf
        with pytest.raises(ValueError, match="^agent 2: total capacity overflows$"):
            AgentPopulation([0.5] * 3, [0.25] * 3,
                            [1.7976931348623157e308, 2.0 ** 969, 2.0 ** 969])

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError, match="^at least one agent is required$"):
            AgentPopulation([], [], [])

    @pytest.mark.parametrize("alpha, beta, nu", [([2, 0], [1], [1, 1]), ([[2]], [[1]], [[1]])])
    def test_arrays_of_unequal_length_rejected(self, alpha, beta, nu):
        message = "^alpha, beta, nu must be 1-d arrays of equal length$"
        with pytest.raises(ValueError, match=message):
            AgentPopulation(alpha, beta, nu)


class TestExactCapacities:
    @staticmethod
    def exact(nu, signs, scale):
        """``sum(s_k * nu_k) * 2**scale`` as a Python int, from each capacity's ratio."""
        return sum(int(s) * v for s, v in zip(signs.tolist(), scaled(nu, scale)))

    def test_limb_width_keeps_every_partial_sum_in_its_word(self):
        # float64 limbs (the ledger) and int64 limbs (the grid's table): n limbs of the
        # width sum below 2**word, and one bit more would not (at these n)
        for word in (53, 63):
            assert _limb_bits(1, word) == word
            for k in range(41):
                for n in (2**k, 2**k + 1):
                    bits = _limb_bits(n, word)
                    assert n * (2**bits - 1) < 2**word, (n, word)
                    if k <= 25:
                        assert n * (2 ** (bits + 1) - 1) >= 2**word, (n, word)
        assert _limb_bits(10**5, 63) == 46 and _limb_bits(5 * 10**4, 53) == 37

    # None: the width of n (47 and 44); 17 also shifts a mantissa by more than 63 bits
    @pytest.mark.parametrize("bits", [None, 22, 17, 7, 1])
    def test_sums_are_exact_at_every_limb_width(self, monkeypatch, bits):
        if bits is not None:
            monkeypatch.setattr(preisach.classical, "_limb_bits", lambda n, word: bits)
        rng = np.random.default_rng(32)
        spread = np.array([5e-324, 1e300, *rng.uniform(0.0, 2.0, 37), 1e300, 0.0, 2.5e-310])
        for nu in (rng.uniform(0.0, 2.0, 500), spread):
            size = nu.size
            pop = AgentPopulation(rng.uniform(0.5, 1.0, size), rng.uniform(0.0, 0.5, size), nu)
            ledger = pop._exact
            if bits is None and nu is spread:
                assert len(ledger.limbs) == 46  # 1e300 * 2**1126 has 2123 bits, 47 per limb
            for _ in range(5):
                signs = rng.choice([-1.0, 1.0], size)
                assert ledger.signed_total(signs) == self.exact(nu, signs, ledger.scale)
                some = np.flatnonzero(rng.random(size) < 0.5)
                assert ledger.sum_of(some) == self.exact(nu[some], np.ones(some.size),
                                                         ledger.scale)
                k = int(rng.integers(size + 1))
                for order, prefix in ((ledger.index.by_alpha, ledger.by_alpha),
                                      (ledger.index.by_beta, ledger.by_beta)):
                    assert ledger._join(prefix[:, k]) == self.exact(nu[order[:k]], np.ones(k),
                                                                    ledger.scale)


class TestWeightGrid:
    def test_binning_single_agent(self):
        pop = AgentPopulation([0.55], [0.25], [2.5])
        grid = from_agents(pop, 10, (0.0, 1.0))
        mass = cell_masses(grid)
        assert mass[5, 2] == 2.5
        assert np.count_nonzero(mass) == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(4)
        pop = random_population(rng, 5000)
        grid = from_agents(pop, 128, (0.0, 1.0))
        assert grid.total_mass == math.fsum(pop.nu)  # the exact total, rounded once

    @staticmethod
    def add_at_sat(pop, n, lo, hi, scale):
        """The table of the dense cell masses ``np.add.at`` bins ``pop`` into, summed as
        Python ints at ``scale``."""
        width = (hi - lo) / n
        rows = np.clip(((pop.alpha - lo) / width).astype(int), 0, n - 1)
        cols = np.clip(((pop.beta - lo) / width).astype(int), 0, n - 1)
        want = np.zeros((n, n), dtype=object)
        np.add.at(want, (rows, cols), scaled(pop.nu, scale))
        return square_sat(want)

    def test_binning_matches_add_at_byte_for_byte(self):
        # many agents per cell, thresholds on cell edges and both bounds, zero
        # capacities, and magnitudes where the order of the additions shows
        n, lo, hi = 8, -1.0, 1.0
        rng = np.random.default_rng(6)
        on_edges = np.linspace(lo, hi, n + 1)
        values = np.concatenate((on_edges, rng.uniform(lo, hi, 4)))
        pairs = np.sort(rng.choice(values, (2000, 2)), axis=1)
        nu = rng.choice([0.0, 0.0, 1e-17, 0.1, 1.0, 3.0, 1e16], 2000)
        pop = AgentPopulation(pairs[:, 1], pairs[:, 0], nu)
        grid = from_agents(pop, n, (lo, hi))
        assert grid.scale == pop._exact.scale  # the agents' own scale
        assert_sat_matches(grid, self.add_at_sat(pop, n, lo, hi, grid.scale))

    @pytest.mark.parametrize("alpha, beta", [
        ([0.9, 0.15, 0.95, 0.2], [0.6, 0.0, 0.55, 0.1]),  # at n = 8, rows 0 and 2 to 6 are empty
        ([1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 1.0, 0.5]),  # on both bounds and both diagonals
    ])
    @pytest.mark.parametrize("n", [2, 8])
    def test_binning_edge_cases_match_add_at(self, alpha, beta, n):
        pop = AgentPopulation(alpha, beta, [1e16, 1e-17, 3.0, 0.0])
        grid = from_agents(pop, n, (0.0, 1.0))
        assert_sat_matches(grid, self.add_at_sat(pop, n, 0.0, 1.0, grid.scale))

    def test_agent_out_of_range(self):
        pop = AgentPopulation([1.5], [0.5], [1.0])
        with pytest.raises(ValueError, match="agent out of range"):
            from_agents(pop, 8, (0.0, 1.0))

    @pytest.mark.parametrize("n", [-1, 0, 1, -10**30])
    @pytest.mark.parametrize("build", [
        lambda n: from_agents(AgentPopulation([0.5], [0.25], [1.0]), n, (0.0, 1.0)),
    ], ids=["from_agents"])
    def test_rejects_fewer_than_two_cells(self, build, n):
        # checked before the cell width divides by n
        with pytest.raises(ValueError, match="grid needs at least 2 cells per axis"):
            build(n)

    @pytest.mark.parametrize("build", [
        lambda lo, hi: from_agents(AgentPopulation([0.5], [0.25], [1.0]), 4, (lo, hi)),
    ], ids=["from_agents"])
    def test_rejects_bounds_whose_width_overflows(self, build):
        # finite bounds, but an infinite cell width would put every center at inf; a
        # width that underflows to 0 puts them all at beta0, and at 1e16 (float step 2)
        # a width of 1 rounds the 4 centers to 3 values
        for lo, hi, shown in [(-1e308, 1e308, "-1e+308, 1e+308"), (0.0, 5e-324, "0.0, 5e-324"),
                              (1e16, 10000000000000004, "1e+16, 1.0000000000000004e+16")]:
            with pytest.raises(ValueError, match=re.escape(f"invalid bounds ({shown})")):
                build(lo, hi)

    def test_total_mass_at_the_top_of_the_float_range(self):
        # the agents' exact total rounds to the largest double, so the relay rule keeps
        # them, and the grid's total is that same exact sum, rounded once
        nu = [1.7976931348623157e308, 2.0 ** 969]
        grid = from_agents(AgentPopulation([0.5, 0.75], [0.25, 0.5], nu), 4, (0.0, 1.0))
        assert grid.total_mass == math.fsum(nu) == 1.7976931348623157e308
        sim = grid.simulator(initial_memory(0.0))
        sim.push(0.9)
        assert sim.value() == 1.7976931348623157e308

    @pytest.mark.parametrize("n", [2, 5, 64, 129])
    def test_prefix_matches_independent_cumsum(self, n):
        mass = np.tril(np.random.default_rng(n).uniform(0.0, 3.0, (n, n)))
        grid = grid_of(mass)
        assert_sat_matches(grid, square_sat(scaled(mass, grid.scale)))

    def test_prefix_keeps_the_addition_order(self):
        # with these magnitudes a float table rounds away small masses, and which ones
        # depends on the order of its additions; the table's entries are the exact
        # sums, which have no order, and the total is rounded once
        n = 129
        mass = np.tril(np.random.default_rng(1).choice([0.0, 1e-17, 1.0, 1e16], (n, n)))
        grid = grid_of(mass)
        want = square_sat(scaled(mass, grid.scale))
        rounded = np.array([[v / (1 << grid.scale) for v in row] for row in want.tolist()])
        assert np.count_nonzero(rounded[1:, 1:] != mass.cumsum(0).cumsum(1)) > 0
        assert_sat_matches(grid, want)
        assert grid.total_mass == math.fsum(mass.ravel())

    @pytest.mark.parametrize("n", [2, 7, 512])
    def test_prefix_keeps_only_the_lower_triangle(self, n):
        prefix = uniform_grid(1.0, n, (0.0, 1.0)).prefix
        assert prefix.dtype == np.int64
        assert prefix.nbytes == (n + 1) * (n + 2) // 2 * prefix.itemsize * len(prefix)

    @staticmethod
    def peak_of(build):
        """``(table bytes, tracemalloc peak)`` of building a grid."""
        tracemalloc.start()
        try:
            return build().prefix.nbytes, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_agents_peak_memory(self):
        # binning allocates the packed table and at most 1 MiB more: no n x n
        # matrix of cell masses (2 MiB here) and no square table
        n, rng = 512, np.random.default_rng(4)
        pairs = np.sort(rng.uniform(0.0, 1.0, (20_000, 2)), axis=1)
        pop = AgentPopulation(pairs[:, 1], pairs[:, 0], rng.uniform(0.0, 1.0, 20_000))
        table, peak = self.peak_of(lambda: from_agents(pop, n, (0.0, 1.0)))
        assert peak <= table + 2**20


class TestEvalGeometric:
    def test_saturated_down(self, unit_grid):
        assert eval_geometric(unit_grid, initial_memory(0.0)) == -unit_grid.total_mass

    def test_risen_to_top(self, unit_grid):
        mem = memory_from_sequence(RS(0.0, (1.0,)))
        assert eval_geometric(unit_grid, mem) == unit_grid.total_mass

    def test_matches_direct_on_center_population(self, unit_grid, center_population):
        # Cell masses act as point masses at centers, so arbitrary histories
        # must agree with the explicit per-agent evaluation.
        rng = np.random.default_rng(6)
        scale = max(1.0, unit_grid.total_mass)
        for _ in range(60):
            seq = random_history(rng, 0.0, 1.0, 40, start_u=0.0)
            mem = memory_from_sequence(seq)
            want = eval_direct(center_population, seq)[-1]
            got = eval_geometric(unit_grid, mem)
            assert abs(got - want) <= 1e-12 * scale

    def test_matches_direct_on_fine_uniform_grid(self):
        # Same agreement at n=256 with a uniform weight over the triangle.
        grid = uniform_grid(1.0, 256, (0.0, 1.0))
        mass = cell_masses(grid)
        rows, cols = np.nonzero(mass)
        pop = AgentPopulation(grid.centers[rows], grid.centers[cols], mass[rows, cols])
        rng = np.random.default_rng(7)
        scale = max(1.0, grid.total_mass)
        for _ in range(10):
            seq = random_history(rng, 0.0, 1.0, 30, start_u=0.0)
            want = eval_direct(pop, seq)[-1]
            got = eval_geometric(grid, memory_from_sequence(seq))
            assert abs(got - want) <= 1e-12 * scale

    def test_matches_direct_for_cell_aligned_histories(self):
        # Agents anywhere inside cells agree once extrema sit on cell edges.
        rng = np.random.default_rng(8)
        pop = random_population(rng, 2000)
        n = 32
        grid = from_agents(pop, n, (0.0, 1.0))
        edges = np.linspace(0.0, 1.0, n + 1)
        scale = max(1.0, grid.total_mass)
        for _ in range(40):
            snapped = edges[rng.integers(0, n + 1, 25)]
            keep = [snapped[0]] + [v for v in snapped[1:]]
            seq_raw = [v for v in keep]
            series = [(i, v) for i, v in enumerate(seq_raw)]
            from preisach import SampledSeries, extract_reversals

            seq = extract_reversals(SampledSeries.from_pairs(series), 0.0)
            if not seq.extrema:
                continue
            want = eval_direct(pop, seq)[-1]
            got = eval_geometric(grid, memory_from_sequence(seq))
            assert abs(got - want) <= 1e-12 * scale

    def test_bits_match_direct_on_criterion_02_data(self):
        # acceptance criterion 02's population and cell-aligned histories: every
        # grid output is the direct route's exact total rounded once, so the two
        # agree bit for bit, beside the criterion's pinned 1e-12
        rng = np.random.default_rng(102)
        n = 512
        pop = random_population(rng, 100_000, lo=0.0, hi=1.0)
        grid = from_agents(pop, n, (0.0, 1.0))
        edges = np.linspace(0.0, 1.0, n + 1)
        rows = differ = 0
        for _ in range(25):
            seq = extract_reversals(series_from_values(edges[rng.integers(0, n + 1, 40)]), 0.0)
            if not seq.extrema:
                continue
            sim = grid.simulator(initial_memory(0.0))
            geo = [sim.value()]
            for v in seq.extrema:
                sim.push(v)
                geo.append(sim.value())
            direct = eval_direct(pop, seq).tolist()
            rows += len(geo)
            differ += sum(g.hex() != d.hex() for g, d in zip(geo, direct))
        assert (rows, differ) == (690, 0)

    def test_history_outside_support_rejected(self, unit_grid):
        mem = memory_from_sequence(RS(0.0, (1.5,)))
        with pytest.raises(ValueError, match="out of triangle T"):
            eval_geometric(unit_grid, mem)


class TestMinorLoop:
    def test_full_support_cycle_reaches_saturation(self, unit_grid):
        trace = minor_loop(unit_grid, RS(0.0, ()), 0.0, 1.0, 21)
        assert trace.f_ascending[-1] == unit_grid.total_mass
        assert trace.f_ascending[0] == -unit_grid.total_mass

    def test_loop_closes(self, center_population):
        trace = minor_loop(center_population, RS(0.0, (0.9, 0.1)), 0.3, 0.7, 21)
        assert trace.f_ascending[0] == trace.f_descending[0]

    def test_descending_above_ascending(self, center_population):
        rng = np.random.default_rng(10)
        for _ in range(10):
            hist = random_history(rng, 0.0, 1.0, 20, start_u=0.0)
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if lo == hi:
                continue
            trace = minor_loop(center_population, hist, lo, hi, 31)
            assert np.all(trace.f_descending >= trace.f_ascending - 1e-12)

    def test_empty_cycle_rejected(self, center_population):
        with pytest.raises(ValueError, match="empty cycle"):
            minor_loop(center_population, RS(0.0, ()), 0.5, 0.5, 11)

    def test_congruency_same_history(self, center_population):
        l1 = minor_loop(center_population, RS(0.0, (0.9,)), 0.2, 0.8, 31)
        l2 = minor_loop(center_population, RS(0.0, (0.9,)), 0.2, 0.8, 31)
        report = check_congruency(l1, l2, 1e-12)
        assert report.congruent and report.max_deviation == 0.0

    def test_congruency_across_histories(self, center_population):
        rng = np.random.default_rng(12)
        for _ in range(8):
            h1 = random_history(rng, 0.0, 1.0, 25, start_u=0.0)
            h2 = random_history(rng, 0.0, 1.0, 25, start_u=0.0)
            lo, hi = np.sort(rng.uniform(0.05, 0.95, 2))
            if hi - lo < 0.05:
                hi = lo + 0.05
            l1 = minor_loop(center_population, h1, lo, hi, 31)
            l2 = minor_loop(center_population, h2, lo, hi, 31)
            report = check_congruency(l1, l2, 1e-12)
            assert report.congruent, report

    @pytest.mark.filterwarnings("error")
    def test_congruency_past_the_float_range(self):
        pop = AgentPopulation(*HUGE_RELAY)
        l1 = minor_loop(pop, RS(0.0, (0.9,)), 0.2, 0.6, 5)
        l2 = minor_loop(pop, RS(0.0, (0.9, 0.1)), 0.2, 0.6, 5)
        assert float(l1.f_descending[1]) - float(l1.f_ascending[0]) == math.inf
        report = check_congruency(l1, l2)
        assert report.congruent and report.max_deviation == 0.0

    @pytest.mark.filterwarnings("error")
    def test_deviation_past_the_float_range_reads_inf(self):
        # anchored in halves, the branches still differ by 3.4e308 at u = 1
        us, big = np.array([0.0, 1.0]), 1.7e308
        l1 = LoopTrace(0.0, 1.0, us, np.array([-big, big]), np.array([big, big]))
        l2 = LoopTrace(0.0, 1.0, us, np.array([big, -big]), np.array([big, -big]))
        assert check_congruency(l1, l2).max_deviation == math.inf

    @given(st.lists(st.tuples(*[NORMAL_OUTPUT] * 4), min_size=1, max_size=6))
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_congruency_keeps_the_bits_of_the_direct_difference(self, rows):
        a1, d1, a2, d2 = np.array(rows).T
        us = np.linspace(0.0, 1.0, len(rows))
        l1, l2 = LoopTrace(0.0, 1.0, us, a1, d1), LoopTrace(0.0, 1.0, us, a2, d2)
        direct = max(np.abs((f1 - a1[0]) - (f2 - a2[0])).max() for f1, f2 in ((a1, a2), (d1, d2)))
        assert check_congruency(l1, l2).max_deviation == direct

    def test_incomparable_loops_rejected(self, center_population):
        l1 = minor_loop(center_population, RS(0.0, ()), 0.2, 0.8, 11)
        l2 = minor_loop(center_population, RS(0.0, ()), 0.2, 0.8, 13)
        with pytest.raises(ValueError, match="incomparable loops"):
            check_congruency(l1, l2)


class TestVerticalChord:
    def test_zero_at_cycle_endpoints(self, center_population):
        assert center_population.chord(0.2, 0.8, 0.2) == 0.0
        assert center_population.chord(0.2, 0.8, 0.8) == 0.0

    def test_outside_cycle_rejected(self, center_population):
        with pytest.raises(ValueError, match="outside cycle"):
            center_population.chord(0.2, 0.8, 0.9)

    @pytest.mark.filterwarnings("error")
    def test_loop_gap_past_the_float_range_reads_inf(self):
        pop = AgentPopulation(*HUGE_RELAY)
        trace = minor_loop(pop, RS(0.0), 0.2, 0.6, 5)
        assert trace.chord().tolist() == [0.0, math.inf, math.inf, 0.0, 0.0]
        assert [pop.chord(0.2, 0.6, float(u)) for u in trace.us] == trace.chord().tolist()

    def test_equals_loop_gap_for_arbitrary_populations(self):
        # Loop-simulation oracle for the closed-form rectangle sum.
        rng = np.random.default_rng(14)
        for _ in range(8):
            pop = random_population(rng, int(rng.integers(5, 80)))
            hist = random_history(rng, 0.0, 1.0, 15, start_u=0.0)
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 0.05:
                hi = lo + 0.05
            trace = minor_loop(pop, hist, lo, hi, 41)
            gap = trace.chord()
            for k in range(0, 41, 5):
                formula = pop.chord(lo, hi, float(trace.us[k]))
                assert abs(formula - gap[k]) <= 1e-12

    def test_history_independence(self, center_population):
        # Chords computed from loop differences across distinct histories
        # must coincide; the formula never saw the history at all.
        histories = [RS(0.0, (0.95,)), RS(0.0, (0.9, 0.3, 0.6)), RS(0.0, (1.0, 0.05))]
        traces = [minor_loop(center_population, h, 0.25, 0.75, 31) for h in histories]
        base = traces[0].chord()
        for trace in traces[1:]:
            assert np.abs(trace.chord() - base).max() <= 1e-12

    def test_uniform_density_analytic_profile(self):
        # Uniform weight on the (0, 1) triangle: gap at u inside the cycle
        # [lo, hi] is 2 * density * (hi - u) * (u - lo), up to cell size.
        n = 256
        grid = uniform_grid(1.0, n, (0.0, 1.0))
        h = 1.0 / n
        for lo, hi in [(0.0, 1.0), (0.2, 0.8)]:
            for u in np.linspace(lo, hi, 7):
                formula = grid.chord(lo, hi, float(u))
                analytic = 2.0 * (hi - u) * (u - lo)
                assert abs(formula - analytic) <= 6.0 * h

    def test_grid_matches_population(self, unit_grid, center_population):
        for u in (0.3, 0.5, 0.62):
            a = unit_grid.chord(0.2, 0.8, u)
            b = center_population.chord(0.2, 0.8, u)
            assert abs(a - b) <= 1e-12


class TestDecomposition:
    def test_reconstruction_matches_full_output(self, unit_grid):
        rng = np.random.default_rng(16)
        scale = max(1.0, unit_grid.total_mass)
        for _ in range(40):
            seq = random_history(rng, 0.0, 1.0, 30, start_u=0.0)
            mem = memory_from_sequence(seq)
            irreversible, reversible, _ = unit_grid.simulator(memory=mem).parts()
            whole = eval_geometric(unit_grid, mem)
            assert abs(irreversible + reversible - whole) <= 1e-12 * scale

    def test_saturated_history_reconstruction(self, unit_grid):
        mem = memory_from_sequence(RS(0.0, (1.0, 0.0)))
        irreversible, reversible, _ = unit_grid.simulator(memory=mem).parts()
        whole = eval_geometric(unit_grid, mem)
        assert abs(irreversible + reversible - whole) <= 1e-12

    def test_all_bistable_band_carries_everything(self):
        # When every agent straddles the current input the reversible part
        # vanishes and the band carries the full signed sum.
        pop = AgentPopulation([0.8, 0.9, 0.7], [0.2, 0.1, 0.3], [1.0, 2.0, 3.0])
        mem = memory_from_sequence(RS(0.0, (0.95, 0.5)))
        irreversible, reversible, _ = pop.simulator(memory=mem).parts()
        assert reversible == 0.0
        assert irreversible == eval_direct(pop, RS(0.0, (0.95, 0.5)))[-1]

    def test_prefix_path_matches_cell_sweep(self, unit_grid):
        # Direct cell sweep oracle for the reversible term.
        mass = cell_masses(unit_grid)
        for u in (0.25, 0.5, 0.733):
            mem = memory_from_sequence(RS(0.0, (0.9, u)))
            _, reversible, _ = unit_grid.simulator(memory=mem).parts()
            total = 0.0
            for i in range(unit_grid.n):
                for j in range(unit_grid.n):
                    m = mass[i, j]
                    if m == 0.0:
                        continue
                    if unit_grid.centers[i] <= u:
                        total += m
                    if unit_grid.centers[j] >= u:
                        total -= m
            assert abs(reversible - total) <= 1e-12 * max(1.0, unit_grid.total_mass)

    @pytest.mark.parametrize("start, extrema", [
        (0.0, (1.0, 0.375)),  # falls onto a cell center
        (0.0, (0.375,)),  # rises onto it
        (0.5, (0.375,)),  # falls before any rise
        (0.5, ()),  # never moves
    ])
    def test_parts_add_up_at_a_tie_and_before_the_first_rise(self, start, extrema):
        # cells centered at 0.125, 0.375, 0.625 and 0.875, one agent on each center
        grid = grid_of(np.tril(np.random.default_rng(7).random((4, 4))))
        mass = cell_masses(grid)
        rows, cols = np.nonzero(mass)
        pop = AgentPopulation(grid.centers[rows], grid.centers[cols], mass[rows, cols])
        mem = memory_from_sequence(RS(start, extrema))
        limit = 1e-12 * max(1.0, grid.total_mass)
        irreversible, reversible, _ = grid.simulator(memory=mem).parts()
        assert abs(irreversible + reversible - eval_geometric(grid, mem)) <= limit
        irreversible, reversible, _ = pop.simulator(memory=mem).parts()
        assert abs(irreversible + reversible - eval_direct(pop, RS(start, extrema))[-1]) <= limit

    def test_band_is_the_stack_clipped_to_the_band(self):
        # the reference the band part replaced: each stack strip clipped to the band
        # (rows at or above the cut of u, columns below it), summed exactly
        rng = np.random.default_rng(19)
        n = 32
        grid = grid_of(np.tril(rng.random((n, n))))
        points = np.sort(np.r_[np.linspace(0.0, 1.0, n + 1), grid.centers, rng.random(8)])
        for _ in range(30):
            sim = grid.simulator(initial_memory(0.0))
            for u in points[rng.integers(0, points.size, 30)]:
                if u == sim.memory.current_u:
                    continue
                sim.push(u)
                mem = sim.memory
                a, b = grid.icut_up(mem.current_u), grid.jcut_down(mem.current_u)
                rows = [grid.icut_up(big) for big, _ in mem.vertex_pairs]
                if mem.trend == "rising":
                    rows.append(grid.icut_up(mem.current_u))
                cols = [min(c, b) for c in [0, *sim.cuts]]
                up = sum(grid.rect_mass(a, max(row, a), lo, hi)
                         for row, lo, hi in zip(rows, cols, cols[1:]))
                band = 2 * up - grid.rect_mass(a, n, 0, b)
                assert sim.parts()[0] == band / (1 << grid.scale), u

    def test_direct_matches_grid_on_center_population(self, unit_grid, center_population):
        rng = np.random.default_rng(18)
        scale = max(1.0, unit_grid.total_mass)
        for _ in range(20):
            seq = random_history(rng, 0.0, 1.0, 20, start_u=0.0)
            mem = memory_from_sequence(seq)
            a_irreversible, a_reversible, _ = unit_grid.simulator(memory=mem).parts()
            b_irreversible, b_reversible, _ = center_population.simulator(memory=mem).parts()
            assert abs(a_irreversible - b_irreversible) <= 1e-12 * scale
            assert abs(a_reversible - b_reversible) <= 1e-12 * scale


class TestSimulators:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["direct", "shifted", "soft", "grid"])
    def test_rejected_push_changes_nothing(self, kind, bad):
        pop = AgentPopulation([0.5, 0.8], [0.1, 0.2], [1.0, 2.0])
        model = {
            "direct": pop,
            "shifted": ShiftModel(pop, g1=PiecewiseLinear([(0.0, 0.05)]),
                                  g2=PiecewiseLinear([(0.0, -0.05)])),
            "soft": rectangular_population(pop.alpha, pop.beta, pop.nu),
            "grid": from_agents(pop, 8, (0.0, 1.0)),
        }[kind]
        for path in ((), (0.9,), (0.9, 0.3)):
            sim = model.simulator(initial_memory(0.0))
            for v in path:
                sim.push(v)
            with pytest.raises(ValueError, match="input value must be finite"):
                sim.push(bad)
            # the simulator reads as one resumed from the memory it still holds
            fresh = model.simulator(memory=sim.memory)
            assert (sim.value(), sim.parts()) == (fresh.value(), fresh.parts()), path
            if kind != "grid":
                assert np.array_equal(sim.states, model.fold(sim.memory.steps())), path

    def test_population_simulator_resumes_from_memory(self):
        rng = np.random.default_rng(20)
        pop = random_population(rng, 300)
        seq = random_history(rng, 0.0, 1.0, 30, start_u=0.0)
        cut = len(seq.extrema) // 2
        head = RS(seq.start_u, seq.extrema[:cut])
        mem = memory_from_sequence(head)
        resumed = pop.simulator(memory=mem)
        for v in seq.extrema[cut:]:
            resumed.push(v)
        full = eval_direct(pop, seq)[-1]
        assert resumed.value() == pytest.approx(full, abs=1e-12)

    def test_states_match_raw_fold(self):
        rng = np.random.default_rng(22)
        pop = random_population(rng, 500)
        seq = random_history(rng, 0.0, 1.0, 40, start_u=0.0)
        sim = pop.simulator(initial_memory(seq.start_u))
        for v in seq.extrema:
            sim.push(v)
        want = raw_relay_states(pop.alpha, pop.beta, seq)
        assert np.array_equal(sim.states.astype(np.int8), want)

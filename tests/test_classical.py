import tracemalloc

import numpy as np
import pytest

from helpers import (
    cell_masses,
    random_history,
    random_population,
    raw_relay_states,
    rectangular_population,
)
from preisach import (
    AgentPopulation,
    PiecewiseLinear,
    ReversalSequence,
    ShiftModel,
    WeightGrid,
    check_congruency,
    eval_direct,
    eval_geometric,
    from_agents,
    initial_memory,
    memory_from_sequence,
    minor_loop,
    uniform_grid,
)
from preisach.classical import _strip

RS = ReversalSequence


def square_sat(mass):
    """The whole (n+1) x (n+1) summed-area table of ``mass``, columns summed first."""
    n = mass.shape[0]
    want = np.zeros((n + 1, n + 1), dtype=np.longdouble)
    want[1:, 1:] = mass.astype(np.longdouble).cumsum(0).cumsum(1)
    return want


def assert_sat_matches(grid, want):
    """Every ``P[i, j]``, looked up in the packed table as int arrays and as ints
    (the strip of rows [0, i) and cols [0, j)), equals ``want``. Values, not
    bytes: a long double's padding bytes may differ."""
    i, j = np.indices(want.shape)
    assert np.array_equal(_strip(grid.prefix, i, 0, j), want)
    assert all(_strip(grid.prefix, a, 0, b) == want[a, b]
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
        sim = pop.simulator(0.0)
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

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError, match="^at least one agent is required$"):
            AgentPopulation([], [], [])


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
        assert grid.total_mass == pytest.approx(float(pop.nu.sum()), rel=1e-13)

    @staticmethod
    def add_at_grid(pop, n, lo, hi):
        """The grid of the dense cell masses ``np.add.at`` bins ``pop`` into."""
        width = (hi - lo) / n
        rows = np.clip(((pop.alpha - lo) / width).astype(int), 0, n - 1)
        cols = np.clip(((pop.beta - lo) / width).astype(int), 0, n - 1)
        want = np.zeros((n, n))
        np.add.at(want, (rows, cols), pop.nu)
        return WeightGrid(lo, hi, want)

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
        got = from_agents(pop, n, (lo, hi)).prefix
        assert got.tobytes() == self.add_at_grid(pop, n, lo, hi).prefix.tobytes()

    @pytest.mark.parametrize("alpha, beta", [
        ([0.9, 0.15, 0.95, 0.2], [0.6, 0.0, 0.55, 0.1]),  # at n = 8, rows 0 and 2 to 6 are empty
        ([1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 1.0, 0.5]),  # on both bounds and both diagonals
    ])
    @pytest.mark.parametrize("n", [2, 8])
    def test_binning_edge_cases_match_add_at(self, alpha, beta, n):
        pop = AgentPopulation(alpha, beta, [1e16, 1e-17, 3.0, 0.0])
        got = from_agents(pop, n, (0.0, 1.0)).prefix
        assert got.tobytes() == self.add_at_grid(pop, n, 0.0, 1.0).prefix.tobytes()

    def test_agent_out_of_range(self):
        pop = AgentPopulation([1.5], [0.5], [1.0])
        with pytest.raises(ValueError, match="agent out of range"):
            from_agents(pop, 8, (0.0, 1.0))

    @pytest.mark.parametrize("n", [-1, 0, 1])
    @pytest.mark.parametrize("build", [
        lambda n: from_agents(AgentPopulation([0.5], [0.25], [1.0]), n, (0.0, 1.0)),
        lambda n: uniform_grid(1.0, n, (0.0, 1.0)),
        lambda n: WeightGrid(0.0, 1.0, np.zeros((max(n, 0), max(n, 0)))),
    ], ids=["from_agents", "uniform_grid", "cell_mass"])
    def test_rejects_fewer_than_two_cells(self, build, n):
        # checked before the cell width divides by n
        with pytest.raises(ValueError, match="grid needs at least 2 cells per axis"):
            build(n)

    @pytest.mark.parametrize("build", [
        lambda lo, hi: from_agents(AgentPopulation([0.5], [0.25], [1.0]), 4, (lo, hi)),
        lambda lo, hi: uniform_grid(1.0, 4, (lo, hi)),
        lambda lo, hi: WeightGrid(lo, hi, np.zeros((4, 4))),
    ], ids=["from_agents", "uniform_grid", "cell_mass"])
    def test_rejects_bounds_whose_width_overflows(self, build):
        # finite bounds, but an infinite cell width would put every center at inf
        with pytest.raises(ValueError, match=r"invalid bounds \(-1e\+308, 1e\+308\)"):
            build(-1e308, 1e308)

    def test_rejects_mass_above_diagonal(self):
        # the far corner and the last cell just above the diagonal
        n = 4
        for cell in ((0, n - 1), (n - 2, n - 1)):
            mass = np.zeros((n, n))
            mass[cell] = 1.0
            with pytest.raises(ValueError, match="zero mass"):
                WeightGrid(0.0, 1.0, mass)

    def test_rejects_negative_mass(self):
        mass = np.zeros((4, 4))
        mass[2, 1] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            WeightGrid(0.0, 1.0, mass)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cell", [(2, 1), (3, 3), (0, 3)])
    def test_rejects_non_finite_mass(self, value, cell):
        # below, on and above the diagonal
        mass = np.zeros((4, 4))
        mass[cell] = value
        with pytest.raises(ValueError, match="finite and non-negative"):
            WeightGrid(0.0, 1.0, mass)

    @pytest.mark.parametrize("n", [2, 5, 64, 129])
    def test_prefix_matches_independent_cumsum(self, n):
        mass = np.tril(np.random.default_rng(n).uniform(0.0, 3.0, (n, n)))
        assert_sat_matches(WeightGrid(0.0, 1.0, mass), square_sat(mass))

    def test_prefix_keeps_the_addition_order(self):
        # with these magnitudes the bits of a sum depend on its order: summing
        # rows first changes 186 entries, so the columns must go first
        n = 129
        mass = np.tril(np.random.default_rng(1).choice([0.0, 1e-17, 1.0, 1e16], (n, n)))
        want = square_sat(mass)
        assert not np.array_equal(mass.astype(np.longdouble).cumsum(1).cumsum(0), want[1:, 1:])
        assert_sat_matches(WeightGrid(0.0, 1.0, mass), want)

    @pytest.mark.parametrize("n", [2, 7, 512])
    def test_prefix_keeps_only_the_lower_triangle(self, n):
        prefix = uniform_grid(1.0, n, (0.0, 1.0)).prefix
        assert prefix.nbytes == (n + 1) * (n + 2) // 2 * prefix.itemsize

    @staticmethod
    def peak_of(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_agents_peak_memory(self):
        # binning allocates the packed table and at most 1 MiB more: no n x n
        # matrix of cell masses (2 MiB here) and no square table
        n, rng = 512, np.random.default_rng(4)
        pairs = np.sort(rng.uniform(0.0, 1.0, (20_000, 2)), axis=1)
        pop = AgentPopulation(pairs[:, 1], pairs[:, 0], rng.uniform(0.0, 1.0, 20_000))
        packed = (n + 1) * (n + 2) // 2 * np.dtype(np.longdouble).itemsize
        assert self.peak_of(lambda: from_agents(pop, n, (0.0, 1.0))) <= packed + 2**20

    def test_uniform_grid_peak_memory(self):
        n = 512
        packed = (n + 1) * (n + 2) // 2 * np.dtype(np.longdouble).itemsize
        assert self.peak_of(lambda: uniform_grid(1.0, n, (0.0, 1.0))) <= packed + 2**20


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
        grid = WeightGrid(0.0, 1.0, np.tril(np.random.default_rng(7).random((4, 4))))
        mass = cell_masses(grid)
        rows, cols = np.nonzero(mass)
        pop = AgentPopulation(grid.centers[rows], grid.centers[cols], mass[rows, cols])
        mem = memory_from_sequence(RS(start, extrema))
        limit = 1e-12 * max(1.0, grid.total_mass)
        irreversible, reversible, _ = grid.simulator(memory=mem).parts()
        assert abs(irreversible + reversible - eval_geometric(grid, mem)) <= limit
        irreversible, reversible, _ = pop.simulator(memory=mem).parts()
        assert abs(irreversible + reversible - eval_direct(pop, RS(start, extrema))[-1]) <= limit

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
            sim = model.simulator(0.0)
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
        sim = pop.simulator(seq.start_u)
        for v in seq.extrema:
            sim.push(v)
        want = raw_relay_states(pop.alpha, pop.beta, seq)
        assert np.array_equal(sim.states.astype(np.int8), want)

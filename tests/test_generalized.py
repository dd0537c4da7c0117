import json
import math

import numpy as np
import pytest

from helpers import (
    branch_at,
    eval_direct,
    gen_apply,
    masked_parts,
    random_history,
    random_population,
    random_shift_model,
    random_soft_agent,
    random_soft_population,
    raw_relay_states,
    rectangular_population,
    soft_exact,
    soft_population,
    varying_gap_agents,
    varying_gap_population,
)
from preisach import (
    AgentPopulation,
    GeneralizedPopulation,
    PiecewiseLinear,
    ReversalSequence,
    ShiftModel,
    check_congruency,
    chord_generalized,
    eval_generalized,
    initial_memory,
    memory_from_sequence,
    minor_loop,
)
from preisach.cli import main
from preisach.fileio import read_generalized_json

RS = ReversalSequence
DOWN = -1.0


def rectangular_embedding(pop: AgentPopulation) -> GeneralizedPopulation:
    return rectangular_population(pop.alpha, pop.beta, pop.nu)


varying_gap_fixture = varying_gap_population


def resumed_parts(gpop: GeneralizedPopulation, seq: ReversalSequence):
    """Band, forced and midline parts of the simulator resumed from ``seq``'s memory."""
    return gpop.simulator(memory=memory_from_sequence(seq)).parts()


class TestEvalGeneralized:
    def test_rectangular_degeneration_is_exact(self):
        # Both routes round the exact sum once (the soft twin by math.fsum), so
        # they agree bit for bit: on dyadic capacities, where every summation
        # order is exact, and on non-dyadic ones over 600 decades (ledger L = 46),
        # where two relays of 1e300 in opposite states cancel.
        dyadic = AgentPopulation([0.5, 0.25, 0.75], [-0.5, -0.25, 0.0], [1.0, 0.5, 2.0])
        spread = random_population(np.random.default_rng(26), 40, -1.0, 1.0)
        spread = AgentPopulation(spread.alpha, spread.beta,
                                 [5e-324, 1e300, *spread.nu[2:-1], 1e300])
        assert len(spread._exact.limbs) == 46
        for pop in (dyadic, spread):
            gpop = rectangular_embedding(pop)
            rng = np.random.default_rng(25)
            for _ in range(30):
                seq = random_history(rng, -1.0, 1.0, 20, start_u=-1.0)
                q = seq.extrema[-1] if seq.extrema else seq.start_u
                whole = eval_generalized(gpop, seq, q)
                assert whole.hex() == float(eval_direct(pop, seq)[-1]).hex()

    def test_stays_on_ascending_branch_below_band(self):
        agent = varying_gap_agents()[0]
        single = soft_population([agent])
        seq = RS(-3.0, (-2.5,))
        assert eval_generalized(single, seq, -2.5) == branch_at(agent[2], -2.5)

    def test_matches_per_agent_oracle(self):
        rng = np.random.default_rng(27)
        agents = [random_soft_agent(rng) for _ in range(100)]
        gpop = soft_population(agents)
        for _ in range(25):
            seq = random_history(rng, -1.3, 1.3, 25, start_u=-1.3)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            want = math.fsum(gen_apply(*h, DOWN, seq, q) for h in agents)
            assert eval_generalized(gpop, seq, q) == pytest.approx(want, abs=1e-12)

    def test_dominated_subcycle_leaves_later_outputs_unchanged(self):
        # Erasure carries over: the soft weights ride on the same relays.
        rng = np.random.default_rng(28)
        gpop = random_soft_population(rng, 40)
        with_cycle = RS(-1.5, (0.9, -0.8, 0.2, -0.3, 1.1, -0.4))
        without = RS(-1.5, (0.9, -0.8, 1.1, -0.4))
        for q_steps in ((), (-0.4,)):
            q = q_steps[-1] if q_steps else 1.1
            a = eval_generalized(gpop, RS(-1.5, with_cycle.extrema[: 5 + len(q_steps)]), q)
            b = eval_generalized(gpop, RS(-1.5, without.extrema[: 3 + len(q_steps)]), q)
            assert a == pytest.approx(b, abs=1e-12)


class TestReversibleTerms:
    def test_rectangular_agents_have_constant_gap_and_zero_midline(self):
        # each part halves an exact sum of the levels +-nu: the capacity parts, offset 0
        pop = AgentPopulation([0.5, 0.25], [-0.5, 0.0], [1.0, 2.0])
        gpop = rectangular_embedding(pop)
        for u in (-1.0, 0.1, 0.25, 2.0):
            assert np.array_equal(gpop.loop_gap_at(u), pop.nu)
            for states in ([-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]):
                states = np.array(states)
                assert gpop.parts(states, u) == masked_parts(pop, states, u), (u, states)

    def test_below_every_band_all_agents_count_negative(self):
        gpop = varying_gap_fixture()
        u = -3.0
        want = -math.fsum(gpop.loop_gap_at(u))
        assert gpop.simulator(initial_memory(u)).parts()[1] == want

    def test_terms_match_scalar_sweep_oracle(self):
        rng = np.random.default_rng(29)
        agents = [random_soft_agent(rng) for _ in range(60)]
        gpop = soft_population(agents)
        for _ in range(10):
            seq = random_history(rng, -1.5, 1.5, 3, start_u=1.5)  # often a fall alone
            u = seq.extrema[-1] if seq.extrema else seq.start_u
            forced = 0.0
            mid = 0.0
            for alpha, beta, f_plus, f_minus in agents:
                gap = 0.5 * (branch_at(f_minus, u) - branch_at(f_plus, u))
                mid += 0.5 * (branch_at(f_minus, u) + branch_at(f_plus, u))
                if alpha <= u or beta >= u:  # forced, counted in its own state
                    forced += gap * float(raw_relay_states([alpha], [beta], seq)[0])
            parts = resumed_parts(gpop, seq)
            assert parts[1] == pytest.approx(forced, abs=1e-12)
            assert parts[2] == pytest.approx(mid, abs=1e-12)
            # and exactly: each sum of the agents' branch values rounded once
            states = raw_relay_states(gpop.alpha, gpop.beta, seq)
            assert parts == soft_exact(agents, states, u, u, u)[1]


class TestIrreversiblePart:
    def test_zero_outside_every_band(self):
        gpop = varying_gap_fixture()
        assert resumed_parts(gpop, RS(-3.0, (2.5,)))[0] == 0.0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            gpop = random_soft_population(rng, int(rng.integers(3, 40)))
            seq = random_history(rng, -1.4, 1.4, 25, start_u=-1.4)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            whole = eval_generalized(gpop, seq, q)
            assert sum(resumed_parts(gpop, seq)) == pytest.approx(whole, abs=1e-12)

    def test_rectangular_agents_match_classical_band(self):
        rng = np.random.default_rng(33)
        pop = random_population(rng, 50)
        gpop = rectangular_embedding(pop)
        for _ in range(20):
            seq = random_history(rng, 0.0, 1.0, 20, start_u=0.0)
            want = pop.simulator(memory=memory_from_sequence(seq)).parts()[0]
            assert resumed_parts(gpop, seq)[0] == pytest.approx(want, abs=1e-12)

    # One rectangular agent of gap 1.5, DOWN throughout: the input never rises,
    # so it counts -1.5 although u is at or past its up-threshold.
    @pytest.mark.parametrize("alpha, beta, start, values", [
        pytest.param(0.0, 0.0, 0.0, (), id="never-moves-at-a-tie"),
        pytest.param(0.1, -0.1, 0.5, (0.2,), id="falls-before-the-first-rise"),
    ])
    def test_forced_part_before_the_first_rise(self, tmp_path, alpha, beta, start, values):
        gpop = rectangular_population([alpha], [beta], [1.5])
        seq = RS(start, values)
        q = values[-1] if values else start
        whole = eval_generalized(gpop, seq, q)
        assert whole == -1.5 and sum(resumed_parts(gpop, seq)) == whole
        agents, series, out = (tmp_path / name for name in ("agent.json", "in.csv", "out.csv"))
        agents.write_text(json.dumps([{"alpha": alpha, "beta": beta,
                                       "f_plus": [[0.0, -1.5]], "f_minus": [[0.0, 1.5]]}]))
        series.write_text(f"time,u\n0,{q!r}\n")
        assert main(["decompose", "--model", "generalized", "--agents", str(agents),
                     "--start", repr(start), "--input", str(series), "--out", str(out)]) == 0
        assert float(out.read_text().splitlines()[-1].split(",")[-1]) == -1.5


class TestShiftModel:
    def test_zero_shift_equals_classical_band_output(self):
        rng = np.random.default_rng(37)
        pop = random_population(rng, 40, lo=-1.0, hi=1.0)
        zero = PiecewiseLinear([(0.0, 0.0)])
        sm = ShiftModel(pop, g1=zero, g2=zero)
        for _ in range(20):
            seq = random_history(rng, -1.2, 1.2, 20, start_u=-1.2)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            want = pop.simulator(memory=memory_from_sequence(seq)).parts()[0]
            assert eval_generalized(sm, seq, q) == pytest.approx(want, abs=1e-12)

    def test_constant_shift_is_a_threshold_translation(self):
        rng = np.random.default_rng(39)
        pop = random_population(rng, 30, lo=-1.0, hi=1.0)
        c = 0.35
        const = PiecewiseLinear([(0.0, c)])
        sm = ShiftModel(pop, g1=const, g2=const)
        translated = AgentPopulation(pop.alpha - c, pop.beta - c, pop.nu)
        for _ in range(20):
            seq = random_history(rng, -1.5, 1.0, 20, start_u=-1.5)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            want = translated.simulator(memory=memory_from_sequence(seq)).parts()[0]
            assert eval_generalized(sm, seq, q) == pytest.approx(want, abs=1e-12)

    def test_dual_path_equivalence(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            sm = random_shift_model(rng, n_agents=25)
            seq = random_history(rng, -2.0, 2.0, 20, start_u=-2.0)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            resumed = sm.simulator(memory=memory_from_sequence(seq))
            assert eval_generalized(sm, seq, q) == pytest.approx(resumed.value(), abs=1e-12)

    def test_effective_threshold_oracle(self):
        # With strictly increasing composite maps the moving-threshold relay
        # equals a fixed relay at inverse-mapped thresholds.
        rng = np.random.default_rng(43)
        for _ in range(10):
            sm = random_shift_model(rng, n_agents=20)
            pop = sm.base
            us = np.linspace(-4.0, 4.0, 400)
            h2 = us + np.asarray(sm.g2(us))
            h1 = us + np.asarray(sm.g1(us))
            alpha_eff = np.interp(pop.alpha, h2, us)
            beta_eff = np.interp(pop.beta, h1, us)
            seq = random_history(rng, -1.5, 1.5, 15, start_u=-1.5)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            states = np.full(len(pop), -1.0)
            prev = seq.start_u
            for v in seq.extrema:
                if v > prev:
                    states[alpha_eff <= v] = 1.0
                else:
                    states[beta_eff >= v] = -1.0
                prev = v
            band = (pop.alpha > sm.up_compare(q)) & (pop.beta < sm.down_compare(q))
            want = math.fsum(pop.nu[band] * states[band])
            assert eval_generalized(sm, seq, q) == pytest.approx(want, abs=1e-9)

    def test_ill_posed_shift_rejected(self):
        pop = AgentPopulation([0.5], [-0.5], [1.0])
        steep = PiecewiseLinear([(0.0, 0.0), (1.0, -2.0)])  # slope -2 < -1
        with pytest.raises(ValueError, match="ill-posed shift"):
            ShiftModel(pop, g1=steep, g2=steep)

    def test_shift_order_enforced(self):
        pop = AgentPopulation([0.5], [-0.5], [1.0])
        lo = PiecewiseLinear([(0.0, 0.0)])
        hi = PiecewiseLinear([(0.0, 1.0)])
        with pytest.raises(ValueError, match="g2 <= g1"):
            ShiftModel(pop, g1=lo, g2=hi)

    def test_view_support_zero_shift(self):
        # a primed agent sits at (alpha - g2(u), beta - g1(u)): comparing
        # alpha with up_compare(u) = u + g2(u) is comparing alpha' with u
        pop = AgentPopulation([0.5, 0.7], [-0.5, -0.1], [1.0, 2.0])
        zero = PiecewiseLinear([(0.0, 0.0)])
        sm = ShiftModel(pop, g1=zero, g2=zero)
        assert sm.up_compare(0.3) == 0.3
        assert sm.down_compare(0.3) == 0.3
        assert np.array_equal(sm.nu, pop.nu)

    def test_view_support_constant_shift_translates_rigidly(self):
        pop = AgentPopulation([0.5, 0.7], [-0.5, -0.1], [1.0, 2.0])
        g1 = PiecewiseLinear([(0.0, 0.25)])
        g2 = PiecewiseLinear([(0.0, 0.1)])
        sm = ShiftModel(pop, g1=g1, g2=g2)
        for u in (-1.0, 0.0, 2.0):
            assert sm.up_compare(u) == u + 0.1
            assert sm.down_compare(u) == u + 0.25

    def test_memory_resume_matches_full_run(self):
        rng = np.random.default_rng(45)
        sm = random_shift_model(rng, n_agents=30)
        seq = random_history(rng, -1.5, 1.5, 30, start_u=-1.5)
        cut = len(seq.extrema) // 2
        mem = memory_from_sequence(RS(seq.start_u, seq.extrema[:cut]))
        resumed = sm.simulator(memory=mem)
        for v in seq.extrema[cut:]:
            resumed.push(v)
        full = sm.simulator(initial_memory(seq.start_u))
        for v in seq.extrema:
            full.push(v)
        assert resumed.value() == full.value()


class TestGeneralizedChords:
    def test_zero_at_cycle_endpoints(self):
        gpop = varying_gap_fixture()
        assert chord_generalized(gpop, -0.5, 0.5, -0.5) == 0.0
        assert chord_generalized(gpop, -0.5, 0.5, 0.5) == 0.0

    def test_rectangular_agents_match_classical_chord(self):
        rng = np.random.default_rng(47)
        pop = random_population(rng, 40)
        gpop = rectangular_embedding(pop)
        for u in (0.3, 0.45, 0.6):
            want = pop.chord(0.2, 0.7, u)
            assert chord_generalized(gpop, 0.2, 0.7, u) == pytest.approx(want, abs=1e-12)

    def test_chords_equal_while_loops_differ(self):
        gpop = varying_gap_fixture()
        h_up = RS(-3.0, (2.5, -0.6))   # background agent left UP
        h_down = RS(-3.0, (1.0, -0.6))  # background agent still DOWN
        l1 = minor_loop(gpop, h_up, -0.5, 0.5, 41)
        l2 = minor_loop(gpop, h_down, -0.5, 0.5, 41)
        report = check_congruency(l1, l2, 1e-12)
        assert report.chords_equal
        assert not report.congruent
        assert report.max_deviation > 1e-3

    @pytest.mark.filterwarnings("error")
    def test_equal_infinite_chords_are_equal(self):
        # one relay with outputs -1e308 and 1e308: its chord, 2e308, reads inf on both loops
        pop = AgentPopulation([0.5], [0.25], [1e308])
        l1 = minor_loop(pop, RS(0.0, (1.0, 0.0)), 0.2, 0.6, 5)
        l2 = minor_loop(pop, RS(0.0, (0.9, 0.1)), 0.2, 0.6, 5)
        assert np.isinf(l1.chord()).any()
        report = check_congruency(l1, l2)
        assert report.chords_equal and report.max_chord_deviation == 0.0

    def test_formula_matches_loop_gap(self):
        gpop = varying_gap_fixture()
        trace = minor_loop(gpop, RS(-3.0, (2.5,)), -0.5, 0.5, 41)
        gap = trace.chord()
        for k in range(0, 41, 4):
            formula = chord_generalized(gpop, -0.5, 0.5, float(trace.us[k]))
            assert formula == pytest.approx(gap[k], abs=1e-12)

    def test_embedded_rectangular_loops_are_congruent(self):
        rng = np.random.default_rng(49)
        pop = random_population(rng, 30)
        gpop = rectangular_embedding(pop)
        l1 = minor_loop(gpop, RS(0.0, (0.9,)), 0.3, 0.7, 31)
        l2 = minor_loop(gpop, RS(0.0, (1.0, 0.05)), 0.3, 0.7, 31)
        report = check_congruency(l1, l2, 1e-12)
        assert report.chords_equal and report.congruent

    def test_degenerate_cycles_have_zero_chords(self):
        gpop = varying_gap_fixture()
        for hist in (RS(-3.0, (2.5, -0.05)), RS(-3.0, (0.05, -0.05))):
            trace = minor_loop(gpop, hist, -0.1, 0.1, 21)
            assert np.abs(trace.chord()).max() == 0.0

    def test_shifted_chord_matches_loop_gap(self):
        rng = np.random.default_rng(51)
        sm = random_shift_model(rng, n_agents=25)
        trace = minor_loop(sm, RS(-2.0, (1.5,)), -0.8, 0.8, 31)
        gap = trace.chord()
        for k in range(0, 31, 3):
            formula = sm.chord(-0.8, 0.8, float(trace.us[k]))
            assert formula == pytest.approx(gap[k], abs=1e-12)


class TestBranchingMultiplicity:
    def test_generalized_branches_fan_out_where_classical_do_not(self):
        # Two histories meeting at the same reversal point: descending-branch
        # increments coincide for the relay aggregate but differ for the
        # soft-weight aggregate.
        gpop = varying_gap_fixture()
        pop = AgentPopulation([2.0, 0.3, 0.45], [-2.0, -0.2, -0.4], [1.0, 1.0, 1.0])

        def descending_increments(model, history):
            sim = model.simulator(initial_memory(history.start_u))
            for v in history.extrema:
                sim.push(v)
            start = sim.value()
            out = []
            for u in np.linspace(0.5, -0.5, 9)[1:]:
                sim.push(u)
                out.append(sim.value() - start)
            return np.array(out)

        h_up = RS(-3.0, (2.5, -0.6, 0.5))
        h_down = RS(-3.0, (1.0, -0.6, 0.5))
        classical_gap = np.abs(
            descending_increments(pop, h_up) - descending_increments(pop, h_down)
        ).max()
        generalized_gap = np.abs(
            descending_increments(gpop, h_up) - descending_increments(gpop, h_down)
        ).max()
        assert classical_gap <= 1e-12
        assert generalized_gap > 1e-3


class TestPopulationValidation:
    """Soft agents come as arrays; the file reader is what sees agent entries."""

    def test_empty_population_rejected(self, tmp_path):
        path = tmp_path / "soft.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="non-empty JSON array of agents"):
            read_generalized_json(path)

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError, match="^at least one agent is required$"):
            GeneralizedPopulation([], [], [], [])

    def test_non_hysteron_rejected(self, tmp_path):
        path = tmp_path / "soft.json"
        path.write_text("[5]")
        with pytest.raises(ValueError, match="agent 0"):
            read_generalized_json(path)

    @pytest.mark.parametrize("alpha, beta, n_plus, n_minus", [
        ([0.5, 0.6], [0.1], 2, 2),
        ([0.5], [0.1], 2, 1),
        ([0.5], [0.1], 1, 0),
        (0.5, 0.1, 1, 1),
    ])
    def test_arrays_of_unequal_length_rejected(self, alpha, beta, n_plus, n_minus):
        with pytest.raises(ValueError, match="1-d and of equal length"):
            GeneralizedPopulation(alpha, beta, [[(0.0, -1.0)]] * n_plus, [[(0.0, 1.0)]] * n_minus)

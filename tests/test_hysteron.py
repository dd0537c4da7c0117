import numpy as np
import pytest

from helpers import gen_apply, gen_output, random_history
from preisach import (
    AgentPopulation,
    BranchFunction,
    GeneralizedHysteron,
    PiecewiseLinear,
    ReversalSequence,
    relay_fold,
)

DOWN, UP = -1.0, 1.0


def relay(alpha, beta, state, seq):
    """One relay driven by ``relay_fold`` from ``state`` through ``seq``:
    its final state and its state after each reversal."""
    states = np.array([state])
    trace = [relay_fold(np.array([alpha]), np.array([beta]), [step], states)[0]
             for step in seq.steps()]
    return states[0], trace


def soft_unit_agent():
    """alpha=1, beta=-1, ascending u-1 and descending u+1, clamped on [-1, 1]."""
    return GeneralizedHysteron(
        alpha=1.0,
        beta=-1.0,
        f_plus=BranchFunction([(-1.0, -2.0), (1.0, 0.0)]),
        f_minus=BranchFunction([(-1.0, 0.0), (1.0, 2.0)]),
    )


class TestRectHysteron:
    def test_switches_up_above_alpha(self):
        final, _ = relay(2.0, 1.0, DOWN, ReversalSequence(0.0, (3.0,)))
        assert final == UP

    def test_inactive_inside_band(self):
        final, _ = relay(2.0, 1.0, DOWN, ReversalSequence(0.0, (1.5,)))
        assert final == DOWN

    def test_switching_trace(self):
        _, trace = relay(2.0, 1.0, DOWN, ReversalSequence(0.0, (2.5, 0.5, 1.8)))
        assert trace == [UP, DOWN, DOWN]

    def test_closed_threshold_ties(self):
        final, _ = relay(2.0, 1.0, DOWN, ReversalSequence(0.0, (2.0,)))
        assert final == UP
        final, _ = relay(2.0, 1.0, UP, ReversalSequence(3.0, (1.0,)))
        assert final == DOWN

    def test_equal_thresholds_step_agent(self):
        assert relay(1.0, 1.0, DOWN, ReversalSequence(0.0, (1.0,)))[0] == UP
        assert relay(1.0, 1.0, UP, ReversalSequence(2.0, (1.0,)))[0] == DOWN

    def test_invariants(self):
        with pytest.raises(ValueError, match="alpha < beta"):
            AgentPopulation([0.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="capacity"):
            AgentPopulation([1.0], [0.0], [-1.0])
        with pytest.raises(ValueError, match="finite"):
            AgentPopulation([float("nan")], [0.0], [1.0])

    def test_markovian_memory(self):
        # Replaying a suffix from the recorded state equals the full replay.
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = random_history(rng, -1, 1, 20, start_u=-1.0)
            cut = int(rng.integers(0, len(seq.extrema) + 1))
            head = ReversalSequence(seq.start_u, seq.extrema[:cut])
            tail_start = seq.extrema[cut - 1] if cut else seq.start_u
            tail = ReversalSequence(tail_start, seq.extrema[cut:])
            mid, _ = relay(0.4, -0.3, DOWN, head)
            resumed, _ = relay(0.4, -0.3, mid, tail)
            full, _ = relay(0.4, -0.3, DOWN, seq)
            assert resumed == full


class TestBranchFunctions:
    def test_clamps_outside_knots(self):
        f = BranchFunction([(0.0, 1.0), (1.0, 2.0)])
        assert float(f(-5.0)) == 1.0
        assert float(f(5.0)) == 2.0
        assert float(f(0.5)) == 1.5

    def test_single_knot_is_constant(self):
        f = BranchFunction.constant(-3.0)
        assert float(f(-100.0)) == -3.0 == float(f(100.0))

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            BranchFunction([(0.0, 1.0), (1.0, 0.0)])

    def test_rejects_non_increasing_abscissae(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinear([(1.0, 0.0), (1.0, 1.0)])

    def test_piecewise_map_may_decrease(self):
        g = PiecewiseLinear([(0.0, 1.0), (1.0, 0.5)])
        assert float(g(0.5)) == 0.75


class TestGeneralizedHysteron:
    def test_branch_order_enforced_inside_band(self):
        with pytest.raises(ValueError, match="descending branch below"):
            GeneralizedHysteron(
                1.0,
                -1.0,
                f_plus=BranchFunction([(-1.0, 0.5), (1.0, 0.6)]),
                f_minus=BranchFunction([(-1.0, 0.0), (1.0, 0.4)]),
            )

    def test_down_state_follows_ascending_branch(self):
        h = soft_unit_agent()
        for u in (-1.5, -0.2, 0.7):
            assert gen_output(h, DOWN, u) == float(h.f_plus(u))

    def test_up_state_follows_descending_branch(self):
        h = soft_unit_agent()
        for u in (-0.9, 0.3, 2.0):
            assert gen_output(h, UP, u) == float(h.f_minus(u))

    def test_constant_branches_degenerate_to_relay(self):
        h = GeneralizedHysteron.rectangular(1.0, -1.0, nu=1.0)
        assert gen_output(h, UP, 0.3) == 1.0
        assert gen_output(h, DOWN, 0.3) == -1.0

    def test_gen_apply_stays_down_inside_band(self):
        # Hand-stepped: 0.5 < alpha keeps the relay down, output on f_plus
        assert gen_apply(soft_unit_agent(), DOWN, ReversalSequence(0.0, (0.5,)), 0.5) == -0.5

    def test_gen_apply_switches_at_alpha(self):
        # Hand-stepped: 1.2 >= alpha flips up; descending branch clamps to 2
        assert gen_apply(soft_unit_agent(), DOWN, ReversalSequence(0.0, (1.2,)), 1.2) == 2.0

    def test_gen_apply_clamped_below_band(self):
        assert gen_apply(soft_unit_agent(), DOWN, ReversalSequence(-2.0, ()), -2.0) == -2.0

    def test_gen_apply_query_continues_final_leg(self):
        # The query input extends the last rise and may itself switch the relay
        assert gen_apply(soft_unit_agent(), DOWN, ReversalSequence(0.0, (0.5,)), 1.5) == 2.0

    def test_gen_apply_rejects_backtracking_query(self):
        with pytest.raises(ValueError, match="non-monotone query"):
            gen_apply(soft_unit_agent(), DOWN, ReversalSequence(0.0, (0.5,)), 0.2)

    def test_degenerate_minor_cycles_trace_one_curve(self):
        # Cycling strictly inside (beta, alpha) never switches the relay, so
        # both sweep directions emit the same single reversible curve.
        h = soft_unit_agent()
        lo, hi = -0.6, 0.6
        us = np.linspace(lo, hi, 9)
        ups = [
            gen_apply(h, DOWN, ReversalSequence(0.0, (lo,)), lo)
            if u == lo
            else gen_apply(h, DOWN, ReversalSequence(0.0, (lo, u)), u)
            for u in us
        ]
        downs = [
            gen_apply(h, DOWN, ReversalSequence(0.0, (lo, hi)), hi)
            if u == hi
            else gen_apply(h, DOWN, ReversalSequence(0.0, (lo, hi, u)), u)
            for u in us
        ]
        assert ups == downs
        assert ups == [float(h.f_plus(u)) for u in us]

    def test_rectangular_embedding_matches_rect_apply(self):
        rng = np.random.default_rng(9)
        soft = GeneralizedHysteron.rectangular(0.4, -0.2, nu=1.0)
        for _ in range(50):
            seq = random_history(rng, -1, 1, 15, start_u=-1.0)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            want, _ = relay(0.4, -0.2, DOWN, seq)
            assert gen_apply(soft, DOWN, seq, q) == want

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import push_by_list, random_history, raw_relay_states
from preisach import (
    AgentPopulation,
    ReversalSequence,
    check_invariants,
    initial_memory,
    load_memory,
    memory_from_sequence,
    push_extremum,
    save_memory,
    states_of,
)
from preisach.memory import from_dict, to_dict


def probe_grid(lo=-6.0, hi=6.0, n=40):
    g = np.linspace(lo, hi, n)
    aa, bb = np.meshgrid(g, g, indexing="ij")
    keep = aa >= bb
    return aa[keep], bb[keep]


def assert_matches_raw(seq: ReversalSequence):
    """Erasure soundness: compressed replay == brute-force raw fold."""
    mem = memory_from_sequence(seq)
    assert check_invariants(mem) is None
    alphas, betas = probe_grid()
    assert np.array_equal(states_of(mem, alphas, betas), raw_relay_states(alphas, betas, seq))


class TestConstruction:
    def test_initial_memory_is_all_down(self):
        mem = initial_memory(0.0)
        assert mem.vertex_pairs == ()
        assert states_of(mem, [1.0], [-1.0])[0] == -1
        assert states_of(mem, [-2.0], [-3.0])[0] == -1

    def test_first_rise_is_the_running_maximum(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0,)))
        assert mem.trend == "rising"
        assert mem.vertex_pairs == ()
        assert mem.current_u == 5.0

    def test_fall_opens_the_running_pair(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0)))
        assert mem.trend == "falling"
        assert mem.vertex_pairs == ((5.0, 1.0),)

    def test_nested_cycle_keeps_outer_pair(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 3.0, 2.0)))
        assert mem.vertex_pairs == ((5.0, 1.0), (3.0, 2.0))
        assert mem.trend == "falling" and mem.current_u == 2.0


class TestPushExtremum:
    def test_dominant_maximum_wipes_everything(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 3.0, 2.0)))
        mem = push_extremum(mem, 6.0)
        assert mem.vertex_pairs == ()
        assert mem.trend == "rising" and mem.current_u == 6.0

    def test_deeper_minimum_erases_inner_minimum(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0)))
        mem = push_extremum(mem, 0.5)
        assert mem.vertex_pairs == ((5.0, 0.5),)
        # history must now be indistinguishable from [5, 0.5]
        alphas, betas = probe_grid()
        want = raw_relay_states(alphas, betas, ReversalSequence(0.0, (5.0, 0.5)))
        assert np.array_equal(states_of(mem, alphas, betas), want)

    def test_inner_reversal_adds_a_vertex(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0)))
        mem = push_extremum(mem, 3.0)
        assert mem.vertex_pairs == ((5.0, 1.0),)
        assert mem.trend == "rising" and mem.current_u == 3.0

    def test_unchanged_value_rejected(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0,)))
        with pytest.raises(ValueError, match="not an extremum"):
            push_extremum(mem, 5.0)

    def test_erasure_tie_cases_match_raw_fold(self):
        # Exact revisits of stored extrema exercise the closed tie-breaks.
        for extrema in [(5.0, 1.0, 5.0), (5.0, 1.0, 3.0, 1.0), (5.0, 1.0, 4.0, 1.0, 4.0)]:
            assert_matches_raw(ReversalSequence(0.0, extrema))

    # one-decimal values from a few starts, so pushes land on stored extrema
    @given(st.sampled_from((-1.0, 0.0, 1.5)),
           st.lists(st.integers(-15, 15).map(lambda k: k / 10), min_size=1, max_size=40))
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_matches_list_based_oracle(self, start, values):
        mem = want = initial_memory(start)
        for v in values:
            if v != mem.current_u:
                mem, want = push_extremum(mem, v), push_by_list(want, v)
                assert mem == want
                assert type(mem.vertex_pairs) is tuple

    def test_rise_that_erases_nothing_keeps_the_pairs(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 4.0, 2.0)))
        assert push_extremum(mem, 3.0).vertex_pairs is mem.vertex_pairs

    def test_initial_fall_leaves_no_trace(self):
        mem = initial_memory(0.0)
        mem = push_extremum(mem, -3.0)
        assert mem.vertex_pairs == () and mem.trend == "falling"
        mem = push_extremum(mem, 2.0)
        alphas, betas = probe_grid()
        want = raw_relay_states(alphas, betas, ReversalSequence(0.0, (2.0,)))
        assert np.array_equal(states_of(mem, alphas, betas), want)


class TestApplySequence:
    def test_empty_sequence_is_identity(self):
        assert memory_from_sequence(ReversalSequence(1.0, ())) == initial_memory(1.0)

    def test_dominant_extrema_structure(self):
        m1, lo1, m2, lo2 = 5.0, 1.0, 4.0, 2.0
        mem = memory_from_sequence(ReversalSequence(0.0, (m1, lo1, m2, lo2)))
        assert mem.vertex_pairs == ((m1, lo1), (m2, lo2))

    def test_random_200_step_history_matches_brute_force(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(-5, 5, 200)
        seq = ReversalSequence(0.0, ())
        mem = initial_memory(0.0)
        prev = 0.0
        extrema = []
        for v in values:
            if v == prev:
                continue
            extrema.append(v)
            prev = v
        # fold one value at a time (mixes reversals and continuations)
        for v in extrema:
            mem = push_extremum(mem, v)
        alphas, betas = probe_grid()
        # oracle folds the raw value stream directly
        states = np.full(alphas.shape, -1, dtype=np.int8)
        prev = 0.0
        for v in extrema:
            if v > prev:
                states[alphas <= v] = 1
            else:
                states[betas >= v] = -1
            prev = v
        assert np.array_equal(states_of(mem, alphas, betas), states)


class TestStateOf:
    def test_rise_sweeps_everything_below(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0,)))
        for alpha, beta in [(5.0, 4.0), (1.0, -3.0), (4.9, 4.9)]:
            assert states_of(mem, [alpha], [beta])[0] == 1
        assert states_of(mem, [5.1], [0.0])[0] == -1

    def test_hand_stepped_examples(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0)))
        assert states_of(mem, [4.0], [2.0])[0] == -1
        assert states_of(mem, [4.0], [0.5])[0] == 1

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError, match="alpha < beta"):
            AgentPopulation([0.0], [1.0], [1.0])

    def test_erasure_soundness_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            assert_matches_raw(random_history(rng, -5, 5, 60, start_u=0.0))


class TestInvariantsAndProperties:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_invariants_hold_after_any_value_stream(self, values):
        mem = initial_memory(0.0)
        for v in values:
            if v != mem.current_u:
                mem = push_extremum(mem, v)
        assert check_invariants(mem) is None

    def test_wiping_out_above_all_maxima(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 4.0, 2.0, 3.0)))
        mem = push_extremum(mem, 7.0)
        assert mem.vertex_pairs == ()

    def test_wiping_out_below_all_minima(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 4.0, 2.0)))
        mem = push_extremum(mem, 0.5)
        # only the running pair survives; no completed vertices remain
        assert mem.trend == "falling" and mem.vertex_pairs[:-1] == ()
        assert mem.vertex_pairs == ((5.0, 0.5),)

    def test_memory_is_not_markovian(self):
        # Same current input, different stored pairs, different states.
        a = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 3.0)))
        b = memory_from_sequence(ReversalSequence(0.0, (3.0,)))
        assert a.current_u == b.current_u == 3.0
        assert states_of(a, [4.0], [0.5])[0] == 1
        assert states_of(b, [4.0], [0.5])[0] == -1


class TestSerialization:
    def test_round_trip_dict(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 3.0, 2.0)))
        assert from_dict(to_dict(mem)) == mem

    def test_round_trip_file(self, tmp_path):
        mem = memory_from_sequence(ReversalSequence(-1.0, (2.0, -0.5, 1.0)))
        path = tmp_path / "memory.json"
        save_memory(mem, path)
        assert load_memory(path) == mem

    def test_dict_shape(self):
        mem = memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0)))
        assert to_dict(mem) == {
            "start_u": 0.0,
            "pairs": [[5.0, 1.0]],
            "current_u": 1.0,
            "trend": "falling",
        }

    def test_invalid_records_rejected(self):
        good = to_dict(memory_from_sequence(ReversalSequence(0.0, (5.0, 1.0, 3.0, 2.0))))
        increasing_maxima = dict(good, pairs=[[3.0, 1.0], [5.0, 2.0]])
        with pytest.raises(ValueError, match="invalid memory record"):
            from_dict(increasing_maxima)
        bad_trend = dict(good, trend="sideways")
        with pytest.raises(ValueError, match="invalid memory record"):
            from_dict(bad_trend)
        # good stores the pairs (5, 1) and (3, 2) and falls at 2
        for record, rule in [
            (dict(good, pairs=[[5.0, 1.0], [3.0, 1.0]]),
             "minima not strictly increasing at pair 1"),
            (dict(good, trend="initial"), "initial memory must have no vertices"),
            (dict(good, pairs=[], trend="initial"), "initial memory must sit at its start value"),
            (dict(good, trend="rising"), "rising input must exceed the last stored minimum"),
            (dict(good, trend="rising", current_u=3.0),
             "rising input must stay below the last stored maximum"),
        ]:
            with pytest.raises(ValueError) as exc:
                from_dict(record)
            assert str(exc.value) == f"invalid memory record: {rule}"
        with pytest.raises(ValueError, match="malformed memory record"):
            from_dict({"pairs": []})
        # a pair is a JSON array of two numbers, not a string or an object of two keys
        for pair in ("91", {"9": 0, "1": 0}):
            with pytest.raises(ValueError, match="malformed memory record: expected an array"):
                from_dict(dict(good, pairs=[pair], current_u=1.5, trend="rising"))

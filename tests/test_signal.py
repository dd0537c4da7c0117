import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import series_from_values
from preisach import ReversalSequence, SampledSeries, extract_reversals


def sign_change_scan(start, values):
    """Independent oracle: record every sign change of first differences."""
    path = [start]
    for v in values:
        if v != path[-1]:
            path.append(v)
    out = []
    for i in range(1, len(path) - 1):
        if (path[i] - path[i - 1]) * (path[i + 1] - path[i]) < 0:
            out.append(path[i])
    if len(path) > 1:
        out.append(path[-1])
    return out


class TestExtractReversals:
    def test_monotone_run_collapses_to_endpoint(self):
        seq = extract_reversals(series_from_values([0, 1, 2, 3]), 0.0)
        assert seq.extrema == (3.0,)

    def test_already_alternating(self):
        seq = extract_reversals(series_from_values([0, 3, 1, 2]), 0.0)
        assert seq.extrema == (3.0, 1.0, 2.0)

    def test_random_walk_matches_sign_change_scan(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.normal(size=1000))
        seq = extract_reversals(series_from_values(values), 0.0)
        assert list(seq.extrema) == sign_change_scan(0.0, values)

    def test_plateaus_are_not_extrema(self):
        seq = extract_reversals(series_from_values([0, 2, 2, 2, 1]), 0.0)
        assert seq.extrema == (2.0, 1.0)

    def test_leading_start_value_absorbed(self):
        seq = extract_reversals(series_from_values([0, 0, 1]), 0.0)
        assert seq.extrema == (1.0,)

    def test_constant_series_gives_empty_sequence(self):
        seq = extract_reversals(series_from_values([0, 0, 0]), 0.0)
        assert seq == ReversalSequence(0.0)

    def test_first_sample_below_start(self):
        seq = extract_reversals(series_from_values([-1, 4]), 0.0)
        assert seq.extrema == (-1.0, 4.0)

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        values = np.cumsum(rng.normal(size=300))
        seq = extract_reversals(series_from_values(values), 0.0)
        again = extract_reversals(series_from_values(seq.extrema), seq.start_u)
        assert again == seq

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_output_always_validates(self, values):
        seq = extract_reversals(series_from_values(values), 0.0)
        assert is_reversal_path(seq.start_u, seq.extrema)

    def test_rate_independence(self):
        # Same reversal values walked with different intermediate samplings
        fast = series_from_values([0, 1, 3, 1.5, 1, 2])
        slow = series_from_values([0, 0.5, 1.2, 2.0, 3, 2.5, 1.7, 1, 1.4, 2])
        assert extract_reversals(fast, 0.0) == extract_reversals(slow, 0.0)


class TestSeriesValidation:
    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="invalid sample"):
            SampledSeries.from_pairs([(0, 0.0), (1, float("nan"))])

    def test_unordered_times_rejected(self):
        with pytest.raises(ValueError, match="unordered series"):
            SampledSeries.from_pairs([(0, 0.0), (0, 1.0)])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            SampledSeries(times=(), values=())

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="start value is not finite"):
            extract_reversals(series_from_values([1.0]), float("inf"))


def is_reversal_path(start, extrema):
    """Oracle: every value finite, none equal to the one before, and moves alternating."""
    path = [start, *extrema]
    rises = [b > a for a, b in zip(path, path[1:])]
    return (all(math.isfinite(v) for v in path)
            and all(a != b for a, b in zip(path, path[1:]))
            and all(r != s for r, s in zip(rises, rises[1:])))


# a few values, so repeats and alternations are common, and any float, nan and inf too
REVERSAL_VALUE = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats())


def invalid(match):
    return pytest.raises(ValueError, match=r"^invalid reversal sequence: " + match + "$")


class TestValidate:
    """Construction checks the invariants and names the first violation."""

    def test_valid_sequence(self):
        assert ReversalSequence(0.0, (3.0, 1.0, 2.0)).extrema == (3.0, 1.0, 2.0)

    def test_two_increases_in_a_row(self):
        with invalid("violation at index 1: two increases in a row"):
            ReversalSequence(0.0, (3.0, 4.0))

    def test_two_decreases_in_a_row(self):
        with invalid("violation at index 2: two decreases in a row"):
            ReversalSequence(0.0, (3.0, 1.0, 0.5))

    def test_repeated_value(self):
        with invalid("violation at index 1: repeats previous value"):
            ReversalSequence(0.0, (3.0, 3.0))

    def test_first_extremum_equal_to_start(self):
        with invalid("violation at index 0: repeats previous value"):
            ReversalSequence(3.0, (3.0,))

    def test_non_finite_extremum(self):
        with invalid("violation at index 0: value is not finite"):
            ReversalSequence(0.0, (float("nan"),))

    def test_non_finite_start(self):
        with invalid("start value is not finite"):
            ReversalSequence(float("inf"))

    @given(REVERSAL_VALUE, st.lists(REVERSAL_VALUE, max_size=6))
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    def test_constructs_exactly_when_the_oracle_accepts(self, start, extrema):
        if is_reversal_path(start, extrema):
            assert ReversalSequence(start, tuple(extrema)).extrema == tuple(extrema)
        else:
            with invalid(".+"):
                ReversalSequence(start, tuple(extrema))

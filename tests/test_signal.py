import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import series_from_values
from preisach import ReversalSequence, SampledSeries, extract_reversals, validate


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
        assert seq.extrema == ()
        assert validate(seq) is None

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
        assert validate(seq) is None

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
        with pytest.raises(ValueError, match="invalid sample"):
            extract_reversals(series_from_values([1.0]), float("inf"))


class TestValidate:
    def test_valid_sequence(self):
        assert validate(ReversalSequence(0.0, (3.0, 1.0, 2.0))) is None

    def test_two_increases_in_a_row(self):
        msg = validate(ReversalSequence(0.0, (3.0, 4.0)))
        assert msg is not None and "index 1" in msg and "increases" in msg

    def test_repeated_value(self):
        msg = validate(ReversalSequence(0.0, (3.0, 3.0)))
        assert msg is not None and "index 1" in msg and "repeat" in msg

    def test_first_extremum_equal_to_start(self):
        assert validate(ReversalSequence(3.0, (3.0,))) is not None

    def test_non_finite_extremum(self):
        msg = validate(ReversalSequence(0.0, (float("nan"),)))
        assert msg is not None and "index 0" in msg

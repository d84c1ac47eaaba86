"""Tests for the Section 6.3 probabilistic reservation algorithm."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ProbabilisticAdmission,
    handoff_in_probability,
    nonblocking_probability,
    reserved_bandwidth,
    stay_probability,
    weighted_binomial_sum_pmf,
)
from repro.core.probabilistic import _binomial_pmf, _expanded_pmf

#: Figure 6's two connection types: (bandwidth, mu, handoff probability).
FIG6_TYPES = [(1.0, 5.0, 0.7), (4.0, 4.0, 0.7)]


def test_stay_probability_formula():
    assert stay_probability(mu=5.0, window=0.1) == pytest.approx(math.exp(-0.5))
    assert stay_probability(mu=5.0, window=0.0) == 1.0
    with pytest.raises(ValueError):
        stay_probability(0.0, 1.0)
    with pytest.raises(ValueError):
        stay_probability(1.0, -1.0)


def test_handoff_in_probability_formula():
    p = handoff_in_probability(mu=5.0, window=0.1, handoff_prob=0.7)
    assert p == pytest.approx((1 - math.exp(-0.5)) * 0.7)
    with pytest.raises(ValueError):
        handoff_in_probability(5.0, 0.1, 1.5)


def test_probabilities_complementary():
    """p_s + p_m/h + termination share = 1 structure."""
    mu, window, h = 4.0, 0.05, 0.7
    p_s = stay_probability(mu, window)
    p_m = handoff_in_probability(mu, window, h)
    leave = 1 - p_s
    assert p_m == pytest.approx(leave * h)


def test_pmf_single_binomial():
    pmf, unit = weighted_binomial_sum_pmf([(1.0, 2, 0.5)])
    assert unit == 1.0
    assert list(pmf) == pytest.approx([0.25, 0.5, 0.25])


def test_pmf_bandwidth_expansion():
    pmf, unit = weighted_binomial_sum_pmf([(4.0, 1, 0.5)])
    # Load is 0 or 4 units.
    assert pmf[0] == pytest.approx(0.5)
    assert pmf[4] == pytest.approx(0.5)
    assert pmf[1] == pmf[2] == pmf[3] == 0.0


def test_pmf_convolution_of_types():
    pmf, _ = weighted_binomial_sum_pmf([(1.0, 1, 0.5), (2.0, 1, 0.5)])
    # Loads: 0, 1, 2, 3 each with prob 0.25.
    assert list(pmf) == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_pmf_fractional_bandwidths_scaled():
    pmf, unit = weighted_binomial_sum_pmf([(0.5, 1, 1.0)])
    assert unit == pytest.approx(0.5)
    assert pmf[1] == pytest.approx(1.0)


def test_pmf_empty_groups():
    pmf, unit = weighted_binomial_sum_pmf([])
    assert list(pmf) == [1.0]


def test_pmf_negative_count_rejected():
    with pytest.raises(ValueError):
        weighted_binomial_sum_pmf([(1.0, -1, 0.5)])
    with pytest.raises(ValueError):
        weighted_binomial_sum_pmf([(1.0, 3, 0.5), (4.0, -2, 0.5)])


def test_memoised_pmfs_are_read_only():
    for array in (_binomial_pmf(5, 0.3), _expanded_pmf(5, 0.3, 4)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # The pmf handed to callers is their own, even for a single group.
    pmf, _ = weighted_binomial_sum_pmf([(4.0, 5, 0.3)])
    assert pmf.flags.writeable
    pmf[0] = 0.0
    assert _expanded_pmf(5, 0.3, 4)[0] == pytest.approx(0.7**5)


def _brute_force_pmf(groups, unit):
    """Enumerate every outcome of the independent binomials."""
    pmf = {}
    ranges = [range(n + 1) for _, n, _ in groups]
    for outcome in itertools.product(*ranges):
        prob, load = 1.0, 0
        for (b, n, p), k in zip(groups, outcome):
            prob *= math.comb(n, k) * p**k * (1 - p) ** (n - k)
            load += round(b * k / unit)
        pmf[load] = pmf.get(load, 0.0) + prob
    return [pmf.get(k, 0.0) for k in range(max(pmf) + 1)]


@pytest.mark.parametrize(
    "groups",
    [
        [(1.0, 3, 0.4), (4.0, 2, 0.7)],
        [(1.0, 4, 0.9), (1.0, 2, 0.1), (4.0, 1, 0.5), (4.0, 0, 0.5)],
        [(0.5, 3, 0.25), (2.0, 2, 0.6)],
        [(2.0, 3, 0.0), (1.0, 2, 1.0)],
    ],
)
def test_pmf_same_fresh_and_warm(groups):
    _binomial_pmf.cache_clear()
    _expanded_pmf.cache_clear()
    fresh, unit = weighted_binomial_sum_pmf(groups)
    warm, warm_unit = weighted_binomial_sum_pmf(groups)
    assert _expanded_pmf.cache_info().hits > 0
    assert unit == warm_unit
    assert np.array_equal(fresh, warm)
    assert list(fresh) == pytest.approx(_brute_force_pmf(groups, unit), abs=1e-12)


def test_nonblocking_probability_extremes():
    groups = [(1.0, 10, 0.5)]
    assert nonblocking_probability(10.0, groups) == pytest.approx(1.0)
    assert nonblocking_probability(0.0, groups) == pytest.approx(0.5**10)


def test_nonblocking_matches_monte_carlo():
    rng = np.random.default_rng(5)
    groups = [(1.0, 12, 0.6), (4.0, 3, 0.3)]
    capacity = 14.0
    exact = nonblocking_probability(capacity, groups)
    samples = rng.binomial(12, 0.6, 40000) + 4 * rng.binomial(3, 0.3, 40000)
    mc = float(np.mean(samples <= capacity))
    assert exact == pytest.approx(mc, abs=0.01)


def test_reserved_bandwidth_eqn7():
    assert reserved_bandwidth(40.0, [1.0, 4.0], [20, 3]) == pytest.approx(8.0)
    assert reserved_bandwidth(40.0, [1.0, 4.0], [40, 10]) == 0.0  # clamped
    with pytest.raises(ValueError):
        reserved_bandwidth(40.0, [1.0], [1, 2])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 4.0]),
            st.integers(min_value=0, max_value=25),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=4,
    )
)
def test_property_pmf_is_distribution(groups):
    pmf, unit = weighted_binomial_sum_pmf(groups)
    assert pmf.sum() == pytest.approx(1.0)
    assert (pmf >= -1e-12).all()
    assert unit > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0))
def test_property_nonblocking_monotone_in_capacity(capacity):
    groups = [(1.0, 20, 0.5), (4.0, 5, 0.5)]
    assert nonblocking_probability(capacity, groups) <= nonblocking_probability(
        capacity + 1.0, groups
    ) + 1e-12


class TestProbabilisticAdmission:
    def make(self, window=0.05, p_qos=0.01):
        return ProbabilisticAdmission(
            capacity=40.0, window=window, p_qos=p_qos, types=FIG6_TYPES
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilisticAdmission(0, 0.1, 0.01, FIG6_TYPES)
        with pytest.raises(ValueError):
            ProbabilisticAdmission(40, 0, 0.01, FIG6_TYPES)
        with pytest.raises(ValueError):
            ProbabilisticAdmission(40, 0.1, 0.0, FIG6_TYPES)

    def test_empty_cell_admits(self):
        admission = self.make()
        assert admission.admit_new(0, [0, 0], [0, 0])
        assert admission.admit_new(1, [0, 0], [0, 0])

    def test_full_cell_refuses(self):
        admission = self.make(p_qos=0.001)
        assert not admission.admit_new(0, [38, 0], [38, 0])

    def test_stricter_pqos_refuses_earlier(self):
        """Find the admission boundary: strict P_QOS stops at lower counts."""

        def max_admitted(p_qos):
            admission = self.make(p_qos=p_qos)
            counts = [0, 0]
            while admission.admit_new(0, counts, counts) and counts[0] < 60:
                counts[0] += 1
            return counts[0]

        assert max_admitted(0.001) < max_admitted(0.2)

    def test_vanishing_window_reduces_to_bandwidth_fit(self):
        """As T -> 0 nothing moves (p_s -> 1, p_m -> 0): the test admits up
        to raw capacity regardless of the neighbor's load."""
        admission = self.make(window=1e-6, p_qos=0.01)
        counts = [0, 0]
        neighbor = [38, 0]
        while admission.admit_new(0, counts, neighbor) and counts[0] < 60:
            counts[0] += 1
        assert counts[0] == 40

    def test_moderate_window_protects_against_loaded_neighbor(self):
        """With a real look-ahead, a loaded neighbor curbs admissions."""

        def max_admitted(neighbor):
            admission = self.make(window=0.05, p_qos=0.01)
            counts = [0, 0]
            while admission.admit_new(0, counts, neighbor) and counts[0] < 60:
                counts[0] += 1
            return counts[0]

        # (The probabilistic test alone may exceed raw capacity slightly —
        # departures within T free space; the simulator combines it with a
        # plain bandwidth-fit check.)
        assert max_admitted([38, 0]) < max_admitted([0, 0])

    def test_counts_validation(self):
        admission = self.make()
        with pytest.raises(ValueError):
            admission.admit_new(0, [1], [0, 0])

    def test_max_admissible_counts_boundary(self):
        admission = self.make(p_qos=0.05)
        counts = admission.max_admissible_counts([0, 0], [0, 0])
        # The boundary is tight: one more of the cheap type would break (6).
        assert not admission.admit_new(0, counts, [0, 0])
        assert admission.nonblocking(counts, [0, 0]) >= 1 - 0.05

    def test_reservation_for_uses_eqn7(self):
        admission = self.make()
        assert admission.reservation_for([20, 3]) == pytest.approx(8.0)

    def test_instances_do_not_share_pnb(self):
        """The P_nb memo is per instance: another window gives other values."""
        narrow, wide = self.make(window=0.02), self.make(window=0.2)
        local, neighbor = [20, 3], [25, 4]
        p_narrow = narrow.nonblocking(local, neighbor)
        p_wide = wide.nonblocking(local, neighbor)
        assert p_narrow != p_wide
        for admission, p_nb in ((narrow, p_narrow), (wide, p_wide)):
            assert p_nb == nonblocking_probability(
                40.0, admission.survival_groups(local, neighbor)
            )
            assert list(admission._cache.values()) == [p_nb]

    def test_nonblocking_memoized(self):
        admission = self.make()
        first = admission.nonblocking([5, 1], [3, 0])
        second = admission.nonblocking([5, 1], [3, 0])
        assert first == second
        assert len(admission._cache) == 1

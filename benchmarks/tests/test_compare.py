import statistics

import pytest

from compare import quartiles, spread, verdict

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def paired(parent, change):
    return list(zip(parent, change))


def test_quartiles_match_statistics_quantiles():
    assert quartiles(PARENT) == tuple(statistics.quantiles(PARENT, n=4))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = quartiles(PARENT)
    assert spread(PARENT) == pytest.approx((q3 - q1) / med)


def test_gain_when_nearly_every_pair_wins():
    change = [x * 0.8 for x in PARENT]
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "gain"


def test_one_lost_pair_in_ten_is_still_a_gain_but_two_are_not():
    change = [x * 0.8 for x in PARENT]
    change[0] = 11.0
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "gain"
    change[1] = 11.0
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) != "gain"


def test_gain_needs_a_difference_beyond_the_parent_spread():
    change = [x - 0.001 for x in PARENT]
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "within bound"


def test_ties_count_for_neither_side():
    assert verdict(PARENT, PARENT, paired(PARENT, PARENT), "lower", 0.1) == "within bound"


def test_regression_beyond_the_bound():
    change = [x * 1.2 for x in PARENT]
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "regression"
    assert verdict(PARENT, change, paired(PARENT, change), "lower", 0.25) == "within bound"


def test_higher_is_better_reverses_the_direction():
    up = [x * 1.2 for x in PARENT]
    down = [x * 0.8 for x in PARENT]
    assert verdict(PARENT, up, paired(PARENT, up), "higher", 0.1) == "gain"
    assert verdict(PARENT, down, paired(PARENT, down), "higher", 0.1) == "regression"


def test_unresolved_when_the_spread_exceeds_the_bound():
    wide = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
    change = [x * 1.05 for x in wide]
    assert verdict(wide, change, paired(wide, change), "lower", 0.1) == "unresolved"


def test_regression_beyond_the_bound_even_when_the_spread_is_wide():
    wide = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
    change = [x * 1.4 for x in wide]
    assert verdict(wide, change, paired(wide, change), "lower", 0.25) == "regression"
    assert verdict(wide, change, paired(wide, change), "lower", 0.5) == "unresolved"


def test_wide_spread_is_not_unresolved_when_every_change_run_is_better():
    wide = [10.0, 12.0, 14.0, 16.0]
    change = [1.0, 2.0, 3.0, 9.0]
    assert verdict(wide, change, [], "lower", 0.1) == "within bound"


def test_metrics_without_a_bound_get_gain_or_nothing():
    change = [x * 0.8 for x in PARENT]
    assert verdict(PARENT, change, paired(PARENT, change), "lower", None) == "gain"
    assert verdict(PARENT, PARENT, paired(PARENT, PARENT), "lower", None) == "-"

"""The paired-run verdict of ``pairs.py`` on fixed lists."""

import pytest

from pairs import verdict

PARENT = [0.20, 0.21, 0.19, 0.20, 0.22, 0.20, 0.19, 0.21, 0.20, 0.20]


def test_a_clear_gain_holds():
    change = [p - 0.03 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.2)
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["gain"] and v["within_bound"]
    assert v["parent_median"] == pytest.approx(0.20)
    assert v["change_median"] == pytest.approx(0.17)


def test_nine_wins_of_ten_are_enough_and_eight_are_not():
    change = [p - 0.03 for p in PARENT]
    change[0] = PARENT[0]  # a tie counts for neither side
    assert verdict(PARENT, change, "lower", 0.2)["wins"] == 9
    assert verdict(PARENT, change, "lower", 0.2)["gain"]
    change[1] = PARENT[1] + 0.01
    v = verdict(PARENT, change, "lower", 0.2)
    assert v["wins"] == 8 and not v["gain"]


def test_a_gain_within_the_parents_spread_does_not_hold():
    # parent quartiles 0.1975-0.21: a 0.005 shift wins every pair but is
    # smaller than their distance
    change = [p - 0.005 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.2)
    assert v["wins"] == 10
    assert (v["parent_q1"], v["parent_q3"]) == pytest.approx((0.1975, 0.21))
    assert not v["gain"]


def test_fewer_than_ten_pairs_never_claim_a_gain():
    v = verdict(PARENT[:3], [0.1, 0.1, 0.1], "lower", 0.2)
    assert v["wins"] == 3 and not v["gain"]


def test_higher_is_better_flips_wins_and_bound():
    change = [p + 0.03 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.05)["gain"]
    v = verdict(PARENT, [p * 0.9 for p in PARENT], "higher", 0.05)
    assert v["wins"] == 0 and not v["within_bound"]
    assert verdict(PARENT, [p * 0.96 for p in PARENT], "higher",
                   0.05)["within_bound"]


def test_the_bound_is_a_share_of_the_parents_median():
    assert verdict(PARENT, [p * 1.19 for p in PARENT], "lower",
                   0.2)["within_bound"]
    assert not verdict(PARENT, [p * 1.21 for p in PARENT], "lower",
                       0.2)["within_bound"]


def test_a_single_pair_has_no_spread():
    v = verdict([1.0], [0.5], "lower", 0.1)
    assert (v["parent_q1"], v["parent_q3"]) == (1.0, 1.0)
    assert v["wins"] == 1 and not v["gain"] and v["within_bound"]


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)

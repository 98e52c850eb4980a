"""The summary rules of ``scripts/bench_pairs.py``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))

import bench_pairs  # noqa: E402

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "better": "higher", "bound": 0.1}


def _runs(name, base, change):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


def test_claim_rule_and_bound_check_of_a_lower_is_better_metric():
    base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    faster = bench_pairs.summarize(
        _runs("wall_s", base, [0.8 * b for b in base]), WALL)
    assert faster["change_won"] == 10
    assert faster["claim_rule_holds"]
    assert faster["bound_check"] == "within bound"
    # 20% slower is within the 25% bound; 30% slower is not.
    within = bench_pairs.summarize(
        _runs("wall_s", base, [1.2 * b for b in base]), WALL)
    assert not within["claim_rule_holds"]
    assert within["bound_check"] == "within bound"
    beyond = bench_pairs.summarize(
        _runs("wall_s", base, [1.3 * b for b in base]), WALL)
    assert beyond["bound_check"] == "regression"
    assert beyond["median_change"] > 0.25


def test_bound_check_of_a_higher_is_better_metric():
    base = [10.0, 10.5, 9.5, 10.0]
    assert bench_pairs.summarize(
        _runs("rate", base, [8.9, 9.3, 8.4, 8.9]), RATE)["bound_check"] \
        == "regression"
    assert bench_pairs.summarize(
        _runs("rate", base, [9.5, 10.0, 9.0, 9.5]), RATE)["bound_check"] \
        == "within bound"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # The base's IQR (0.5) exceeds 25% of its median (1.0): whether the
    # medians move up or down, the check cannot tell a change from noise.
    base = [0.5, 0.75, 1.0, 1.25, 1.5]
    for change in ([1.2 * b for b in base], [0.95 * b for b in base],
                   list(base)):
        summary = bench_pairs.summarize(_runs("wall_s", base, change), WALL)
        assert summary["base_iqr"] > 0.25
        assert summary["bound_check"] == "unresolved"
    # Unless every change run beats every base run.
    faster = bench_pairs.summarize(
        _runs("wall_s", base, [0.1, 0.2, 0.3, 0.4, 0.45]), WALL)
    assert faster["bound_check"] == "within bound"
    # A higher-is-better metric's every change run above every base run.
    spread = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert bench_pairs.summarize(
        _runs("rate", spread, [12.5, 13.0, 14.0, 15.0, 16.0]),
        RATE)["bound_check"] == "within bound"
    assert bench_pairs.summarize(
        _runs("rate", spread, [11.5, 13.0, 14.0, 15.0, 16.0]),
        RATE)["bound_check"] == "unresolved"

"""The paired timing of `ab.py`, run on this tree against itself for one
round: every case is reported with a finite ratio."""

import math
from pathlib import Path

import numpy as np
from ab import compare, median_interval

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_a_tree_against_itself_reports_every_case():
    rows = compare(SRC, SRC, rounds=1)
    assert set(rows) == {"evaluate", "train stage1", "train stage2",
                         "minibatch stage1", "minibatch stage2", "speed"} | {
        f"{case} N{n}" for case in ("predict+rank", "predict", "rank")
        for n in (3, 8, 16)}
    for row in rows.values():
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0
        assert row["lo"] <= row["q1"] <= row["ratio"] <= row["q3"] \
            <= row["hi"]
        assert 0 <= row["wins"] <= row["rounds"] == 1


def test_the_median_interval_is_the_sign_tests():
    # n = 20: P(B <= 5) = 0.0207 <= 2.5% < P(B <= 6), so r_(6) to r_(15)
    assert median_interval(np.arange(20.0, 0.0, -1.0)) == (6.0, 15.0)
    # n = 6: P(B = 0) = 1/64 qualifies, so the extremes
    assert median_interval(np.arange(6.0)) == (0.0, 5.0)
    # n = 10: P(B <= 1) = 0.0107 qualifies and P(B <= 2) = 0.0547 does not
    assert median_interval(np.arange(10.0)) == (1.0, 8.0)
    # below six rounds, the whole range
    assert median_interval(np.array([2.0, 1.0, 3.0])) == (1.0, 3.0)

"""The paired timing of `ab.py`, run on this tree against itself for one
round, printing its table and writing its JSON: every case is reported
with a finite ratio and with the calls one call makes on each side."""

import json
import math
from pathlib import Path

import numpy as np
from ab import count_calls, main, median_interval

SRC = str(Path(__file__).resolve().parents[1] / "src")

CASES = {"evaluate", "train stage1", "train stage2", "minibatch stage1",
         "minibatch stage2", "speed"} | {
    f"{case} N{n}" for case in ("predict+rank", "predict", "rank")
    for n in (3, 8, 16)}


def test_a_tree_against_itself_reports_every_case(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert main([SRC, SRC, "--rounds", "1", "--json", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads(path.read_text())
    assert lines[0] == doc["environment"]
    assert doc["environment"].startswith("Python ")
    assert doc["rounds"] == 1
    rows = doc["cases"]
    assert set(rows) == CASES
    assert {line[:20].rstrip() for line in lines[2:]} == CASES
    for row in rows.values():
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0
        assert row["lo"] <= row["q1"] <= row["ratio"] <= row["q3"] \
            <= row["hi"]
        assert 0 <= row["wins"] <= row["rounds"] == 1
        # the same tree makes the same calls on both sides
        assert row["parent_calls"] == row["change_calls"] > 0
    # a plan's calls are its two halves', each of which counts one
    # wrapping call and the removal of the profile, as the plan does once
    for n in (3, 8, 16):
        assert rows[f"predict+rank N{n}"]["parent_calls"] == \
            rows[f"predict N{n}"]["parent_calls"] \
            + rows[f"rank N{n}"]["parent_calls"] - 2


def test_calls_are_counted_as_the_profiler_sees_them():
    def two():
        len([])
        return abs(-1)
    # the call of two itself, its two builtins and the profile's removal
    assert count_calls(two) == 4
    assert count_calls(lambda: np.add(1, 2)) == 2    # a ufunc is not seen


def test_the_median_interval_is_the_sign_tests():
    # n = 20: P(B <= 5) = 0.0207 <= 2.5% < P(B <= 6), so r_(6) to r_(15)
    assert median_interval(np.arange(20.0, 0.0, -1.0)) == (6.0, 15.0)
    # n = 6: P(B = 0) = 1/64 qualifies, so the extremes
    assert median_interval(np.arange(6.0)) == (0.0, 5.0)
    # n = 10: P(B <= 1) = 0.0107 qualifies and P(B <= 2) = 0.0547 does not
    assert median_interval(np.arange(10.0)) == (1.0, 8.0)
    # below six rounds, the whole range
    assert median_interval(np.array([2.0, 1.0, 3.0])) == (1.0, 3.0)

"""The paired timing of `ab.py`, run on this tree against itself for one
round: every case is reported with a finite ratio."""

import math
from pathlib import Path

from ab import compare

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_a_tree_against_itself_reports_every_case():
    rows = compare(SRC, SRC, rounds=1)
    assert set(rows) == {"evaluate", "predict+rank N3", "predict+rank N8",
                         "predict+rank N16", "train stage1", "train stage2",
                         "minibatch stage1", "minibatch stage2", "speed"}
    for row in rows.values():
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0
        assert row["q1"] <= row["ratio"] <= row["q3"]
        assert 0 <= row["wins"] <= row["rounds"] == 1

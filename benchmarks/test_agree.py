"""The agreement check of `agree.py`, run on this tree against itself: on a
few small scenes every rank order is equal and every gap is exactly 0."""

from pathlib import Path

from agree import compare

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_a_tree_agrees_with_itself_bit_for_bit():
    same, count, gaps = compare(SRC, SRC, agents=(3,), seeds=(0,))
    assert same == count == 5
    assert {"prediction", "parsed prediction", "RiskReport.risks",
            "RiskReport.boundary", "risk loss", "risk gradient",
            "train l_risk", "train weights",
            "loaded checkpoint"} <= gaps.keys()
    assert gaps == dict.fromkeys(gaps, 0.0)

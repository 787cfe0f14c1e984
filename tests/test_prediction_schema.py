"""prediction_from_json's walk against the JSON Schema it enforces, and
`riskcast risk` on mutated prediction files.

jsonschema is the oracle, as for scenes in test_scene_schema. Documents
written by ``prediction_to_json`` get one or two mutations each: where the
oracle rejects, the parser must reject at the same JSON path, unless a
non-finite number, which the walk rejects and the oracle does not, comes
first; where the oracle accepts, the parser may reject only for a
non-finite number or for one of its checks after the walk (repeated k,
agent ids that repeat or differ between modes, points of another shape).
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from test_scene_schema import mutate, oracle_path, value_at

from riskcast.cli import main
from riskcast.intention import JointPrediction
from riskcast.model import (PREDICTION_SCHEMA, prediction_from_json,
                            prediction_to_json)
from riskcast.scene import TEMPLATES, dump_scenario, generate_scenario

ORACLE = Draft202012Validator(PREDICTION_SCHEMA)
# wrong types, bools, a numeric string, integral and fractional numbers,
# arrays shaped like points or not, and non-finite numbers
REPLACEMENTS = [None, True, False, "x", "0.6", 2, 2.5, -1, [], {}, [1],
                [1, 2], [[1, 2]], [[]], [[1, 2, 3]], math.nan, math.inf,
                10 ** 400]
# the messages of the checks after the walk
POST_WALK = ("mode indices k repeat", "agent ids repeat", "lists agents",
             "points must form one")


def prediction_doc(scn, modes: int, steps: int) -> dict:
    """A prediction_to_json document of the scene's futures, cut to `steps`
    steps, each mode 0.5 m further along x."""
    offsets = 0.5 * np.arange(modes)[:, None, None, None] * [1.0, 0.0]
    jp = JointPrediction(scn.future[None, :, :steps, :2] + offsets,
                         np.full(modes, 1 / modes), scn.agent_ids.tolist(),
                         scn.scenario_id)
    return json.loads(json.dumps(prediction_to_json(jp, [])))


@st.composite
def mutations(draw, doc):
    """A copy of doc with one or two mutations (`mutate`)."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        doc = mutate(draw, doc, REPLACEMENTS)
    return doc


@st.composite
def mutated_predictions(draw):
    scn = generate_scenario(draw(st.sampled_from(TEMPLATES)),
                            draw(st.integers(1, 3)),
                            draw(st.integers(0, 20)), H=2, T=4)
    return draw(mutations(prediction_doc(scn, draw(st.integers(1, 3)),
                                         draw(st.integers(1, 4)))))


def parse_error(doc) -> str | None:
    """The parser's message for doc, or None if it accepts it."""
    try:
        prediction_from_json(doc)
    except ValueError as e:
        return str(e)
    return None


def is_non_finite(value) -> bool:
    """Whether value is a JSON number that converts to no finite float."""
    try:
        return type(value) in (int, float) and not math.isfinite(value)
    except OverflowError:
        return True


@settings(max_examples=400, deadline=None)
@given(mutated_predictions())
def test_walk_matches_json_schema(doc):
    want = oracle_path(doc, ORACLE)
    error = parse_error(doc)
    match = re.match(r"schema violation at (\$\S*): ", error or "")
    got = match.group(1) if match else None
    if got is not None and got != want:
        # the walk's extra rule: a number must be finite
        assert "non-finite number" in error, error
        assert is_non_finite(value_at(doc, got)), error
    elif want is not None:
        assert got == want, error
    elif error is not None:
        assert any(check in error for check in POST_WALK), error


def test_schema_is_valid_and_passes_written_documents():
    Draft202012Validator.check_schema(PREDICTION_SCHEMA)
    for modes, steps in ((1, 1), (3, 4)):
        doc = prediction_doc(generate_scenario("merge", 3, 2, T=4), modes,
                             steps)
        assert oracle_path(doc, ORACLE) is None
        assert parse_error(doc) is None


def test_points_parse_as_one_float64_array():
    scn = generate_scenario("crossing_conflict", 3, 4, H=2, T=4)
    doc = prediction_doc(scn, 2, 4)
    doc["modes"][1]["agents"][0]["points"][2] = [1, 2]    # JSON integers
    doc["modes"] = doc["modes"][::-1]
    jp = prediction_from_json(doc)
    want = scn.future[None, :, :, :2] + [[[[0.0, 0.0]]], [[[0.5, 0.0]]]]
    want[1, 0, 2] = [1.0, 2.0]
    assert jp.trajectories.dtype == np.float64
    assert np.array_equal(jp.trajectories, want)
    assert jp.mode_probs.tolist() == [0.5, 0.5]


# the scene `riskcast risk` ranks the mutated predictions of
RISK_SCENE = generate_scenario("crossing_conflict", 3, seed=4, H=3, T=5)


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite_numbers, node.values()))
    if isinstance(node, list):
        return all(map(_finite_numbers, node))
    return type(node) is not float or math.isfinite(node)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=60, deadline=None)
@given(mutations(prediction_doc(RISK_SCENE, 2, 5)))
def test_risk_ranks_or_exits_1_with_one_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        prediction = os.path.join(tmp, "prediction.json")
        out = os.path.join(tmp, "risk")
        with open(scenario, "w") as f:
            f.write(dump_scenario(RISK_SCENE))
        with open(prediction, "w") as f:
            json.dump(doc, f)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["risk", "--scenario", scenario, "--prediction",
                         prediction, "--out", out])
        if code == 0:
            with open(os.path.join(out, "risk_report.json")) as f:
                report = json.load(f, parse_constant=_reject_constant)
            assert _finite_numbers(report)
        else:
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "Traceback" not in stderr.getvalue()
            assert not os.path.exists(out)

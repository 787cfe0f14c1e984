"""The checkpoint meta's walk against the JSON Schema it enforces, and
`riskcast predict --model` on checkpoints with mutated metas.

jsonschema is the oracle, as for scenes in test_scene_schema and for
predictions in test_prediction_schema. The meta ``save`` writes of a tiny
model gets one or two mutations: where the oracle rejects, the walk must
reject at the same JSON path, unless a non-finite number, which the walk
rejects and the oracle does not, comes first; where the oracle accepts, the
walk may reject only for a non-finite number. The format and the version,
which ``load`` checks before the walk, are not part of the schema.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
import zipfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from test_prediction_schema import REPLACEMENTS, is_non_finite
from test_scene_schema import mutate, oracle_path, value_at

from riskcast.cli import main
from riskcast.model import CHECKPOINT_META_SCHEMA, JointPredictor, ModelConfig
from riskcast.scene import ScenarioError, dump_scenario, generate_scenario, walk

ORACLE = Draft202012Validator(CHECKPOINT_META_SCHEMA)
TINY = ModelConfig(embed_dim=8, attention_heads=2, transformer_layers=1,
                   n_modes=2, future_steps=5)


def _saved(cfg: ModelConfig) -> tuple[dict, bytes]:
    """The meta and the params entry of the checkpoint `save` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        JointPredictor(cfg).save(path)
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(str(np.lib.format.read_array(
                io.BytesIO(zf.read("__meta__.npy")))))
            return meta, zf.read("params.npy")


META, PARAMS = _saved(TINY)


def write_checkpoint(path: str, meta) -> None:
    """A checkpoint of the tiny model's params with `meta` as its meta."""
    entry = io.BytesIO()
    np.lib.format.write_array(entry, np.array(json.dumps(meta)))
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("__meta__.npy", entry.getvalue())
        zf.writestr("params.npy", PARAMS)


@st.composite
def mutations(draw, doc):
    """A copy of doc with one or two mutations (`mutate`)."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        doc = mutate(draw, doc, REPLACEMENTS)
    return doc


def walk_error(doc) -> str | None:
    try:
        walk(doc, CHECKPOINT_META_SCHEMA, "$")
    except ScenarioError as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(mutations(META))
def test_walk_matches_json_schema(doc):
    want = oracle_path(doc, ORACLE)
    error = walk_error(doc)
    match = re.match(r"schema violation at (\$\S*): ", error or "")
    got = match.group(1) if match else None
    assert (error is None) == (got is None), error
    if got is not None and got != want:
        # the walk's extra rule: a number must be finite
        assert "non-finite number" in error, error
        assert is_non_finite(value_at(doc, got)), error
    else:
        assert got == want, error


def test_schema_is_valid_and_passes_saved_metas():
    Draft202012Validator.check_schema(CHECKPOINT_META_SCHEMA)
    for cfg in (TINY, ModelConfig()):
        meta, _ = _saved(cfg)
        assert oracle_path(meta, ORACLE) is None
        assert walk_error(meta) is None


def test_config_types_follow_the_defaults():
    config = CHECKPOINT_META_SCHEMA["properties"]["config"]
    assert config["properties"] == {
        "embed_dim": {"type": "integer"},
        "attention_heads": {"type": "integer"},
        "transformer_layers": {"type": "integer"},
        "ff_mult": {"type": "integer"},
        "context_radius_m": {"type": "number"},
        "map_pad": {"type": "integer"},
        "n_modes": {"type": "integer"},
        "future_steps": {"type": "integer"},
        "init_seed": {"type": "integer"}}
    assert config["required"] == list(config["properties"])


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# the scene `riskcast predict` runs the tiny checkpoints on
PREDICT_SCENE = generate_scenario("crossing_conflict", 3, seed=4, H=3, T=5)


@settings(max_examples=60, deadline=None)
@given(mutations(META))
@example({**META, "config": {**META["config"], "embed_dim": 10 ** 400}})
def test_predict_runs_or_exits_1_with_one_error_line(meta):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        ckpt = os.path.join(tmp, "model.ckpt")
        out = os.path.join(tmp, "pred")
        with open(scenario, "w") as f:
            f.write(dump_scenario(PREDICT_SCENE))
        write_checkpoint(ckpt, meta)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["predict", "--model", ckpt, "--scenario", scenario,
                         "--out", out])
        if code == 0:
            for name in ("prediction.json", "resolved_config.json"):
                with open(os.path.join(out, name)) as f:
                    json.load(f, parse_constant=_reject_constant)
        else:
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith(f"error: invalid checkpoint {ckpt}: ")
            assert "Traceback" not in stderr.getvalue()
            assert not os.path.exists(out)

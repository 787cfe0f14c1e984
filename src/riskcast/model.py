"""End-to-end joint predictor: interaction encoding, intention heads,
intention-feature fusion, and the multi-modal joint decoder, with manual
backward wiring and binary checkpointing.

The model operates in the ego's local frame (scene recentered on the ego's
current pose, out-of-radius elements dropped); predictions are mapped back
to global coordinates.

``JointPredictor.forward`` takes a batch of local scenes and runs them as
one disjoint union, the way graph libraries batch small graphs into one
disconnected graph: the per-scene arrays the stages read from each scene's
``past`` [N, H+1, 5] and map are concatenated into one set of rows
([sum N, ...]) and one set of keys, and each scene's rows are one slice of
them (``ForwardResult.slices``). Row-wise layers (the MLPs and heads) run
once over all rows. The LSTM, the only layer that reads the history length,
runs once per length over the rows of that length, so scenes of different
lengths share one union. The agent-agent encoder and the agent-map
attention take each scene's own neighbor mask [N_b, N_b] and map
visibility [N_b, P_b], never a matrix over the whole union, so a row only
ever sees its own scene's agents and polylines; a scene without a map is a
visibility block with no columns. The decoder max-pools each scene's slice
to one row of mode probabilities ([B, K]). Training runs one forward and
one backward per minibatch this way; ``predict`` is the batch of one.

Checkpoints (format version 4) are uncompressed ``.npz`` archives written to
exactly the path given, with two entries. ``__meta__`` is a JSON string
holding the format name, the version, the model config and the index: each
parameter's ``[name, shape]``, in ``Module.params`` order. ``params`` is one
float64 vector holding every parameter in that order. A stacked parameter is
one index entry: the decoder's ``dec.heads.0.W`` is the [K, 2D, 2D]
first-layer weight of its K heads. ``save`` writes each parameter's memory
straight into the zip entry and ``load`` reads it straight back, so neither
copies the whole vector. The bytes depend only on the parameters and the
config, and a round trip is bit-exact. ``load`` checks the format and the
version, then walks the meta against ``CHECKPOINT_META_SCHEMA`` with
``scene.walk`` before it builds the model. Every malformed checkpoint, a
file that is not a zip archive among them, raises ``ValueError``.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from . import nn
from .intention import (ClassEmbeddings, IntentionDistribution, IntentionFuser,
                        IntentionHead, JointDecoder, JointPrediction,
                        LATERAL_CLASSES, LONGITUDINAL_CLASSES)
from .interaction import (AgentAgentEncoder, AgentMapAttention,
                          HistoryEncoder, MapEncoder,
                          history_feature_matrix, map_feature_matrix,
                          map_visibility, neighbor_mask)
from .scene import (_WAYPOINT_SCHEMA, Scenario, _finite, local_frame,
                    pose_frame, walk)

CHECKPOINT_FORMAT = "riskcast-checkpoint"
CHECKPOINT_VERSION = 4
_META_KEY = "__meta__"
_PARAMS_KEY = "params"
_ZIP_MAGIC = b"PK\x03\x04"
_JSON_TYPES = {int: "integer", float: "number"}


@dataclass
class ModelConfig:
    embed_dim: int = 64
    attention_heads: int = 4
    transformer_layers: int = 2
    ff_mult: int = 2
    context_radius_m: float = 50.0
    map_pad: int = 20
    n_modes: int = 6
    future_steps: int = 50
    init_seed: int = 0

    def __post_init__(self):
        """Every value finite and positive (the seed non-negative), and the
        heads dividing the embedding. A message starts with "<field>:"."""
        for f in fields(self):
            value = getattr(self, f.name)
            in_range = value >= 0 if f.name == "init_seed" else value > 0
            if not (in_range and _finite(value)):
                raise ValueError(f"{f.name}: {value!r} is out of range")
        if self.embed_dim % self.attention_heads:
            raise ValueError(f"embed_dim: {self.embed_dim} is not a multiple "
                             f"of attention_heads ({self.attention_heads})")


@dataclass
class ForwardResult:
    """Everything the losses and the backward pass need from one forward
    over B scenes. Rows run over the agents of every scene (N = sum of the
    scenes' agent counts); scene b's rows are ``slices[b]``."""
    trajectories: np.ndarray      # [K, N, T, 2] in each scene's local frame
    mode_probs: np.ndarray        # [B, K]
    lat_probs: np.ndarray         # [N, 3]
    lon_probs: np.ndarray         # [N, 3]
    intention_feature: np.ndarray  # [N, D]
    features: np.ndarray          # [N, D] fused interaction features
    slices: list[slice]           # [B] each scene's rows
    ctx: tuple                    # the layer contexts, in forward order


class JointPredictor(nn.Module):
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = nn.seeded_rng(cfg.init_seed)
        d, heads = cfg.embed_dim, cfg.attention_heads
        self.history = HistoryEncoder(d, rng, name="hist")
        self.map_enc = MapEncoder(cfg.map_pad, d, rng, name="map")
        self.agent_agent = AgentAgentEncoder(d, heads, cfg.ff_mult,
                                             cfg.transformer_layers, rng,
                                             name="aa")
        self.agent_map = AgentMapAttention(d, heads, rng, name="amap")
        self.intention_head = IntentionHead(d, rng, name="int")
        self.lat_embeddings = ClassEmbeddings(d, len(LATERAL_CLASSES), rng,
                                              name="emb.lat")
        self.lon_embeddings = ClassEmbeddings(d, len(LONGITUDINAL_CLASSES),
                                              rng, name="emb.lon")
        self.fuser = IntentionFuser(d, rng, name="fuse")
        self.decoder = JointDecoder(d, cfg.n_modes, cfg.future_steps, rng,
                                    name="dec")

    # -- forward / backward over a local-frame scenario -------------------

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, locals_: list[Scenario]) -> ForwardResult:
        """One pass over local-frame scenes, run as one disjoint union (see
        the module docstring). Weights that overflow the pass raise
        ValueError."""
        cfg = self.cfg
        feats = [history_feature_matrix(local) for local in locals_]
        slices = _slices([len(f) for f in feats])
        lengths = [f.shape[1] for f in feats]
        steps = np.array(lengths).repeat([len(f) for f in feats])
        h = np.empty((len(steps), cfg.embed_dim))
        hist_runs = []
        for t in sorted(set(lengths)):
            rows = (steps == t).nonzero()[0]
            h[rows], ctx = self.history.forward(
                np.concatenate([f for f in feats if f.shape[1] == t]))
            hist_runs.append((rows, ctx))
        base, aa_ctx = self.agent_agent.forward(
            h, [neighbor_mask(local, cfg.context_radius_m)
                for local in locals_])
        membeds, menc_ctx = self.map_enc.forward(np.concatenate(
            [map_feature_matrix(local.map, cfg.map_pad) for local in locals_]))
        features, amap_ctx = self.agent_map.forward(
            base, membeds, [map_visibility(local, cfg.context_radius_m)
                            for local in locals_])

        (lat, lon), head_ctx = self.intention_head.forward(features)
        e_lat, elat_ctx = self.lat_embeddings.forward(features, lat)
        e_lon, elon_ctx = self.lon_embeddings.forward(features, lon)
        z, fuse_ctx = self.fuser.forward(e_lat, e_lon)
        dec_in = np.concatenate([features, z], axis=1)
        pos0 = np.concatenate([local.past[:, -1, :2] for local in locals_])
        (trajs, probs), dec_ctx = self.decoder.forward(dec_in, pos0, slices)
        if not (np.logical_and.reduce(np.isfinite(trajs), axis=None)
                and np.logical_and.reduce(np.isfinite(probs), axis=None)):
            raise ValueError("non-finite decoded trajectories or mode "
                             "probabilities")
        return ForwardResult(trajs, probs, lat, lon, z, features, slices,
                             (hist_runs, aa_ctx, menc_ctx, amap_ctx, head_ctx,
                              elat_ctx, elon_ctx, fuse_ctx, dec_ctx))

    def backward(self, res: ForwardResult, dtrajs: np.ndarray,
                 dprobs: np.ndarray, dlat: np.ndarray,
                 dlon: np.ndarray) -> None:
        """Accumulate the parameter gradients of the losses' gradients with
        respect to the forward's outputs, laid out as they are: dtrajs
        [K, N, T, 2], dprobs [B, K], dlat and dlon [N, 3]."""
        (hist_runs, aa_ctx, menc_ctx, amap_ctx, head_ctx, elat_ctx, elon_ctx,
         fuse_ctx, dec_ctx) = res.ctx
        d = self.cfg.embed_dim
        ddec_in = self.decoder.backward(dec_ctx, dtrajs, dprobs)
        dfeat = ddec_in[:, :d].copy()
        dz = ddec_in[:, d:]
        de_lat, de_lon = self.fuser.backward(fuse_ctx, dz)
        df, dlon_emb = self.lon_embeddings.backward(elon_ctx, de_lon)
        dfeat += df
        df, dlat_emb = self.lat_embeddings.backward(elat_ctx, de_lat)
        dfeat += df
        dfeat += self.intention_head.backward(head_ctx, dlat + dlat_emb,
                                              dlon + dlon_emb)
        dbase, dmap = self.agent_map.backward(amap_ctx, dfeat)
        self.map_enc.backward(menc_ctx, dmap)
        dh = self.agent_agent.backward(aa_ctx, dbase)
        for rows, ctx in hist_runs:
            self.history.backward(ctx, dh[rows])

    # -- inference ---------------------------------------------------------

    def prepare(self, scn: Scenario) -> Scenario:
        return local_frame(scn, scn.ego_id, self.cfg.context_radius_m)

    def predict(self, scn: Scenario
                ) -> tuple[JointPrediction, list[IntentionDistribution]]:
        """Run the model on a global-frame scenario; trajectories come back
        in global coordinates."""
        # the forward pass reads only the past, so the futures stay behind
        local = self.prepare(scn.replaced(
            has_future=np.zeros_like(scn.has_future)))
        frame = pose_frame(scn, scn.ego_id)
        res = self.forward([local])
        jp = JointPrediction(frame.to_global(res.trajectories),
                             res.mode_probs[0], local.agent_ids.tolist(),
                             scn.scenario_id)
        dists = [IntentionDistribution(lat, lon)
                 for lat, lon in zip(res.lat_probs, res.lon_probs)]
        return jp, dists

    # -- checkpointing -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write a version-4 checkpoint to exactly `path`. Each parameter's
        memory goes straight into the params entry, so saving copies no
        whole-model vector. The checkpoint is written to a temporary file
        beside `path` and renamed onto it, so a save that fails or is
        killed part-way leaves any earlier file at `path` whole."""
        params = self.params()
        meta = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                "config": asdict(self.cfg),
                "index": [[p.name, list(p.shape)] for p in params]}
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                  "fortran_order": False,
                  "shape": (sum(p.value.size for p in params),)}
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with zipfile.ZipFile(tmp, "w") as zf:
                with zf.open(f"{_META_KEY}.npy", "w") as f:
                    np.lib.format.write_array(f, np.array(json.dumps(
                        meta, sort_keys=True, allow_nan=False)),
                        allow_pickle=False)
                with zf.open(f"{_PARAMS_KEY}.npy", "w") as f:
                    np.lib.format.write_array_header_1_0(f, header)
                    for p in params:
                        f.write(p.value.data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "JointPredictor":
        """Read a version-4 checkpoint, streaming the params vector into the
        parameters in index order."""
        with open(path, "rb") as f:
            if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
            f.seek(0)
            try:
                with zipfile.ZipFile(f) as zf:
                    meta = _read_meta(zf, path)
                    model = cls(_config_from_json(meta["config"]))
                    _read_params(zf, model.params(), meta["index"], path)
            except (zipfile.BadZipFile, EOFError, OSError) as e:
                raise ValueError(f"corrupt checkpoint {path}: {e}") from e
        return model


# The checkpoint meta as save writes it, bar the format and the version,
# which _read_meta checks before it walks the rest.
CHECKPOINT_META_SCHEMA = {
    "type": "object",
    "required": ["config", "index"],
    "properties": {
        "config": {
            "type": "object",
            "required": [f.name for f in fields(ModelConfig)],
            "additionalProperties": False,
            "properties": {f.name: {"type": _JSON_TYPES[type(f.default)]}
                           for f in fields(ModelConfig)},
        },
        "index": {"type": "array", "items": {
            "type": "array",
            "prefixItems": [{"type": "string"},
                            {"type": "array", "items": {"type": "integer"}}],
            "minItems": 2,
            "maxItems": 2,
        }},
    },
}


def _slices(sizes: list[int]) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    bounds = list(accumulate(sizes, initial=0))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _read_meta(zf: zipfile.ZipFile, path: str) -> dict:
    """The meta of a version-4 checkpoint, walked against
    CHECKPOINT_META_SCHEMA; a violation raises ScenarioError at its JSON
    path."""
    if f"{_META_KEY}.npy" not in zf.namelist():
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    try:
        with zf.open(f"{_META_KEY}.npy") as f:
            meta = np.lib.format.read_array(f, allow_pickle=False)
    except ValueError as e:
        raise ValueError(f"corrupt checkpoint {path}: {e}") from e
    if meta.shape != () or meta.dtype.kind != "U":
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    meta = json.loads(str(meta))
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{meta.get('version')!r}: {path}")
    return walk(meta, CHECKPOINT_META_SCHEMA, "$")


def _read_params(zf: zipfile.ZipFile, params: list[nn.Parameter], index,
                 path: str) -> None:
    """Check the walked index against `params`, then read the params
    vector into them, one parameter's bytes at a time."""
    shapes = {name: tuple(shape) for name, shape in index}
    if len(shapes) != len(index):
        names = [name for name, _ in index]
        twice = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"checkpoint index lists tensor {twice!r} twice: "
                         f"{path}")
    for p in params:
        if p.name not in shapes:
            raise ValueError(f"checkpoint missing tensor {p.name!r}")
        if shapes[p.name] != p.shape:
            raise ValueError(
                f"tensor {p.name!r}: checkpoint shape "
                f"{list(shapes[p.name])} does not match model shape "
                f"{list(p.shape)}")
    if list(shapes) != [p.name for p in params]:
        raise ValueError(f"checkpoint index does not list the model's "
                         f"tensors in order: {path}")
    if f"{_PARAMS_KEY}.npy" not in zf.namelist():
        raise ValueError(f"checkpoint missing tensor {_PARAMS_KEY!r}")
    total = sum(p.value.size for p in params)
    with zf.open(f"{_PARAMS_KEY}.npy") as f:
        try:   # save writes npy 1.0
            if np.lib.format.read_magic(f) != (1, 0):
                raise ValueError("unsupported npy format version")
            shape, _, dtype = np.lib.format.read_array_header_1_0(f)
        except ValueError as e:
            raise ValueError(f"corrupt checkpoint {path}: {e}") from e
        if dtype != np.float64:
            raise ValueError(f"tensor {_PARAMS_KEY!r}: dtype {dtype}, "
                             f"expected float64")
        if shape != (total,):
            raise ValueError(
                f"tensor {_PARAMS_KEY!r}: checkpoint shape {list(shape)} "
                f"does not match the index's [{total}]")
        for p in params:
            view = memoryview(p.value).cast("B")
            if f.readinto(view) != len(view):
                raise ValueError(f"corrupt checkpoint {path}: "
                                 f"{_PARAMS_KEY} ends early")
        if f.read(1):   # reading to the end checks the CRC as well
            raise ValueError(f"corrupt checkpoint {path}: {_PARAMS_KEY} "
                             f"runs past its header's shape")
    for p in params:
        if not np.isfinite(p.value).all():
            raise ValueError(f"tensor {p.name!r}: non-finite values")


def _config_from_json(obj: dict) -> ModelConfig:
    """The ModelConfig of a walked checkpoint config, an integer in a float
    field made a float."""
    try:
        return ModelConfig(**{f.name: type(f.default)(obj[f.name])
                              for f in fields(ModelConfig)})
    except ValueError as e:
        raise ValueError(f"checkpoint config {e}") from e


# --------------------------------------------------------------------------
# Prediction export
# --------------------------------------------------------------------------

def prediction_to_json(jp: JointPrediction,
                       dists: list[IntentionDistribution]) -> dict:
    modes = []
    for k in range(jp.trajectories.shape[0]):
        modes.append({
            "k": k,
            "p": float(jp.mode_probs[k]),
            "agents": [
                {"id": aid, "points": jp.trajectories[k, i].tolist()}
                for i, aid in enumerate(jp.agent_ids)
            ],
        })
    intentions = [
        {
            "id": aid,
            "lateral": dict(zip(LATERAL_CLASSES, d.lateral.tolist())),
            "longitudinal": dict(zip(LONGITUDINAL_CLASSES,
                                     d.longitudinal.tolist())),
        }
        for aid, d in zip(jp.agent_ids, dists)
    ]
    return {"scenario_id": jp.scenario_id, "modes": modes,
            "intentions": intentions}


# The prediction file format, as prediction_to_json writes it; other keys
# (intentions, unpredicted) are ignored. prediction_from_json enforces it
# by walking it.
PREDICTION_SCHEMA = {
    "type": "object",
    "required": ["modes"],
    "properties": {
        "scenario_id": {"type": "string"},
        "modes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["k", "p", "agents"],
                "properties": {
                    "k": {"type": "integer"},
                    "p": {"type": "number"},
                    "agents": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["id", "points"],
                            "properties": {
                                "id": {"type": "string"},
                                "points": {"type": "array", "minItems": 1,
                                           "items": _WAYPOINT_SCHEMA},
                            },
                        },
                    },
                },
            },
        },
    },
}


def prediction_from_json(doc) -> JointPrediction:
    """The prediction of a ``prediction_to_json`` document, modes in k
    order. Raises ValueError on a malformed document: one that violates
    ``PREDICTION_SCHEMA``, which ``scene.walk`` checks as it checks scene
    files (the first violation at its JSON path, every number finite and
    every k a JSON integer), repeated k, agent ids that repeat or differ
    between modes, or points whose shape differs between agents or
    modes."""
    doc = walk(doc, PREDICTION_SCHEMA, "$")
    modes = sorted(doc["modes"], key=lambda m: m["k"])
    ks = [m["k"] for m in modes]
    if len(set(ks)) != len(ks):
        raise ValueError(f"mode indices k repeat: {ks}")
    agent_ids = [a["id"] for a in modes[0]["agents"]]
    if len(set(agent_ids)) != len(agent_ids):
        raise ValueError(f"agent ids repeat: {agent_ids}")
    for m in modes[1:]:
        if [a["id"] for a in m["agents"]] != agent_ids:
            raise ValueError(f"mode k={m['k']} lists agents "
                             f"{[a['id'] for a in m['agents']]}, mode "
                             f"k={ks[0]} lists {agent_ids}")
    shape = modes[0]["agents"][0]["points"].shape
    for m in modes:
        for a in m["agents"]:
            if a["points"].shape != shape:
                raise ValueError(
                    f"points must form one [K, N, T, 2] array, but the "
                    f"points of agent {a['id']!r} in mode k={m['k']} "
                    f"differ in shape from the first agent's")
    trajs = np.array([[a["points"] for a in m["agents"]] for m in modes])
    probs = np.array([m["p"] for m in modes], dtype=np.float64)
    return JointPrediction(trajs, probs, agent_ids,
                           doc.get("scenario_id", ""))


def prediction_to_csv_rows(jp: JointPrediction) -> list[tuple]:
    """Rows of (scenario_id, agent_id, mode_k, t, x, y, p_k)."""
    rows = []
    k_count, n, t_count, _ = jp.trajectories.shape
    for k in range(k_count):
        for i, aid in enumerate(jp.agent_ids):
            for t in range(t_count):
                x, y = jp.trajectories[k, i, t]
                rows.append((jp.scenario_id, aid, k, t + 1, repr(float(x)),
                             repr(float(y)), repr(float(jp.mode_probs[k]))))
    return rows

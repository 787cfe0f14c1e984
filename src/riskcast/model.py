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
them (``ForwardResult.slices``). Row-wise layers (the LSTM, the MLPs and
heads) run once over all rows. The agent-agent encoder and the agent-map
attention take each scene's own neighbor mask [N_b, N_b] and map
visibility [N_b, P_b], never a matrix over the whole union, so a row only
ever sees its own scene's agents and polylines; a scene without a map is a
visibility block with no columns. The decoder max-pools each scene's slice
to one row of mode probabilities ([B, K]). Training runs one forward and
one backward per minibatch this way; ``predict`` is the batch of one. The
scenes of one batch must share their history length.

Checkpoints (format version 2) are uncompressed ``.npz`` archives written to
exactly the path given: one float64 array per member name plus a
``__meta__`` JSON string holding the format name, the version and the model
config. A member is a parameter, or one slice of a stacked parameter
(``nn.Parameter.names``): the decoder's ``dec.k3.0.W`` is slice 3 of the
stacked first-layer weight of its K heads. The members come in
``Module.members`` order, so the bytes depend only on the parameters and
the config, and a round trip is bit-exact. Every malformed checkpoint,
a file that is not a zip archive among them, raises ``ValueError``.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import nn
from .intention import (ClassEmbeddings, IntentionDistribution, IntentionFuser,
                        IntentionHead, JointDecoder, JointPrediction,
                        LATERAL_CLASSES, LONGITUDINAL_CLASSES)
from .interaction import (AgentAgentEncoder, AgentMapAttention,
                          HistoryEncoder, MapEncoder,
                          history_feature_matrix, map_feature_matrix,
                          map_visibility, neighbor_mask)
from .scene import Scenario, local_frame, pose_frame

CHECKPOINT_FORMAT = "riskcast-checkpoint"
CHECKPOINT_VERSION = 2
_META_KEY = "__meta__"
_ZIP_MAGIC = b"PK\x03\x04"


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
            if not (in_range and math.isfinite(value)):
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
    att_rows: np.ndarray          # [N] rows given map context
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

    def parts(self) -> list[nn.Module]:
        return [self.history, self.map_enc, self.agent_agent, self.agent_map,
                self.intention_head, self.lat_embeddings, self.lon_embeddings,
                self.fuser, self.decoder]

    # -- forward / backward over a local-frame scenario -------------------

    def forward(self, locals_: list[Scenario]) -> ForwardResult:
        """One pass over local-frame scenes of one history length, run as
        one disjoint union (see the module docstring)."""
        cfg = self.cfg
        feats = [history_feature_matrix(local) for local in locals_]
        steps = sorted({f.shape[1] for f in feats})
        if len(steps) > 1:
            raise nn.DimensionError(
                f"forward: the scenes' history lengths differ: {steps} steps")
        slices = _slices([len(f) for f in feats])
        h, hist_ctx = self.history.forward(np.concatenate(feats))
        base, aa_ctx = self.agent_agent.forward(
            h, [neighbor_mask(local, cfg.context_radius_m)
                for local in locals_])
        membeds, menc_ctx = self.map_enc.forward(np.concatenate(
            [map_feature_matrix(local.map, cfg.map_pad) for local in locals_]))
        vis = [map_visibility(local, cfg.context_radius_m)
               for local in locals_]
        fused, amap_ctx = self.agent_map.forward(base, membeds, vis)
        att_rows = np.concatenate([v.any(axis=1) for v in vis])
        features = base.copy()
        features[att_rows] += fused[att_rows]

        (lat, lon), head_ctx = self.intention_head.forward(features)
        e_lat, elat_ctx = self.lat_embeddings.forward(features, lat)
        e_lon, elon_ctx = self.lon_embeddings.forward(features, lon)
        z, fuse_ctx = self.fuser.forward(e_lat, e_lon)
        dec_in = np.concatenate([features, z], axis=1)
        pos0 = np.concatenate([local.past[:, -1, :2] for local in locals_])
        (trajs, probs), dec_ctx = self.decoder.forward(dec_in, pos0, slices)
        nn.ensure_finite(trajs, "decoded trajectories")
        return ForwardResult(trajs, probs, lat, lon, z, features, att_rows,
                             slices,
                             (hist_ctx, aa_ctx, menc_ctx, amap_ctx, head_ctx,
                              elat_ctx, elon_ctx, fuse_ctx, dec_ctx))

    def backward(self, res: ForwardResult, dtrajs: np.ndarray,
                 dprobs: np.ndarray, dlat: np.ndarray,
                 dlon: np.ndarray) -> None:
        """Accumulate the parameter gradients of the losses' gradients with
        respect to the forward's outputs, laid out as they are: dtrajs
        [K, N, T, 2], dprobs [B, K], dlat and dlon [N, 3]."""
        (hist_ctx, aa_ctx, menc_ctx, amap_ctx, head_ctx, elat_ctx, elon_ctx,
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

        g_op = np.zeros_like(dfeat)
        g_op[res.att_rows] = dfeat[res.att_rows]
        dbase, dmap = self.agent_map.backward(amap_ctx, g_op)
        self.map_enc.backward(menc_ctx, dmap)
        dh = self.agent_agent.backward(aa_ctx, dfeat + dbase)
        self.history.backward(hist_ctx, dh)

    # -- inference ---------------------------------------------------------

    def prepare(self, scn: Scenario) -> Scenario:
        return local_frame(scn, scn.ego_id, self.cfg.context_radius_m)

    def predict(self, scn: Scenario
                ) -> tuple[JointPrediction, list[IntentionDistribution]]:
        """Run the model on a global-frame scenario; trajectories come back
        in global coordinates."""
        # the forward pass reads only the past, so the futures stay behind
        local = self.prepare(replace(
            scn, has_future=np.zeros_like(scn.has_future)))
        frame = pose_frame(scn, scn.ego_id)
        res = self.forward([local])
        k, n, t, _ = res.trajectories.shape
        flat = res.trajectories.reshape(-1, 2)
        global_trajs = frame.to_global(flat).reshape(k, n, t, 2)
        jp = JointPrediction(global_trajs, res.mode_probs[0],
                             local.agent_ids.tolist(), scn.scenario_id)
        dists = [IntentionDistribution(res.lat_probs[i], res.lon_probs[i])
                 for i in range(n)]
        return jp, dists

    # -- checkpointing -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write a version-2 checkpoint to exactly `path`."""
        meta = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                "config": asdict(self.cfg)}
        arrays = {name: value for name, value, _ in self.members()}
        arrays[_META_KEY] = np.array(
            json.dumps(meta, sort_keys=True, allow_nan=False))
        # through a handle: given a name, np.savez would append ".npz"
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @classmethod
    def load(cls, path: str) -> "JointPredictor":
        """Read a version-2 checkpoint, filling each member by its name."""
        with open(path, "rb") as f:
            if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
            f.seek(0)
            config, tensors = _read_npz(f, path)
        model = cls(_config_from_json(config))
        for name, value, _ in model.members():
            saved = tensors.get(name)
            if saved is None:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            if saved.shape != value.shape:
                raise ValueError(
                    f"tensor {name!r}: checkpoint shape "
                    f"{list(saved.shape)} does not match model shape "
                    f"{list(value.shape)}")
            if saved.dtype != np.float64:
                raise ValueError(f"tensor {name!r}: dtype {saved.dtype}, "
                                 f"expected float64")
            if not np.isfinite(saved).all():
                raise ValueError(f"tensor {name!r}: non-finite values")
            value[...] = saved
        return model


def _slices(sizes: list[int]) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    bounds = np.cumsum([0] + sizes).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _read_npz(f, path: str) -> tuple[object, dict[str, np.ndarray]]:
    """Config and tensors of a version-2 checkpoint."""
    try:
        with np.load(f, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as e:
        raise ValueError(f"corrupt checkpoint {path}: {e}") from e
    meta = arrays.pop(_META_KEY, None)
    if meta is None or meta.shape != () or meta.dtype.kind != "U":
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    meta = json.loads(str(meta))
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{meta.get('version')!r}: {path}")
    return meta.get("config"), arrays


def _config_from_json(obj) -> ModelConfig:
    """A ModelConfig from a checkpoint's config object: every field and no
    other, integer fields as JSON integers, float fields finite, and the
    values in the ranges ModelConfig checks."""
    if not isinstance(obj, dict):
        raise ValueError("checkpoint config is not an object")
    names = {f.name: type(f.default) for f in fields(ModelConfig)}
    missing = sorted(set(names) - set(obj))
    unknown = sorted(set(obj) - set(names))
    if missing or unknown:
        raise ValueError(f"checkpoint config: missing keys {missing}, "
                         f"unknown keys {unknown}")
    values = {}
    for name, value in obj.items():
        want = names[name]
        if not (type(value) is int or (want is float and type(value) is float
                                       and math.isfinite(value))):
            raise ValueError(f"checkpoint config {name}: {value!r} is not "
                             f"a finite {want.__name__}")
        values[name] = want(value)
    try:
        return ModelConfig(**values)
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


def prediction_from_json(doc) -> JointPrediction:
    """The prediction of a ``prediction_to_json`` document, modes in k
    order. Raises ValueError on a malformed document: modes missing or
    empty, a mode without an integer k, a p or a non-empty agents array,
    repeated k, agent ids that repeat or differ between modes, points that
    do not form one [K, N, T, 2] array of finite numbers with T >= 1, or a
    non-finite p."""
    if not isinstance(doc, dict):
        raise ValueError("a prediction must be a JSON object")
    if not isinstance(doc.get("scenario_id", ""), str):
        raise ValueError("scenario_id must be a string")
    modes = doc.get("modes")
    if not isinstance(modes, list) or not modes:
        raise ValueError("'modes' must be a non-empty array")
    for i, m in enumerate(modes):
        if not (isinstance(m, dict) and type(m.get("k")) is int
                and "p" in m and isinstance(m.get("agents"), list)
                and m["agents"]
                and all(isinstance(a, dict) and isinstance(a.get("id"), str)
                        and "points" in a for a in m["agents"])):
            raise ValueError(
                f"modes[{i}] needs an integer k, a p and a non-empty agents "
                f"array of objects with a string id and points")
    modes = sorted(modes, key=lambda m: m["k"])
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
    try:
        trajs = np.array([[a["points"] for a in m["agents"]] for m in modes],
                         dtype=np.float64)
        probs = np.array([m["p"] for m in modes], dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"points and p must be numbers: {e}") from e
    if trajs.ndim != 4 or trajs.shape[2] < 1 or trajs.shape[3] != 2:
        raise ValueError(f"points must form one [K, N, T, 2] array with "
                         f"T >= 1, got shape {list(trajs.shape)}")
    if not np.isfinite(trajs).all():
        raise ValueError("non-finite trajectory point")
    if probs.ndim != 1 or not np.isfinite(probs).all():
        raise ValueError(f"every p must be a finite number, got "
                         f"{[m['p'] for m in modes]}")
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

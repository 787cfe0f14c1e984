"""End-to-end joint predictor: interaction encoding, intention heads,
intention-feature fusion, and the multi-modal joint decoder, with manual
backward wiring and JSON checkpointing.

The model operates in the ego's local frame (scene recentered on the ego's
current pose, out-of-radius elements dropped); predictions are mapped back
to global coordinates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .intention import (ClassEmbeddings, IntentionDistribution, IntentionFuser,
                        IntentionHead, JointDecoder, JointPrediction,
                        LATERAL_CLASSES, LONGITUDINAL_CLASSES,
                        predict_intention)
from .interaction import (AgentAgentEncoder, AgentMapAttention,
                          HistoryEncoder, InteractionConfig, MapEncoder,
                          history_feature_matrix, map_feature_matrix,
                          map_visibility, neighbor_mask)
from .scene import Scenario, local_frame, pose_frame

CHECKPOINT_FORMAT = "riskcast-checkpoint"
CHECKPOINT_VERSION = 1


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

    def interaction(self) -> InteractionConfig:
        return InteractionConfig(self.embed_dim, self.attention_heads,
                                 self.context_radius_m,
                                 self.transformer_layers, self.ff_mult,
                                 self.map_pad)


@dataclass
class ForwardResult:
    """Everything the losses and the backward pass need from one forward."""
    trajectories: np.ndarray      # [K, N, T, 2] in the local frame
    mode_probs: np.ndarray        # [K]
    lat_probs: np.ndarray         # [N, 3]
    lon_probs: np.ndarray         # [N, 3]
    intention_feature: np.ndarray  # [N, D]
    features: np.ndarray          # [N, D] fused interaction features
    map_count: int
    att_rows: np.ndarray | None


class JointPredictor(nn.Module):
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        icfg = cfg.interaction()
        rng = nn.seeded_rng(cfg.init_seed)
        d = cfg.embed_dim
        self.history = HistoryEncoder(icfg, rng, name="hist")
        self.map_enc = MapEncoder(icfg, rng, name="map")
        self.agent_agent = AgentAgentEncoder(icfg, rng, name="aa")
        self.agent_map = AgentMapAttention(icfg, rng, name="amap")
        self.intention_head = IntentionHead(d, rng, name="int")
        self.lat_embeddings = ClassEmbeddings(d, len(LATERAL_CLASSES), rng,
                                              name="emb.lat")
        self.lon_embeddings = ClassEmbeddings(d, len(LONGITUDINAL_CLASSES),
                                              rng, name="emb.lon")
        self.fuser = IntentionFuser(d, rng, name="fuse")
        self.decoder = JointDecoder(d, cfg.n_modes, cfg.future_steps, rng,
                                    name="dec")
        self._modules = [self.history, self.map_enc, self.agent_agent,
                         self.agent_map, self.intention_head,
                         self.lat_embeddings, self.lon_embeddings,
                         self.fuser, self.decoder]

    def params(self) -> list[nn.Parameter]:
        return [p for m in self._modules for p in m.params()]

    # -- forward / backward over a local-frame scenario -------------------

    def forward(self, local: Scenario) -> ForwardResult:
        cfg = self.cfg
        feats = history_feature_matrix(local)
        h = self.history.forward(feats)
        mask = neighbor_mask(local, cfg.context_radius_m)
        base = self.agent_agent.forward(h, mask)

        att_rows = None
        features = base
        if local.map:
            membeds = self.map_enc.forward(
                map_feature_matrix(local.map, cfg.map_pad))
            vis = map_visibility(local, cfg.context_radius_m)
            fused = self.agent_map.forward(base, membeds, vis)
            att_rows = vis.any(axis=1)
            features = base.copy()
            features[att_rows] += fused[att_rows]

        lat, lon = self.intention_head.forward(features)
        e_lat = self.lat_embeddings.forward(features, lat)
        e_lon = self.lon_embeddings.forward(features, lon)
        z = self.fuser.forward(e_lat, e_lon)
        dec_in = np.concatenate([features, z], axis=1)
        pos0 = np.array([a.current.position for a in local.agents])
        trajs, probs = self.decoder.forward(dec_in, pos0)
        nn.ensure_finite(trajs, "decoded trajectories")
        return ForwardResult(trajs, probs, lat, lon, z, features,
                             len(local.map), att_rows)

    def backward(self, res: ForwardResult, dtrajs: np.ndarray,
                 dprobs: np.ndarray, dlat: np.ndarray,
                 dlon: np.ndarray) -> None:
        d = self.cfg.embed_dim
        ddec_in = self.decoder.backward(dtrajs, dprobs)
        dfeat = ddec_in[:, :d].copy()
        dz = ddec_in[:, d:]
        de_lat, de_lon = self.fuser.backward(dz)
        df, dlon_emb = self.lon_embeddings.backward(de_lon)
        dfeat += df
        df, dlat_emb = self.lat_embeddings.backward(de_lat)
        dfeat += df
        dfeat += self.intention_head.backward(dlat + dlat_emb,
                                              dlon + dlon_emb)

        if res.map_count > 0:
            g_op = np.zeros_like(dfeat)
            g_op[res.att_rows] = dfeat[res.att_rows]
            dbase_att, dmap = self.agent_map.backward(g_op)
            self.map_enc.backward(dmap)
            dbase = dfeat + dbase_att
        else:
            dbase = dfeat
        dh = self.agent_agent.backward(dbase)
        self.history.backward(dh)

    # -- inference ---------------------------------------------------------

    def prepare(self, scn: Scenario) -> Scenario:
        return local_frame(scn, scn.ego.agent_id, self.cfg.context_radius_m)

    def predict(self, scn: Scenario
                ) -> tuple[JointPrediction, list[IntentionDistribution]]:
        """Run the model on a global-frame scenario; trajectories come back
        in global coordinates."""
        local = self.prepare(scn)
        frame = pose_frame(scn, scn.ego.agent_id)
        res = self.forward(local)
        k, n, t, _ = res.trajectories.shape
        flat = res.trajectories.reshape(-1, 2)
        global_trajs = frame.to_global(flat).reshape(k, n, t, 2)
        jp = JointPrediction(global_trajs, res.mode_probs,
                             [a.agent_id for a in local.agents],
                             scn.scenario_id)
        dists = [IntentionDistribution(res.lat_probs[i], res.lon_probs[i])
                 for i in range(n)]
        self.clear_cache()
        return jp, dists

    # -- checkpointing -----------------------------------------------------

    def save(self, path: str) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "tensors": {
                p.name: {"shape": list(p.shape),
                         "data": p.value.reshape(-1).tolist()}
                for p in self.params()
            },
        }
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "JointPredictor":
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version "
                             f"{doc.get('version')}")
        model = cls(ModelConfig(**doc["config"]))
        tensors = doc["tensors"]
        for p in model.params():
            entry = tensors.get(p.name)
            if entry is None:
                raise ValueError(f"checkpoint missing tensor {p.name!r}")
            if tuple(entry["shape"]) != p.shape:
                raise ValueError(
                    f"tensor {p.name!r}: checkpoint shape {entry['shape']} "
                    f"does not match model shape {list(p.shape)}")
            p.value[...] = np.array(entry["data"]).reshape(p.shape)
        return model


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


def prediction_from_json(doc: dict) -> JointPrediction:
    modes = sorted(doc["modes"], key=lambda m: m["k"])
    agent_ids = [a["id"] for a in modes[0]["agents"]]
    trajs = np.array([[a["points"] for a in m["agents"]] for m in modes])
    probs = np.array([m["p"] for m in modes])
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

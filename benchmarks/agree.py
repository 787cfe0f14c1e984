"""Agreement of two riskcast source trees on a fixed scene set: whether a
change keeps the numbers of its parent.

    python benchmarks/agree.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``riskcast``
package (a checkout's ``src``). Both trees load in one process, under the
package names ``parent`` and ``change``. The parent generates the scenes,
every template x N in {3, 8, 16} x seeds 0, 1, 2, and its seeded,
untrained model predicts each; a mode of the agents' ground-truth futures,
which holds the scene's close encounters, is added to every prediction.
Both trees then read the same scenes and predictions, handed over as scene
and prediction JSON. The script prints how many scenes both trees rank in
the same mode order, and the worst relative gap over the scenes, by norm
(0 where the values are bit-identical), of

- each tree's own model prediction,
- the prediction each tree's `prediction_from_json` parses from the same
  document: its trajectories, mode_probs, agent_ids and scenario_id,
- every `RiskReport` field of every mode,
- `risk_loss_and_grad` of every mode: its loss and its gradient,
- a 3-epoch `train()` on the scenes, stage 2 from epoch 2: the
  reported per-epoch losses and ADE/FDE, and the final weights, per
  parameter,
- the checkpoint the parent saves of its trained model, loaded by each
  tree: the weights, per parameter, and the config.

It exits 1 when an order differs or a gap exceeds RTOL.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

# the agreement a change that keeps the numbers must show
RTOL = 1e-12


def load_tree(src: str, name: str):
    """The riskcast package under src, imported as the package `name`,
    afresh: a package loaded earlier under that name is dropped first."""
    for key in [k for k in sys.modules
                if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]
    init = Path(src, "riskcast", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("scene", "model", "risk", "training", "evaluation"):
        importlib.import_module(f"{name}.{module}")
    return package


def gap(got, want) -> float:
    """|got - want| / |want| by norm; 0 where the two are bit-identical, inf
    where their shapes or their non-numeric values differ."""
    try:
        got, want = (np.asarray(v, dtype=np.float64) for v in (got, want))
    except ValueError:             # agent ids and names
        return 0.0 if got == want else math.inf
    if got.shape != want.shape:
        return math.inf
    if got.tobytes() == want.tobytes():
        return 0.0
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / scale) if scale else math.inf


def with_truth_mode(jp, scn):
    """The prediction plus one mode of the agents' ground-truth futures."""
    truth = np.array([scn.future[scn.row(aid), :, :2]
                      for aid in jp.agent_ids])
    return replace(jp, trajectories=np.concatenate(
        [jp.trajectories, truth[None]]), mode_probs=np.append(
            jp.mode_probs, 0.5) / 1.5)


def risk_loss(tree, trajs, k, scn):
    """`risk_loss_and_grad` of mode k of the scene, by the tree's
    signature: one mode of one scene, or a union's modes and scenes."""
    fn, cfg = tree.risk.risk_loss_and_grad, tree.risk.RiskConfig()
    if "modes" not in inspect.signature(fn).parameters:
        return fn(trajs[k], scn, cfg)
    losses, grad = fn(trajs, [scn], np.array([k]), cfg)
    return losses[0], grad


def compare(parent_src: str, change_src: str, agents=(3, 8, 16),
            seeds=(0, 1, 2)) -> tuple[int, int, dict[str, float]]:
    """(scenes ranked in the same order, scenes, worst gap by quantity) of
    the change against the parent."""
    a, b = load_tree(parent_src, "parent"), load_tree(change_src, "change")
    gaps: dict[str, float] = {}

    def note(name, got, want):
        gaps[name] = max(gaps.get(name, 0.0), gap(got, want))

    model_a = a.model.JointPredictor(a.model.ModelConfig())
    model_b = b.model.JointPredictor(b.model.ModelConfig())
    texts, same_order = [], 0
    for template, n, seed in itertools.product(a.scene.TEMPLATES, agents,
                                               seeds):
        texts.append(a.scene.dump_scenario(
            a.scene.generate_scenario(template, n, seed)))
        scn_a, scn_b = (t.scene.load_scenario(texts[-1]) for t in (a, b))
        jp, _ = model_a.predict(scn_a)
        note("prediction", model_b.predict(scn_b)[0].trajectories,
             jp.trajectories)
        doc = json.dumps(a.model.prediction_to_json(
            with_truth_mode(jp, scn_a), []))
        jp_a, jp_b = (t.model.prediction_from_json(json.loads(doc))
                      for t in (a, b))
        for name in ("trajectories", "mode_probs", "agent_ids",
                     "scenario_id"):
            note("parsed prediction", getattr(jp_b, name),
                 getattr(jp_a, name))
        order_a, reports_a = a.risk.rank_trajectories(jp_a, scn_a)
        order_b, reports_b = b.risk.rank_trajectories(jp_b, scn_b)
        same_order += order_a == order_b
        for ra, rb in zip(reports_a, reports_b):
            for f in fields(ra):
                note(f"RiskReport.{f.name}", getattr(rb, f.name),
                     getattr(ra, f.name))
        pred_a, pred_b = (s.take(s.prediction_rows(jp_a.agent_ids))
                          for s in (scn_a, scn_b))
        for k in range(len(jp_a.mode_probs)):
            loss_a, grad_a = risk_loss(a, jp_a.trajectories, k, pred_a)
            loss_b, grad_b = risk_loss(b, jp_b.trajectories, k, pred_b)
            note("risk loss", loss_b, loss_a)
            note("risk gradient", grad_b, grad_a)

    runs = []
    for t in (a, b):
        runs.append(t.training.train(
            [t.scene.load_scenario(text) for text in texts],
            t.model.ModelConfig(embed_dim=16),
            t.training.TrainConfig(epochs=3, stage1_epochs=1,
                                   batch_size=8)))
    (model_a, report_a), (model_b, report_b) = runs
    for name in ("l_pre", "l_man", "l_risk", "l_total", "val_ade",
                 "val_fde"):
        note(f"train {name}", getattr(report_b, name),
             getattr(report_a, name))
    for pa, pb in zip(model_a.params(), model_b.params(), strict=True):
        note("train weights", pb.value, pa.value)
        note("train weight names", pb.name, pa.name)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        model_a.save(path)
        loaded_a, loaded_b = (t.model.JointPredictor.load(path)
                              for t in (a, b))
    for pa, pb in zip(loaded_a.params(), loaded_b.params(), strict=True):
        note("loaded checkpoint", pb.value, pa.value)
        note("loaded checkpoint", pb.name, pa.name)
    note("loaded checkpoint", repr(loaded_b.cfg), repr(loaded_a.cfg))
    return same_order, len(texts), gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    same, count, gaps = compare(args.parent_src, args.change_src)
    print(f"rank orders equal: {same}/{count}")
    for name, value in gaps.items():
        print(f"{name:28s} {value:.3g}")
    return 0 if same == count and max(gaps.values()) <= RTOL else 1


if __name__ == "__main__":
    sys.exit(main())

"""Build the checkpoint that the benchmark's plan and eval stages use.

    python3 perfbench/prepare.py OUT_PATH

A short, seeded ``train()`` on a five-template mix whose generator seeds
(2**30 and up) are disjoint from every measured scene (below 2**30). It runs
in its own process so that its memory does not count in the measured
process's peak RSS. The result depends only on the riskcast sources.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PREP_SEED_BASE = 2 ** 30
PREP_SCENES = 60
PREP_EPOCHS = 8
PREP_STAGE1_EPOCHS = 6
PREP_LR = 1e-3
TEMPLATES = ("straight", "left_turn", "right_turn", "merge",
             "crossing_conflict")


def build(out_path: str) -> None:
    from riskcast.model import ModelConfig
    from riskcast.scene import generate_scenario
    from riskcast.training import TrainConfig, train

    scenes = [generate_scenario(TEMPLATES[i % len(TEMPLATES)], 3 + i % 6,
                                PREP_SEED_BASE + i)
              for i in range(PREP_SCENES)]
    cfg = TrainConfig(epochs=PREP_EPOCHS, stage1_epochs=PREP_STAGE1_EPOCHS,
                      lr=PREP_LR, seed=0)
    model, _ = train(scenes, ModelConfig(), cfg)
    tmp = f"{out_path}.tmp{os.getpid()}"
    model.save(tmp)
    os.replace(tmp, out_path)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: prepare.py OUT_PATH")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    build(sys.argv[1])

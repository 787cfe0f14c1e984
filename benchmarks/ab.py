"""Paired timing of two riskcast source trees in one process: how much
faster or slower a change is than its parent, case by case.

    python benchmarks/ab.py PARENT_SRC CHANGE_SRC [--rounds R] [--json PATH]

PARENT_SRC and CHANGE_SRC are directories that hold the ``riskcast``
package (a checkout's ``src``). Both trees load in one process, under the
package names ``parent`` and ``change`` (``agree.load_tree``), so the
machine's speed, which swings by up to about 1.5x between processes, is
the same for both. Each case is set up once per side, then timed in ABBA
rounds: the parent first in even rounds and the change first in odd ones,
each side making the case's fixed number of calls. The cases are

- ``evaluate``: one perfbench eval call, `evaluate` with the model's
  `predict` over 4 N=16 scenes of the normal templates;
- ``predict+rank N3|N8|N16``: `predict` then `rank_trajectories` of the
  fixed `merge` scene (seed 3); ``predict N*`` and ``rank N*`` time each
  half alone, the ranking of a prediction made once at set-up;
- ``train stage1|stage2``: a perfbench-sized `train()` call, six scenes of
  the five templates with N from 3 to 8, one epoch in that stage, with its
  checkpoint writes;
- ``minibatch stage1|stage2``: one `training._union_losses` call (forward,
  losses and backward) over the 32-scene minibatch of
  ``test_model_bench.test_minibatch_union``, the five templates in turn
  with N from 3 to 8, in that stage;
- ``speed``: `perfbench.speed.reading`, which uses nothing from riskcast,
  so its ratio shows the machine's own swing between the sides.

Models are seeded and untrained (the default config). Each side reads the
same scenes, handed over as scene JSON. For each case the script prints
the median of the per-round change/parent time ratios, their quartiles, a
95% interval for that median, and in how many rounds the change was
faster. The interval is the sign test's: the order statistics r_(k) and
r_(n+1-k) of the n sorted ratios, for the largest k at which
P(Binomial(n, 1/2) < k) <= 2.5%, so it holds the true median with a
probability of at least 95% whatever the ratios' distribution. Below six
rounds no k qualifies, and the interval is the ratios' whole range.

Each case's calls per call are counted on each side, in one more untimed
call: the Python-level and builtin calls it makes, as ``sys.setprofile``
sees them ("call" and "c_call" events; a ufunc called through an operator
is not counted). Most of a small case's time is such fixed costs, so the
counts show where a change cut them. With ``--json PATH`` the script also
writes the rows it prints, the call counts among them, with the rounds and
the environment (Python, numpy, CPU count) to PATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from agree import load_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import speed  # noqa: E402

EVAL_TEMPLATES = ("straight", "left_turn", "right_turn", "merge")


def cases(tree, texts: dict, out_dir: str) -> dict:
    """{case: (calls per round, the call)} of one tree."""
    load = tree.scene.load_scenario
    model = tree.model.JointPredictor(tree.model.ModelConfig())
    out = {}
    evals = [load(t) for t in texts["eval"]]
    out["evaluate"] = (4, lambda: tree.evaluation.evaluate(
        lambda s: model.predict(s)[0], evals))
    for n, text in texts["plan"].items():
        scn = load(text)

        def plan(scn=scn):
            return tree.risk.rank_trajectories(model.predict(scn)[0], scn)
        out[f"predict+rank N{n}"] = (16, plan)
        out[f"predict N{n}"] = (16, lambda scn=scn: model.predict(scn))
        out[f"rank N{n}"] = (16, lambda scn=scn, jp=model.predict(scn)[0]:
                             tree.risk.rank_trajectories(jp, scn))
    trains = [load(t) for t in texts["train"]]
    for name, stage1 in (("stage1", 1), ("stage2", 0)):
        cfg = tree.training.TrainConfig(epochs=1, stage1_epochs=stage1,
                                        seed=0)
        out[f"train {name}"] = (3, lambda cfg=cfg: tree.training.train(
            trains, tree.model.ModelConfig(), cfg, out_dir=out_dir))
    union = [tree.training._TrainScene.of(model.prepare(load(t)))
             for t in texts["minibatch"]]
    for name, epoch in (("stage1", 1), ("stage2", 2)):
        cfg = tree.training.TrainConfig(epochs=2, stage1_epochs=1)

        def step(epoch=epoch, cfg=cfg):
            model.zero_grad()
            return tree.training._union_losses(model, union, epoch, cfg)
        out[f"minibatch {name}"] = (2, step)
    out["speed"] = (16, speed.reading)
    return out


def scene_texts(tree) -> dict:
    """The scenes of every case, as scene JSON from `tree`'s generator."""
    gen, dump = tree.scene.generate_scenario, tree.scene.dump_scenario
    templates = tree.scene.TEMPLATES
    return {
        "eval": [dump(gen(EVAL_TEMPLATES[i % 4], 16, seed=i))
                 for i in range(4)],
        "plan": {n: dump(gen("merge", n, seed=3)) for n in (3, 8, 16)},
        "train": [dump(gen(templates[i % len(templates)], 3 + i % 6,
                           seed=i)) for i in range(6)],
        "minibatch": [dump(gen(templates[i % len(templates)], 3 + i % 6,
                               seed=i)) for i in range(32)],
    }


def timed(calls: int, fn) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t0


def count_calls(fn) -> int:
    """The Python-level and builtin calls that one call of fn makes, as
    sys.setprofile's "call" and "c_call" events count them."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def environment() -> str:
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"{os.cpu_count()} CPUs")


def median_interval(values: np.ndarray) -> tuple[float, float]:
    """The sign test's 95% interval for the median of the values (see the
    module docstring); their whole range below six values."""
    x = np.sort(values)
    n = len(x)
    # the largest k with P(Binomial(n, 1/2) < k) <= 2.5%, in whole numbers:
    # 40 (C(n, 0) + ... + C(n, k - 1)) <= 2^n
    k, count = 0, 0
    while 40 * (count + math.comb(n, k)) <= 2 ** n:
        count += math.comb(n, k)
        k += 1
    k = max(k, 1)
    return float(x[k - 1]), float(x[n - k])


def compare(parent_src: str, change_src: str, rounds: int
            ) -> dict[str, dict]:
    """{case: {"ratio", "q1", "q3", "lo", "hi", "wins", "rounds",
    "parent_ms", "change_ms", "parent_calls", "change_calls"}}: the median
    change/parent ratio of the rounds, its quartiles and its 95% interval,
    the rounds the change won, each side's median time of one call in ms
    and the calls one call makes on each side (`count_calls`)."""
    a, b = load_tree(parent_src, "parent"), load_tree(change_src, "change")
    texts = scene_texts(a)
    with tempfile.TemporaryDirectory() as dir_a, \
            tempfile.TemporaryDirectory() as dir_b:
        sides = (cases(a, texts, dir_a), cases(b, texts, dir_b))
        for side in sides:               # warm-up, untimed
            for _, fn in side.values():
                fn()
        counts = {name: [count_calls(side[name][1]) for side in sides]
                  for name in sides[0]}
        times = {name: ([], []) for name in sides[0]}
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name, (ta, tb) in times.items():
                for s in order:
                    calls, fn = sides[s][name]
                    (ta, tb)[s].append(timed(calls, fn) / calls)
    out = {}
    for name, (ta, tb) in times.items():
        ta, tb = np.array(ta), np.array(tb)
        q1, ratio, q3 = np.percentile(tb / ta, [25, 50, 75])
        lo, hi = median_interval(tb / ta)
        out[name] = {"ratio": float(ratio), "q1": float(q1),
                     "q3": float(q3), "lo": lo, "hi": hi,
                     "wins": int((tb < ta).sum()),
                     "rounds": rounds,
                     "parent_ms": float(np.median(ta)) * 1e3,
                     "change_ms": float(np.median(tb)) * 1e3,
                     "parent_calls": counts[name][0],
                     "change_calls": counts[name][1]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the rows and the environment here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    rows = compare(args.parent_src, args.change_src, args.rounds)
    print(environment())
    print(f"{'case':20s} {'parent ms':>10s} {'change ms':>10s} "
          f"{'ratio':>6s} {'IQR':>13s} {'95% interval':>13s} {'wins':>7s} "
          f"{'parent calls':>12s} {'change calls':>12s}")
    for name, r in rows.items():
        print(f"{name:20s} {r['parent_ms']:10.3f} {r['change_ms']:10.3f} "
              f"{r['ratio']:6.3f} {r['q1']:6.3f}-{r['q3']:6.3f} "
              f"{r['lo']:6.3f}-{r['hi']:6.3f} "
              f"{r['wins']:3d}/{r['rounds']:<3d} "
              f"{r['parent_calls']:12d} {r['change_calls']:12d}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"environment": environment(), "rounds": args.rounds,
                       "cases": rows}, f, indent=1)
            f.write("\n")
    return 0 if all(math.isfinite(r["ratio"]) for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

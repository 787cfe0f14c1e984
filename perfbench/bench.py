"""Workloads, stages, metrics and output checks of the riskcast benchmark.

Every run drives the public riskcast API from one thread, as a closed loop
with one caller: each operation starts when the previous one has returned.
Its scenes come from ``--seed``; the workload chooses the plan scenes.

Untimed preparation generates the scenes with ``generate_scenario``, writes
them with ``dump_scenario`` and builds the checkpoint (see prepare.py).
Timed set-up reads every scene file back with ``load_scenario`` and loads
the checkpoint with ``JointPredictor.load``; it runs Sizes.setup_repeats
times and setup_s is the median. Then three stages run, interleaved so that
each spreads over the whole run and a slow spell of a shared machine hits
all of them alike:

plan   one ``predict`` then one ``rank_trajectories`` per scene, with N
       cycling over (3, 8, 16), until every N has Sizes.plan_min_per_n
       completed scenes; the scene list wraps around. A scene that raises
       is counted as failed, by exception type, and left out of the
       latency samples.
eval   ``evaluate(predict_fn, batch)`` over batches of N=16 scenes of the
       four non-conflict templates.
train  ``train()`` calls on all five templates with N in 3..8, writing
       checkpoints every epoch: some with every epoch in stage 1, some with
       every epoch in stage 2 (risk term on).

Every timed operation is bracketed by reference-kernel readings, and every
end-to-end time and rate is scaled by the readings around it (see
speed.py), so that fast and slow stretches of the machine read alike. The
raw wall-time metrics are printed before the result.

Every run reports every metric, because it executes all three stages.
The completed work is fixed by ``Sizes``: the same number of completed plan
scenes of every N, evaluate() calls and train() calls. The number of plan
attempts is not: it grows with the share of plan scenes that fail, and so
does the number of ``predict`` calls. ``predict`` leaves the attention
caches of its sub-modules filled, so peak_rss_mb grows with the number of
``predict`` calls, and on the conflict workload it follows the failure
count.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy

import riskcast.evaluation as evaluation
import riskcast.risk as risk
import riskcast.scene as scene
import riskcast.training as training
from riskcast.model import JointPredictor, ModelConfig

from .speed import NOMINAL_S, Meter
from .tracing import Tracer, installed_wrappers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

NORMAL = ("straight", "left_turn", "right_turn", "merge")
# The workloads differ only in the plan scenes: (templates, scene count).
# The context radius drops an agent from about half of the
# crossing_conflict scenes and planning those fails, so that workload gets
# more scenes, so that fewer are planned twice. Eval and train scenes do not
# depend on the workload.
WORKLOADS = {
    "conflict": (("crossing_conflict",), 36),
    "normal": (NORMAL, 24),
}
EVAL_TEMPLATES = NORMAL
TRAIN_TEMPLATES = NORMAL + ("crossing_conflict",)
PLAN_N = (3, 8, 16)
EVAL_N = (16,)
TRAIN_N = (3, 4, 5, 6, 7, 8)
DIGEST_PLAN_SCENES = 12
REL_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """The completed work of one run. It is fixed, not timed, so that both
    sides of a comparison complete the same work."""
    # plan_ms_tail is the highest percentile with tail_beyond completed
    # scenes beyond it: with plan_min_per_n completions of every N it is
    # the (tail_beyond + 1)-th slowest of 3 * plan_min_per_n samples.
    tail_beyond: int = 10
    plan_min_per_n: int = 8
    plan_scenes: int = 0   # 0: the workload's scene count
    setup_repeats: int = 3
    eval_scenes: int = 24
    eval_batch: int = 4
    eval_rounds: int = 2
    train_scenes: int = 6
    train_s1_epochs: int = 1
    train_s2_epochs: int = 1
    train_s1_calls: int = 3
    train_s2_calls: int = 3


class BenchError(RuntimeError):
    """The run cannot produce its metrics."""


@dataclass
class Context:
    """What the stages share: the speed meter, the optional tracer and the
    output checks."""
    meter: Meter
    tracer: Tracer | None = None
    problems: list[str] = field(default_factory=list)
    digest: dict = field(default_factory=dict)

    def begin(self, stage: str) -> None:
        if self.tracer is not None:
            self.tracer.stage = stage
            self.tracer.op += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


# --------------------------------------------------------------------------
# Preparation and set-up
# --------------------------------------------------------------------------

def checkpoint_path() -> str:
    """Cache path of the prepared checkpoint, keyed by the package sources
    and the preparation script."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "riskcast", "**",
                                          "*.py"), recursive=True))
    for path in files + [os.path.join(HERE, "prepare.py")]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return os.path.join(WORK_ROOT, f"checkpoint-{h.hexdigest()[:16]}.json")


def ensure_checkpoint() -> str:
    path = checkpoint_path()
    if not os.path.exists(path):
        os.makedirs(WORK_ROOT, exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                        path], check=True, timeout=800, stdout=sys.stderr)
    return path


def make_scenes(workload: str, seed: int, sizes: Sizes
                ) -> dict[str, list]:
    """Scenes of every stage; generator seeds lie below 2**30."""
    templates, plan_scenes = WORKLOADS[workload]
    if sizes.plan_scenes:
        plan_scenes = sizes.plan_scenes
    stages = {"plan": (templates, plan_scenes, PLAN_N),
              "eval": (EVAL_TEMPLATES, sizes.eval_scenes, EVAL_N),
              "train": (TRAIN_TEMPLATES, sizes.train_scenes, TRAIN_N)}
    out = {}
    for k, (stage, (templates, count, ns)) in enumerate(stages.items()):
        seeds = np.random.default_rng([seed, k]).integers(0, 2 ** 30, count)
        out[stage] = [
            scene.generate_scenario(templates[i % len(templates)],
                                    ns[i % len(ns)], int(s))
            for i, s in enumerate(seeds)]
    return out


def write_scenes(scenes: dict[str, list], run_dir: str
                 ) -> dict[str, list[str]]:
    paths = {}
    for stage, items in scenes.items():
        paths[stage] = []
        for i, scn in enumerate(items):
            path = os.path.join(run_dir, f"{stage}_{i:03d}.json")
            with open(path, "w") as f:
                f.write(scene.dump_scenario(scn))
            paths[stage].append(path)
    return paths


def _load_all(ctx: Context, paths: dict[str, list[str]], ckpt: str):
    scenes = {}
    for stage, files in paths.items():
        scenes[stage] = []
        for path in files:
            ctx.begin("setup")
            with open(path) as f:
                scenes[stage].append(scene.load_scenario(f.read()))
    ctx.begin("setup")
    model = JointPredictor.load(ckpt)
    return scenes, model


def repeated_setup(ctx: Context, paths: dict[str, list[str]], ckpt: str,
                   repeats: int):
    """Timed set-up, several times: read back every scene file and load the
    checkpoint. Returns the timed span of each set-up and the objects of
    the last one."""
    spans = []
    for _ in range(repeats):
        (scenes, model), span = ctx.meter.time(_load_all, ctx, paths, ckpt)
        spans.append(span)
    return spans, scenes, model


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def check_prediction(ctx: Context, jp, where: str) -> None:
    ctx.check(bool(np.isfinite(jp.trajectories).all()),
              f"{where}: non-finite trajectory")
    probs = np.asarray(jp.mode_probs)
    ctx.check(bool((probs >= 0).all()) and abs(probs.sum() - 1.0) < 1e-9,
              f"{where}: mode probabilities do not sum to 1")


def check_ranking(ctx: Context, order, reports, n_modes: int, cfg,
                  where: str) -> None:
    ctx.check(sorted(order) == list(range(n_modes))
              and len(reports) == n_modes,
              f"{where}: order is not a permutation of the modes")
    scores = [reports[k].score for k in order]
    ctx.check(all(a <= b for a, b in zip(scores, scores[1:])),
              f"{where}: order is not sorted by score")
    for r in reports:
        risks = np.asarray(r.risks)
        ctx.check(bool(((risks >= 0) & (risks <= 1)).all())
                  and 0.0 <= r.boundary <= 1.0,
                  f"{where}: mode {r.mode} has a risk outside [0, 1]")
        c_s = risk.safety_cost(risks, r.boundary)
        c_c = risk.care_cost(risks)
        c_r = risk.responsiveness_cost(risks, cfg.responsiveness_scale)
        l_risk = risk.total_risk_cost(r.c_s, r.c_c, r.c_r, cfg.weights)
        ctx.check(_close(r.c_s, c_s) and _close(r.c_c, c_c)
                  and _close(r.c_r, c_r) and _close(r.l_risk, l_risk),
                  f"{where}: mode {r.mode} costs do not match its risks")


def _ranking_key(order, reports) -> list:
    return [list(order)] + [[repr(float(v)) for v in
                             (r.c_s, r.c_c, r.c_r, r.l_risk, r.score)]
                            for r in reports]


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------

class PlanStage:
    """Plans scenes in N cycles, wrapping around the scene list, until every
    N has Sizes.plan_min_per_n completed scenes. Scenes of an N that has
    them are skipped, so the latency samples hold each N equally often
    whatever share of each N fails. An N none of whose scenes completed
    in a full pass over the list is given up, because planning is
    deterministic and a further pass would fail again."""

    def __init__(self, scenes: list, sizes: Sizes):
        if len(scenes) % len(PLAN_N):
            raise BenchError("the plan scene count must be a multiple of "
                             f"{len(PLAN_N)}")
        self.scenes = scenes
        self.per_n = len(scenes) // len(PLAN_N)
        self.need = sizes.plan_min_per_n
        self.tail_beyond = sizes.tail_beyond
        self.cfg = risk.RiskConfig()
        self.spans: list = []   # of the completed scenes
        self.failures: Counter = Counter()
        self.done = [0] * len(PLAN_N)   # completed scenes per N
        self.tried = [0] * len(PLAN_N)  # attempted scenes per N
        self.attempted = 0
        self.next = 0
        self.seen: dict[int, list] = {}
        self.digest: list = []

    def _open(self, n: int) -> bool:
        """Whether N index n still needs and can get completions."""
        return self.done[n] < self.need and \
            (self.done[n] > 0 or self.tried[n] < self.per_n)

    def given_up(self) -> list[int]:
        return [PLAN_N[n] for n in range(len(PLAN_N))
                if self.done[n] < self.need and not self._open(n)]

    @property
    def progress(self) -> float:
        live = [min(1.0, d / self.need) for n, d in enumerate(self.done)
                if self._open(n)]
        return min(live) if live else 1.0

    @property
    def finished(self) -> bool:
        return not any(self._open(n) for n in range(len(PLAN_N)))

    def cycle(self, ctx: Context, model) -> None:
        for _ in PLAN_N:
            idx = self.next
            self.next = (self.next + 1) % len(self.scenes)
            if self._open(idx % len(PLAN_N)):
                self._scene(ctx, model, idx)

    def _scene(self, ctx: Context, model, idx: int) -> None:
        scn = self.scenes[idx]
        self.attempted += 1
        self.tried[idx % len(PLAN_N)] += 1
        where = f"plan scene {idx} ({scn.scenario_id})"
        ctx.begin("plan")
        jp = None

        def plan():
            nonlocal jp
            jp, _ = model.predict(scn)
            return risk.rank_trajectories(jp, scn, self.cfg)

        try:
            (order, reports), span = ctx.meter.time(plan)
        except Exception as e:  # a failed scene must not end the run
            name = type(e).__name__
            if not self.failures[name]:
                print(f"plan: first {name} at {where}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            self.failures[name] += 1
            outcome = ["failed", name]
            if jp is not None:
                check_prediction(ctx, jp, where)
        else:
            self.spans.append(span)
            self.done[idx % len(PLAN_N)] += 1
            check_prediction(ctx, jp, where)
            check_ranking(ctx, order, reports, jp.trajectories.shape[0],
                          self.cfg, where)
            outcome = _ranking_key(order, reports)
        if idx in self.seen:
            ctx.check(self.seen[idx] == outcome,
                      f"{where}: differs from its first run")
        else:
            self.seen[idx] = outcome
            if idx < DIGEST_PLAN_SCENES:
                self.digest.append(outcome)

    def probe_index(self) -> int:
        """A completed scene for the tracing overhead probe: the first
        completed N=8 scene, else the first completed one."""
        done = [i for i, o in sorted(self.seen.items()) if o[0] != "failed"]
        mid = [i for i in done if PLAN_N[i % len(PLAN_N)] == 8]
        return (mid or done)[0]

    def tail(self, latencies: list[float]) -> float:
        """The highest percentile with tail_beyond samples beyond it: the
        (tail_beyond + 1)-th slowest completed scene."""
        return sorted(latencies)[-self.tail_beyond - 1]


class EvalStage:
    """evaluate() calls over consecutive batches of the eval scenes, each
    batch evaluated Sizes.eval_rounds times."""

    def __init__(self, model, scenes: list, sizes: Sizes):
        self.model = model
        b = sizes.eval_batch
        self.batches = [scenes[i:i + b] for i in range(0, len(scenes), b)]
        self.total = sizes.eval_rounds * len(self.batches)
        self.timed: list = []   # (scenes, span) per call
        self.ades: list[float] = []   # per call

    @property
    def progress(self) -> float:
        return len(self.timed) / self.total

    @property
    def finished(self) -> bool:
        return len(self.timed) >= self.total

    def _predict(self, scn):
        return self.model.predict(scn)[0]

    def step(self, ctx: Context) -> None:
        batch = self.batches[len(self.timed) % len(self.batches)]
        ctx.begin("eval")
        report, span = ctx.meter.time(evaluation.evaluate, self._predict,
                                      batch)
        self.timed.append((len(batch), span))
        self.ades.append(float(report.mean("all", "model_selected", "ego",
                                           "ade")[-1]))

    def ego_ade(self, ctx: Context) -> float:
        """Mean over batches of the batch ego ADE; batches are equal in
        size, so this is the ADE over all eval scenes."""
        first = self.ades[:len(self.batches)]
        for k in range(len(self.batches), len(self.ades)):
            ctx.check(self.ades[k] == first[k % len(self.batches)],
                      "eval: repeated evaluate() calls differ")
        ctx.check(all(math.isfinite(a) and a > 0 for a in first),
                  "eval: an ego ADE is not a positive number")
        ctx.digest["eval_ade"] = [repr(a) for a in first]
        return float(np.mean(first))


class TrainStage:
    """train() calls: Sizes.train_s1_calls with every epoch in stage 1 and
    Sizes.train_s2_calls with every epoch in stage 2, alternating while
    both kinds remain."""

    def __init__(self, scenes: list, sizes: Sizes, out_dir: str):
        self.scenes = scenes
        self.out_dir = out_dir
        self.epochs = (sizes.train_s1_epochs, sizes.train_s2_epochs)
        self.calls = (sizes.train_s1_calls, sizes.train_s2_calls)
        self.timed: tuple[list, list] = ([], [])   # (work, span) per call
        self.losses: tuple[list, list] = ([], [])
        self.work = 0   # trained scenes x epochs over all calls

    @property
    def progress(self) -> float:
        return sum(map(len, self.timed)) / sum(self.calls)

    @property
    def finished(self) -> bool:
        return self.progress >= 1.0

    def step(self, ctx: Context) -> None:
        done = [len(r) for r in self.timed]
        self.call(ctx, 1 if done[1] < self.calls[1] and (
            done[0] >= self.calls[0] or done[1] < done[0]) else 0)

    def call(self, ctx: Context, stage: int) -> None:
        """One train() call; stage 0: stage 1 only, 1: stage 2 only."""
        epochs = self.epochs[stage]
        cfg = training.TrainConfig(epochs=epochs,
                                   stage1_epochs=0 if stage else epochs,
                                   seed=0)
        work = len(training.split_dataset(self.scenes, cfg)[0]) * epochs
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        ctx.begin("train")
        (_, report), span = ctx.meter.time(
            training.train, self.scenes, ModelConfig(), cfg,
            out_dir=self.out_dir)
        self.timed[stage].append((work, span))
        self.work += work
        rows = [report.l_pre, report.l_man, report.l_risk, report.l_total]
        ctx.check(all(math.isfinite(v) for row in rows for v in row),
                  f"train: non-finite loss in stage {stage + 1}")
        self.losses[stage].append([[repr(v) for v in row] for row in rows])

    def check(self, ctx: Context) -> None:
        for calls in self.losses:
            ctx.check(all(x == calls[0] for x in calls),
                      "train: repeated train() calls differ")
        ctx.digest["train_losses"] = [calls[0] for calls in self.losses]


def run_stages(ctx: Context, model, loaded: dict, sizes: Sizes,
               run_dir: str) -> tuple[PlanStage, EvalStage, TrainStage]:
    """Interleave the stages so that each spreads over the whole run: after
    every plan cycle, eval and train catch up with the plan's progress."""
    plan = PlanStage(loaded["plan"], sizes)
    ev = EvalStage(model, loaded["eval"], sizes)
    tr = TrainStage(loaded["train"], sizes,
                    os.path.join(run_dir, "train_out"))
    while not plan.finished:
        plan.cycle(ctx, model)
        for stage in (ev, tr):
            while not stage.finished and stage.progress < plan.progress:
                stage.step(ctx)
    for stage in (ev, tr):
        while not stage.finished:
            stage.step(ctx)
    if len(plan.spans) <= plan.tail_beyond:
        raise BenchError(
            f"completed plan scenes per N {dict(zip(PLAN_N, plan.done))} "
            f"after {plan.attempted} attempts; plan_ms_tail needs more than "
            f"{plan.tail_beyond}")
    ctx.digest["plan"] = plan.digest
    tr.check(ctx)
    return plan, ev, tr


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_ms_p50": "ms",
    "plan_ms_tail": "ms",
    "eval_scenes_per_s": "scenes/s",
    "eval_ego_ade_m": "m",
    "train_s1_scenes_per_s": "scenes/s",
    "train_s2_scenes_per_s": "scenes/s",
    "peak_rss_mb": "MB",
}

# (metric, unit, stage, source, key, denominator). "self" sums span self
# time, "total" span time with children (rank_trajectories, whose share of
# a plan scene is the point), "count" a counter, "errors" exceptions out of
# a span. Plan layers are per completed plan scene, like plan_ms_p50;
# errors per attempted one.
LAYER_METRICS = [
    ("risk.rank_ms", "ms/scene", "plan", "total", "risk.rank", "plan_done"),
    ("risk.mode_report_ms", "ms/scene", "plan", "self", "risk.mode_report",
     "plan_done"),
    ("risk.boundary_ms", "ms/scene", "plan", "self", "risk.boundary",
     "plan_done"),
    ("risk.collision_prob_calls", "calls/scene", "plan", "count",
     "risk.collision_prob", "plan_done"),
    ("risk.disc_calls", "calls/scene", "plan", "count", "risk.disc",
     "plan_done"),
    ("risk.disc_elems", "elems/scene", "plan", "count", "risk.disc_elems",
     "plan_done"),
    ("risk.rank_errors", "errors/scene", "plan", "errors", "risk.rank",
     "plan"),
    ("risk.loss_grad_ms", "ms/scene", "train", "self", "risk.loss_grad",
     "train"),
    ("train.risk.boundary_ms", "ms/scene", "train", "self", "risk.boundary",
     "train"),
    ("train.risk.disc_calls", "calls/scene", "train", "count", "risk.disc",
     "train"),
    ("scene.load_scenario_ms", "ms/file", "setup", "self",
     "scene.load_scenario", "setup_files"),
    ("scene.local_frame_ms", "ms/scene", "eval", "self", "scene.local_frame",
     "eval"),
    ("interaction.history_features_ms", "ms/scene", "eval", "self",
     "interaction.history_features", "eval"),
    ("interaction.history_lstm_ms", "ms/scene", "eval", "self",
     "interaction.history_lstm", "eval"),
    ("interaction.agent_agent_ms", "ms/scene", "eval", "self",
     "interaction.agent_agent", "eval"),
    ("interaction.subgraph_runs", "runs/scene", "eval", "count",
     "interaction.subgraph", "eval"),
    ("interaction.agent_map_ms", "ms/scene", "eval", "self",
     "interaction.agent_map", "eval"),
    ("intention.heads_ms", "ms/scene", "eval", "self", "intention.heads",
     "eval"),
    ("intention.decoder_ms", "ms/scene", "eval", "self", "intention.decoder",
     "eval"),
    ("model.predict_ms", "ms/scene", "eval", "self", "model.predict", "eval"),
    ("model.forward_ms", "ms/scene", "eval", "self", "model.forward", "eval"),
    ("train.model.forward_ms", "ms/scene", "train", "self", "model.forward",
     "train"),
    ("model.backward_ms", "ms/scene", "train", "self", "model.backward",
     "train"),
    ("nn.adam_step_ms", "ms/scene", "train", "self", "nn.adam_step",
     "train"),
    ("model.save_ms", "ms/scene", "train", "self", "model.save", "train"),
    ("model.save_bytes", "B/scene", "train", "count", "model.save_bytes",
     "train"),
    ("model.load_ms", "ms/load", "setup", "self", "model.load",
     "setup_loads"),
    ("evaluation.self_ms", "ms/scene", "eval", "self", "evaluation", "eval"),
    ("training.self_ms", "ms/scene", "train", "self", "training", "train"),
]

EXTRA_LAYER_UNITS = {
    "plan_fail_ratio": "failed/attempted",
    "trace.plan_overhead_pct": "%",
    "trace.eval_overhead_pct": "%",
    "trace.train_overhead_pct": "%",
}


def layer_units() -> dict[str, str]:
    units = {m[0]: m[1] for m in LAYER_METRICS}
    units.update(EXTRA_LAYER_UNITS)
    return units


def layer_metrics(tracer: Tracer, ops: dict[str, int]) -> dict[str, float]:
    self_ms, total_ms = tracer.self_ms(), tracer.total_ms()
    out = {}
    for name, _, stage, source, key, denom in LAYER_METRICS:
        if source == "self":
            total = self_ms.get((stage, key), 0.0)
        elif source == "total":
            total = total_ms.get((stage, key), 0.0)
        elif source == "count":
            total = tracer.counts[stage, key]
        else:
            total = tracer.errors[stage, key]
        out[name] = total / max(ops[denom], 1)
    return out


def timings(meter: Meter, setup_spans: list, plan: PlanStage,
            ev: EvalStage, tr: TrainStage, scaled: bool) -> dict[str, float]:
    """The timed end-to-end metrics, scaled to the nominal machine speed or
    raw: medians over the set-ups, completed plan scenes and calls."""
    def sec(span):
        return meter.seconds(span, scaled)

    latencies = [1000.0 * sec(span) for span in plan.spans]
    return {
        "setup_s": statistics.median(sec(span) for span in setup_spans),
        "plan_ms_p50": statistics.median(latencies),
        "plan_ms_tail": plan.tail(latencies),
        "eval_scenes_per_s": statistics.median(n / sec(span)
                                               for n, span in ev.timed),
        "train_s1_scenes_per_s": statistics.median(w / sec(span)
                                                   for w, span in tr.timed[0]),
        "train_s2_scenes_per_s": statistics.median(w / sec(span)
                                                   for w, span in tr.timed[1]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict[str, float]
    units: dict[str, str]
    correct: bool
    attempted: int
    failed: int
    notes: list[str]


def _overhead_pct(meter: Meter, plan: PlanStage, loaded: dict, model,
                  sizes: Sizes, run_dir: str) -> dict[str, float]:
    """Tracing overhead per stage: an operation of the stage timed plain,
    traced, traced and plain again (so that a steady drift of the machine's
    speed cancels), scaled like the end-to-end metrics, as the traced share
    over the plain one. The train operation is a stage-2 call, which runs
    every traced layer of a stage-1 call and the risk term besides."""
    scn = loaded["plan"][plan.probe_index()]
    trainer = TrainStage(loaded["train"], sizes,
                         os.path.join(run_dir, "probe_out"))
    ops = {
        "plan": lambda ctx: risk.rank_trajectories(
            model.predict(scn)[0], scn, plan.cfg),
        "eval": lambda ctx: evaluation.evaluate(
            lambda s: model.predict(s)[0], loaded["eval"]),
        "train": lambda ctx: trainer.call(ctx, 1),
    }
    out = {}
    for stage, op in ops.items():
        spans = {False: [], True: []}
        for traced in (False, True, True, False):
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                spans[traced].append(meter.time(op, Context(meter, tracer))[1])
            finally:
                if tracer is not None:
                    tracer.remove()
        traced, plain = (sum(map(meter.seconds, spans[k]))
                         for k in (True, False))
        out[f"trace.{stage}_overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return out


def run(workload: str, seed: int, trace: bool,
        sizes: Sizes = Sizes()) -> RunResult:
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of "
                         f"{sorted(WORKLOADS)}")
    ckpt = ensure_checkpoint()
    run_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        paths = write_scenes(make_scenes(workload, seed, sizes), run_dir)
        tracer = Tracer() if trace else None
        ctx = Context(Meter(), tracer)
        if tracer is not None:
            try:
                tracer.install()
            except LookupError as e:
                raise BenchError(f"cannot trace: {e}") from None
        try:
            setup_spans, loaded, model = repeated_setup(
                ctx, paths, ckpt, sizes.setup_repeats)
            plan, ev, tr = run_stages(ctx, model, loaded, sizes, run_dir)
        finally:
            if tracer is not None:
                tracer.remove()
        left = installed_wrappers()
        ctx.check(not left, f"trace wrappers left installed: {left}")
        ade = ev.ego_ade(ctx)

        n_fail = sum(plan.failures.values())
        fail_ratio = n_fail / plan.attempted
        notes = [
            f"env: python {platform.python_version()}, numpy "
            f"{np.__version__}, scipy {scipy.__version__}, "
            f"{os.cpu_count()} cpus",
            f"plan: {len(plan.spans)} of {plan.attempted} scenes "
            f"completed, per N {dict(zip(PLAN_N, plan.done))}; tail = "
            f"p{100 * (1 - plan.tail_beyond / len(plan.spans)):.1f}"
            f" ({plan.tail_beyond} beyond); "
            f"failures by type: {dict(plan.failures) or 'none'}; "
            f"N given up: {plan.given_up() or 'none'}",
            f"plan_fail_ratio {fail_ratio!r} failed/attempted",
            f"eval: {len(ev.timed)} evaluate() calls over "
            f"{len(loaded['eval'])} scenes",
            f"train: {len(tr.timed[0])} stage-1 and {len(tr.timed[1])} "
            f"stage-2 train() calls over "
            f"{len(loaded['train'])} scenes",
            "raw wall times: " + ", ".join(
                f"{k} {v!r}" for k, v in timings(ctx.meter, setup_spans, plan,
                                                 ev, tr, False).items())
            + f"; {len(ctx.meter.readings)} reference readings, mean "
            f"{ctx.meter.mean_reading()!r} s, nominal {NOMINAL_S!r} s",
        ]
        if tracer is None:
            metrics = timings(ctx.meter, setup_spans, plan, ev, tr, True)
            metrics["eval_ego_ade_m"] = ade
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics = {k: metrics[k] for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
        else:
            n_files = sum(len(v) for v in paths.values())
            ops = {
                "plan": plan.attempted,
                "plan_done": len(plan.spans),
                "eval": sum(len(ev.batches[k % len(ev.batches)])
                            for k in range(len(ev.timed))),
                "train": tr.work,
                "setup_files": n_files * sizes.setup_repeats,
                "setup_loads": sizes.setup_repeats,
            }
            metrics = layer_metrics(tracer, ops)
            metrics["plan_fail_ratio"] = fail_ratio
            metrics.update(_overhead_pct(ctx.meter, plan, loaded, model,
                                         sizes, run_dir))
            os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK_ROOT, "traces",
                                      f"{workload}-seed{seed}.jsonl")
            tracer.write(trace_path)
            notes.append(f"trace: {len(tracer.spans)} spans written to "
                         f"{os.path.relpath(trace_path, ROOT)}")
            units = layer_units()
        blob = json.dumps(ctx.digest, sort_keys=True).encode()
        notes.append(f"digest {hashlib.sha256(blob).hexdigest()}")
        notes.extend(f"check failed: {p}" for p in ctx.problems)
        attempted = plan.attempted + len(ev.timed) + sum(tr.calls)
        return RunResult(metrics, units, not ctx.problems, attempted,
                         n_fail, notes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

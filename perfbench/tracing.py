"""Span tracing for the benchmark.

A Tracer wraps public riskcast functions and methods at the name their
caller looks up at run time (a module global such as
``riskcast.model.history_feature_matrix``, or a class attribute such as
``AgentAgentEncoder.forward``). Spans are kept in memory with their parent
span, the operation they belong to and the benchmark stage, and can be
written out as JSON lines. ``remove`` restores every original object.

Hot leaf functions (called thousands of times per scene) are counted, not
timed, so that their wrapper costs little and their time stays in the self
time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"

# (module, class or None, attribute, layer). Layers sharing a name add up.
SPAN_TARGETS = [
    ("riskcast.risk", None, "rank_trajectories", "risk.rank"),
    ("riskcast.risk", None, "mode_risk_report", "risk.mode_report"),
    ("riskcast.risk", None, "boundary_risk", "risk.boundary"),
    ("riskcast.training", None, "risk_loss_and_grad", "risk.loss_grad"),
    ("riskcast.scene", None, "load_scenario", "scene.load_scenario"),
    ("riskcast.model", None, "local_frame", "scene.local_frame"),
    ("riskcast.model", None, "history_feature_matrix",
     "interaction.history_features"),
    ("riskcast.interaction", "HistoryEncoder", "forward",
     "interaction.history_lstm"),
    ("riskcast.interaction", "AgentAgentEncoder", "forward",
     "interaction.agent_agent"),
    ("riskcast.interaction", "MapEncoder", "forward", "interaction.agent_map"),
    ("riskcast.interaction", "AgentMapAttention", "forward",
     "interaction.agent_map"),
    ("riskcast.intention", "IntentionHead", "forward", "intention.heads"),
    ("riskcast.intention", "ClassEmbeddings", "forward", "intention.heads"),
    ("riskcast.intention", "IntentionFuser", "forward", "intention.heads"),
    ("riskcast.intention", "JointDecoder", "forward", "intention.decoder"),
    ("riskcast.model", "JointPredictor", "predict", "model.predict"),
    ("riskcast.model", "JointPredictor", "forward", "model.forward"),
    ("riskcast.model", "JointPredictor", "backward", "model.backward"),
    ("riskcast.model", "JointPredictor", "save", "model.save"),
    ("riskcast.model", "JointPredictor", "load", "model.load"),
    ("riskcast.nn", "Adam", "step", "nn.adam_step"),
    ("riskcast.evaluation", None, "evaluate", "evaluation"),
    ("riskcast.training", None, "train", "training"),
]

COUNT_TARGETS = [
    ("riskcast.risk", None, "collision_probability", "risk.collision_prob"),
    ("riskcast.risk", None, "disc_probability", "risk.disc"),
    ("riskcast.interaction", "SelfAttentionBlock", "forward",
     "interaction.subgraph"),
]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls, None)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        # [layer, stage, op, parent index, start, end] per span
        self.spans: list[list] = []
        self.counts: Counter = Counter()   # (stage, key) -> count
        self.errors: Counter = Counter()   # (stage, layer) -> exceptions
        self.stage = ""
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installing and removing wrappers ----------------------------------

    def install(self) -> None:
        """Wrap every target. Raises LookupError, wrapping nothing, when a
        target is missing: its metric would read 0, like a perfect
        speed-up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        missing = [f"{module}.{cls + '.' if cls else ''}{attr}"
                   for module, cls, attr, _ in SPAN_TARGETS + COUNT_TARGETS
                   if not hasattr(_owner(module, cls), attr)]
        if missing:
            raise LookupError(f"trace targets not found: {missing}")
        for module, cls, attr, layer in SPAN_TARGETS:
            self._patch(module, cls, attr, layer, self._span_wrapper)
        for module, cls, attr, layer in COUNT_TARGETS:
            self._patch(module, cls, attr, layer, self._count_wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, module, cls, attr, layer, make_wrapper) -> None:
        owner = _owner(module, cls)
        owned = cls is None or attr in vars(owner)
        original = vars(owner)[attr] if cls is not None and owned \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__, layer))
        else:
            replacement = make_wrapper(original, layer)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, owned))

    def _span_wrapper(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [layer, tracer.stage, tracer.op, parent,
                    time.perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[tracer.stage, layer] += 1
                raise
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if layer == "model.save":
                try:
                    tracer.counts[tracer.stage, "model.save_bytes"] += \
                        os.path.getsize(args[1])
                except (IndexError, OSError, TypeError):
                    pass
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count_wrapper(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.stage, layer] += 1
            if layer == "risk.disc" and args:
                tracer.counts[tracer.stage, "risk.disc_elems"] += \
                    int(np.size(args[0]))
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- results -------------------------------------------------------------

    def self_ms(self) -> dict[tuple[str, str], float]:
        """Summed self time in ms per (stage, layer): each span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for layer, stage, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (layer, stage, op, parent, start, end) in \
                enumerate(self.spans):
            out[stage, layer] += 1000.0 * (end - start - child[i])
        return out

    def total_ms(self) -> dict[tuple[str, str], float]:
        """Summed span duration in ms per (stage, layer), children
        included."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for layer, stage, op, parent, start, end in self.spans:
            out[stage, layer] += 1000.0 * (end - start)
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (layer, stage, op, parent, start, end) in \
                    enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "parent": parent, "layer": layer,
                    "stage": stage, "op": op,
                    "start_ms": 1000.0 * (start - t0),
                    "dur_ms": 1000.0 * (end - start)}) + "\n")


def installed_wrappers() -> list[str]:
    """Names of riskcast attributes that are still benchmark wrappers."""
    left = []
    for module, cls, attr, _ in SPAN_TARGETS + COUNT_TARGETS:
        owner = _owner(module, cls)
        if owner is None:
            continue
        fn = vars(owner).get(attr) if cls is not None else \
            getattr(owner, attr, None)
        fn = getattr(fn, "__func__", fn)
        if getattr(fn, WRAPPED_MARK, False):
            left.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return left

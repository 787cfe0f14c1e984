"""The benchmark's tracer (perfbench/tracing.py) wraps riskcast functions and
methods by name and refuses to run when one is gone. This test makes a
rename fail here instead of at benchmark time."""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402


def test_every_trace_target_resolves():
    missing = []
    for module, cls, attr, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []

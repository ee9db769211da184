"""Every function the benchmark's tracer wraps stays bound where the tracer looks for it.

``shadowbench/spans.py`` replaces each ``(module, attribute)`` of its
``LAYER_CALLS`` by a wrapper, so a refactor that unbinds one of those names
would otherwise fail only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "shadowbench" / "spans.py"


def layer_calls() -> list[tuple]:
    """The tracer's ``LAYER_CALLS``, run from its source so that no bytecode is written."""
    namespace = {"__name__": "shadowbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["LAYER_CALLS"]


def test_every_wrapped_name_resolves_to_a_callable():
    calls = layer_calls()
    unbound = [
        (module, attribute)
        for module, attribute, _, _ in calls
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert calls and not unbound

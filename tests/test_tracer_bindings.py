"""Every function the benchmark's tracer wraps stays bound where the tracer looks for it.

``shadowbench/spans.py`` replaces each ``(module, attribute)`` of its
``LAYER_CALLS`` by a wrapper, so a refactor that unbinds one of those names
would otherwise fail only in a traced benchmark run.
"""

from __future__ import annotations

import importlib

from tests.helpers import load_spans


def test_every_wrapped_name_resolves_to_a_callable():
    calls = load_spans().LAYER_CALLS
    unbound = [
        (module, attribute)
        for module, attribute, _, _ in calls
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert calls and not unbound

"""The benchmark's tracer keeps working on the names and values it reads.

``shadowbench/spans.py`` replaces each ``(module, attribute)`` of its
``LAYER_CALLS`` by a wrapper whose counter reads attributes of the result,
so a refactor that unbinds one of those names or renames one of those
attributes would otherwise fail only in a traced benchmark run.
"""

from __future__ import annotations

import importlib

from shadowscan import cli
from tests.helpers import FIXTURES, load_spans

CWA = ["--repo", str(FIXTURES / "cwa-server"), "--root", "app.coronawarn:cwa-parent:3.2.0"]
COMMANDS = [
    ["resolve"],
    ["scan"],
    ["scan", "--ecosystem", "gradle"],
    ["check", "--root-module"],
    ["compare"],
    ["classpath", "--layout", "nested"],
    ["hijack", "--attacker", "org.evil:json-schema-commons:1.0"],
]
COUNTERS = {
    "pom.poms_indexed", "resolver.nodes", "resolver.omitted", "resolver.conflicts",
    "ordering.entries", "ordering.calls", "inventory.classes", "inventory.content_bytes",
    "analysis.bindings", "analysis.findings", "analysis.compare_differs",
    "mitigations.violations",
}


def test_every_wrapped_name_resolves_to_a_callable():
    calls = load_spans().LAYER_CALLS
    unbound = [
        (module, attribute)
        for module, attribute, _, _ in calls
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert calls and not unbound


def test_traced_commands_match_untraced_ones_and_fill_every_counter(capsys):
    untraced = []
    for argv in COMMANDS:
        code = cli.main([*argv, *CWA])
        untraced.append((code, capsys.readouterr().out.encode()))
    tracer = load_spans().Tracer()
    with tracer.installed():
        traced = [tracer.run(cli.main, [*argv, *CWA]) for argv in COMMANDS]
    assert [error for _, _, error in traced] == [b""] * len(COMMANDS)
    assert [(code, out) for code, out, _ in traced] == untraced
    assert COUNTERS <= set(tracer.counts)

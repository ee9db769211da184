"""In-process traced runs of ``shadowscan.cli.main``.

For the traced pass only, every public function that one ``shadowscan``
module calls in another is replaced, in the namespace of the module that
imported it, by a wrapper that records a span; the originals are put back
afterwards. Spans live in memory (name, start, end, parent, operation id)
and are written out once the run ends. Work the tracer does itself, such
as counting a layer's output, is recorded as a pause of the enclosing span
and left out of every self time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _resolution_counts(report, args) -> dict[str, int]:
    nodes = omitted = 0
    stack = [report.tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        omitted += not node.included
        stack.extend(node.children)
    return {"resolver.nodes": nodes, "resolver.omitted": omitted, "resolver.conflicts": len(report.conflicts)}


def _content_bytes(repo, coordinate) -> int:
    return repo.entries[coordinate].content_path.stat().st_size


def _inventories_counts(inventories, args) -> dict[str, int]:
    repo = args[0]
    return {
        "inventory.classes": sum(len(inventory.classes) for inventory in inventories),
        "inventory.content_bytes": sum(_content_bytes(repo, inv.coordinate) for inv in inventories),
    }


def _inventory_counts(inventory, args) -> dict[str, int]:
    return _inventories_counts([inventory], args)


def _violations(verdict, args) -> dict[str, int]:
    return {"mitigations.violations": len(verdict.violations)}


Count = Callable[..., dict[str, int]] | None

# (module that imports the function, attribute, span name, counter)
LAYER_CALLS: list[tuple[str, str, str, Count]] = [
    ("shadowscan.cli", "load_repository", "pom.load_repository",
     lambda repo, args: {"pom.poms_indexed": len(repo.entries)}),
    ("shadowscan.cli", "fetch_pom", "pom.fetch_pom", None),
    ("shadowscan.resolver", "fetch_pom", "pom.fetch_pom", None),
    ("shadowscan.cli", "resolve", "resolver.resolve", _resolution_counts),
    ("shadowscan.cli", "build_classpath", "ordering.build_classpath",
     lambda classpath, args: {"ordering.entries": len(classpath.entries), "ordering.calls": 1}),
    ("shadowscan.analysis", "build_classpath", "ordering.build_classpath",
     lambda classpath, args: {"ordering.entries": len(classpath.entries), "ordering.calls": 1}),
    ("shadowscan.cli", "emit_layout", "ordering.emit_layout", None),
    ("shadowscan.cli", "inventory_all", "inventory.inventory_all", _inventories_counts),
    ("shadowscan.cli", "load_inventory", "inventory.load_inventory", _inventory_counts),
    ("shadowscan.cli", "effective_classes", "analysis.effective_classes",
     lambda class_map, args: {"analysis.bindings": len(class_map.bindings)}),
    ("shadowscan.cli", "detect_shadowing", "analysis.detect_shadowing",
     lambda findings, args: {"analysis.findings": len(findings)}),
    ("shadowscan.cli", "compare_ecosystems", "analysis.compare_ecosystems",
     lambda comparison, args: {"analysis.compare_differs": len(comparison.flagged)}),
    ("shadowscan.cli", "included_nodes", "analysis.included_nodes", None),
    ("shadowscan.cli", "hijack_reach", "analysis.hijack_reach", None),
    ("shadowscan.cli", "hijack_surface", "analysis.hijack_surface", None),
    ("shadowscan.cli", "check_ban_duplicate_classes", "mitigations.dup", _violations),
    ("shadowscan.cli", "check_sealed", "mitigations.sealed", _violations),
    ("shadowscan.cli", "check_modules", "mitigations.modules", _violations),
    ("shadowscan.cli", "load_allowlist", "mitigations.load_allowlist", None),
]

LAYERS = ("pom", "resolver", "ordering", "inventory", "analysis", "mitigations", "cli")
ROOT_SPAN = "cli.main"

# Span record fields, kept as lists so the pause can be added in place.
NAME, START, END, PARENT, OP, PAUSE = range(6)


class Tracer:
    """Records spans and counts; with ``memory`` also per-layer allocation peaks."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self.memory = memory
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, function: Callable, count: Count) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            top_level = self.memory and parent >= 0 and self.spans[parent][NAME] == ROOT_SPAN
            if top_level:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if top_level:
                peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                layer = name.partition(".")[0]
                self.peaks[layer] = max(self.peaks[layer], peak_mb)
            if count is not None:
                for key, value in count(result, args).items():
                    self.counts[key] += value
            if parent >= 0:
                self.spans[parent][PAUSE] += time.perf_counter() - span[END]
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the importing modules; restore the originals after."""
        originals = []
        try:
            for module_name, attribute, name, count in LAYER_CALLS:
                module = importlib.import_module(module_name)
                function = getattr(module, attribute)
                originals.append((module, attribute, function))
                setattr(module, attribute, self.wrap(name, function, count))
            yield
        finally:
            for module, attribute, function in reversed(originals):
                setattr(module, attribute, function)

    def run(self, main: Callable, argv: list[str]) -> tuple[int, bytes, bytes]:
        """One CLI invocation as a new operation: exit code, stdout and traceback if any."""
        self.op += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.wrap(ROOT_SPAN, main, None)(argv)
        except Exception:  # a crash is a failed operation, reported like a subprocess's
            return 1, out.getvalue().encode(), traceback.format_exc().encode()
        return code, out.getvalue().encode(), b""

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover and the tracer's pauses."""
        own = [span[END] - span[START] - span[PAUSE] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "op", "pause")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

"""Smoke tests of the benchmark at the smallest size.

Run with ``python3 -m pytest shadowbench -q`` from the checkout root; they
are not part of the default test run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

TINY = {
    name: dataclasses.replace(
        params,
        poms=40 if params.versions == 2 else 60,
        groups=4,
        reachable=12,
        multi_version=6 if params.versions == 2 else 19,
        min_classes=min(params.min_classes, 20),
        max_classes=min(params.max_classes, 20),
        shared_packages=min(params.shared_packages, 4),
        names_per_package=min(params.names_per_package, 30),
    )
    for name, params in run.WORKLOADS.items()
}


def declared(kind: str) -> set[str]:
    benchmark = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in benchmark[kind]}


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TINY))
def test_generation_is_byte_identical_per_seed(tmp_path, name):
    digests = []
    for attempt in ("a", "b"):
        workloads.write(workloads.build(TINY[name], 7), tmp_path / attempt)
        digests.append(tree_digest(tmp_path / attempt))
    workloads.write(workloads.build(TINY[name], 8), tmp_path / "c")
    assert digests[0] == digests[1] != tree_digest(tmp_path / "c")


@pytest.mark.parametrize("name", sorted(TINY))
def test_mix_matches_reference_untraced_and_traced(tmp_path, name):
    workspace = workloads.build(TINY[name], 3)
    workloads.write(workspace, tmp_path / "repo")

    metrics, checker, attempted, _ = run.measure(workspace, tmp_path, 0, time.perf_counter() + 60)
    assert checker.failures == []
    assert attempted >= len(run.MIX)
    assert set(metrics) == set(run.E2E_UNITS) == declared("end_to_end")
    assert all(value > 0 for value in metrics.values())

    deadline = time.perf_counter() + 60
    layered, traced_checker, _, _ = run.traced(workspace, tmp_path, 0, tmp_path / "spans.jsonl", deadline)
    assert traced_checker.failures == []
    assert traced_checker.hashes == checker.hashes
    assert set(layered) == declared("per_layer")
    for layer in spans.LAYERS:
        assert layered[f"{layer}.self_s"] > 0, layer
    assert layered["resolver.nodes"] == 5 * len(oracle.resolve(workspace, 64).nodes)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_probes_fail_only_in_the_known_way(tmp_path):
    known, wrong = run.probes(1, tmp_path, time.perf_counter() + 60)
    assert wrong == []
    assert len(known) <= 2


def test_checker_names_the_first_difference():
    workspace = workloads.build(TINY["shadow-1k"], 5)
    reference = oracle.Oracle(workspace, "repo")
    checker = run.Checker({"scan": lambda: reference.scan("maven")})
    report = reference.scan("maven").report
    assert checker.problem("scan", 0, json.dumps(report).encode(), b"") is None
    report["payload"]["findings"][0]["winner_depth"] += 1
    problem = checker.problem("scan", 0, json.dumps(report).encode(), b"")
    assert problem.startswith("report.payload.findings[0].winner_depth: expected")
    assert checker.problem("scan", 3, b"", b"") is not None

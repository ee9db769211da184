"""Acceptance suite: one test per exit criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from random import Random

from shadowscan.analysis import detect_shadowing, effective_classes, hijack_surface
from shadowscan.cli import main
from shadowscan.mitigations import (
    check_ban_duplicate_classes,
    check_modules,
    check_sealed,
)
from shadowscan.ordering import Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import (
    FIXTURES,
    coord,
    first_provider_scan,
    full_expansion_winners,
    memory_repo,
    random_conflict_repo,
    random_inventories,
    random_tree,
    run_pipeline,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_maven_classpath_order():
    with criterion(1, "depth-first classpath reproduction"):
        started = time.perf_counter()
        repo = load_repository(FIXTURES / "sample-app")
        tree = resolve(repo, fetch_pom(repo, coord("com.example:Project:1.0"))).tree
        classpath = build_classpath(tree, Ecosystem.MAVEN)
        sequence = ", ".join(
            [tree.root.coordinate.artifact_id]
            + [entry.artifact_id for entry in classpath.entries]
        )
        elapsed = time.perf_counter() - started
        assert sequence == "Project, D1, D11, D111, D112, D2, D21, D211, D22, D221"
        assert elapsed < 1.0


def test_criterion_2_layout_reproduction():
    with criterion(2, "flat and nested layout listings"):
        repo = load_repository(FIXTURES / "sample-app")
        tree = resolve(repo, fetch_pom(repo, coord("com.example:Project:1.0"))).tree
        assert emit_layout(tree, LayoutMode.FLAT).lines == (
            "+-META-INF",
            "|  +-MANIFEST.MF",
            "+-Main.class",
            "+-D1.class",
            "+-D11.class",
            "+-D111.class",
            "+-D112.class",
            "+-D2.class",
            "+-D21.class",
            "+-D211.class",
            "+-D22.class",
            "+-D221.class",
        )
        assert emit_layout(tree, LayoutMode.NESTED).lines == (
            "+-BOOT-INF",
            "  +-classes",
            "  |  +-Main.class",
            "+-BOOT-INF",
            "  +-lib",
            "  |  +-D1.jar",
            "  |  +-D11.jar",
            "  |  +-D111.jar",
            "  |  +-D112.jar",
            "  |  +-D2.jar",
            "  |  +-D21.jar",
            "  |  +-D211.jar",
            "  |  +-D22.jar",
            "  |  +-D221.jar",
        )


def test_criterion_3_declaration_order_sensitivity():
    with criterion(3, "declaration order flips the winning provider"):
        safe = run_pipeline("poc-safe-order", "org.example:victim:1.0")
        attack = run_pipeline("poc-attack-order", "org.example:victim:1.0")
        nice_class = "org.test.NiceClass"
        safe_winner = next(
            str(binding.winner)
            for name, binding in safe.class_map.bindings.items()
            if name == nice_class
        )
        attack_winner = next(
            str(binding.winner)
            for name, binding in attack.class_map.bindings.items()
            if name == nice_class
        )
        assert safe_winner == "org.test:nicelibrary:1.2"
        assert attack_winner == "org.evil:fakelibrary:1.0"


def test_criterion_4_database_driver_takeover():
    with criterion(4, "flattened parent takeover of the database driver"):
        pipeline = run_pipeline("cwa-server", "app.coronawarn:cwa-parent:3.2.0")
        findings = detect_shadowing(pipeline.class_map, pipeline.resolution.tree)
        assert len(findings) == 1
        finding = findings[0]
        assert str(finding.class_name) == "org.postgresql.Driver"
        assert str(finding.winner) == "org.evil:json-schema-commons:1.0"
        assert [str(victim) for victim in finding.shadowed_victims] == [
            "org.postgresql:postgresql:42.6.0"
        ]
        # the winner's path must run through the compromised validator
        validator = next(
            node for node in pipeline.resolution.tree.nodes
            if node.coordinate.artifact_id == "everit-json-schema"
        )
        assert finding.winner_path[: len(validator.path)] == validator.path
        assert finding.winner_depth == 2


def test_criterion_5_gradle_shield_property():
    with criterion(5, "level ordering shields direct deps from deep attackers"):
        started = time.perf_counter()
        maven_deep_hits = 0
        trees = 1000
        for seed in range(trees):
            tree = random_tree(Random(seed), max_depth=5, max_children=4)
            depths = {node.coordinate: node.depth for node in tree.nodes}
            direct = [child.coordinate for child in tree.root.children]
            maven = build_classpath(tree, Ecosystem.MAVEN)
            gradle = build_classpath(tree, Ecosystem.GRADLE)
            for target in direct:
                gradle_surface = hijack_surface(tree, gradle, target)
                assert all(depths[member] <= 1 for member in gradle_surface)
            if any(
                depths[member] == 3
                for target in direct
                for member in hijack_surface(tree, maven, target)
            ):
                maven_deep_hits += 1
        elapsed = time.perf_counter() - started
        assert maven_deep_hits >= 1
        assert elapsed < 30.0


def test_criterion_6_resolver_oracle_equivalence():
    with criterion(6, "resolution matches the full-expansion oracle"):
        mismatches = 0
        repos_with_conflicts = 0
        for seed in range(1000):
            poms, root_text = random_conflict_repo(Random(seed))
            repo = memory_repo(poms)
            report = resolve(repo, fetch_pom(repo, coord(root_text)))
            repos_with_conflicts += bool(report.conflicts)
            included = {
                str(node.coordinate.ga): (node.coordinate.version, node.path)
                for node in report.tree.nodes
                if node.included
            }
            if included != full_expansion_winners(poms, root_text):
                mismatches += 1
        assert mismatches == 0
        assert repos_with_conflicts >= 100  # the sweep must actually exercise conflicts


def test_criterion_7_effective_map_oracle_equivalence():
    with criterion(7, "class bindings match the linear-scan oracle"):
        mismatches = 0
        for seed in range(1000):
            inventories = random_inventories(Random(seed), max_artifacts=50, max_classes=200)
            class_map = effective_classes(inventories)
            actual = {
                name: (binding.winner, binding.shadowed)
                for name, binding in class_map.bindings.items()
            }
            if actual != first_provider_scan(inventories):
                mismatches += 1
        assert mismatches == 0


def test_criterion_8_mitigation_behavior():
    with criterion(8, "mitigation verdicts on the bundled scenarios"):
        attack = run_pipeline("poc-attack-order", "org.example:victim:1.0")

        duplicate = check_ban_duplicate_classes(attack.class_map)
        assert not duplicate.passed
        assert len(duplicate.violations) == 1
        assert str(duplicate.violations[0].class_name) == "org.test.NiceClass"

        modules = check_modules(attack.inventories, root_is_module=True)
        assert not modules.passed
        assert any(
            violation.package == "org.test"
            and {str(p) for p in violation.providers}
            == {"org.evil:fakelibrary:1.0", "org.test:nicelibrary:1.2"}
            for violation in modules.violations
        )

        partial = run_pipeline("sealed-partial", "org.example:app:1.0")
        partial_verdict = check_sealed(partial.inventories, partial.class_map)
        assert not partial_verdict.passed
        assert [violation.package for violation in partial_verdict.violations] == ["org.nice"]

        full = run_pipeline("sealed-full", "org.example:app:1.0")
        assert check_sealed(full.inventories, full.class_map).passed


def test_criterion_9_cli_json_determinism(capsys):
    with criterion(9, "JSON reports byte-identical across five runs"):
        commands = [
            ["resolve", "--repo", str(FIXTURES / "sample-app"),
             "--root", "com.example:Project:1.0"],
            ["scan", "--repo", str(FIXTURES / "poc-safe-order"),
             "--root", "org.example:victim:1.0"],
            ["scan", "--repo", str(FIXTURES / "poc-attack-order"),
             "--root", "org.example:victim:1.0"],
            ["scan", "--repo", str(FIXTURES / "cwa-server"),
             "--root", "app.coronawarn:cwa-parent:3.2.0"],
        ]
        for argv in commands:
            outputs = set()
            for _ in range(5):
                code = main(argv + ["--format", "json"])
                assert code == 0
                outputs.add(capsys.readouterr().out.encode("utf-8"))
            assert len(outputs) == 1

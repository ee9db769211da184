"""Effective class bindings, shadow findings, and hijack reach/surface."""

from __future__ import annotations

from random import Random

import pytest

from shadowscan.analysis import (
    compare_ecosystems,
    detect_shadowing,
    effective_classes,
    hijack_reach,
    hijack_surface,
)
from shadowscan.errors import MissingContent, UnknownArtifact
from shadowscan.inventory import ClassInventory
from shadowscan.model import FullyQualifiedClassName, bfs_order
from shadowscan.ordering import Ecosystem, build_classpath
from tests.helpers import (
    build_tree,
    coord,
    first_provider_scan,
    random_inventories,
    random_tree,
    run_pipeline,
)


def inventory(text, *classes):
    return ClassInventory(
        coord(text), tuple(FullyQualifiedClassName(name) for name in classes)
    )


NICE_CLASS = FullyQualifiedClassName("org.test.NiceClass")


class TestEffectiveClasses:
    def test_attack_order_binds_the_masquerading_copy(self):
        pipeline = run_pipeline("poc-attack-order", "org.example:victim:1.0")
        binding = pipeline.class_map.bindings[NICE_CLASS]
        assert str(binding.winner) == "org.evil:fakelibrary:1.0"
        assert [str(c) for c in binding.shadowed] == ["org.test:nicelibrary:1.2"]

    def test_safe_order_binds_the_genuine_copy(self):
        pipeline = run_pipeline("poc-safe-order", "org.example:victim:1.0")
        binding = pipeline.class_map.bindings[NICE_CLASS]
        assert str(binding.winner) == "org.test:nicelibrary:1.2"
        assert [str(c) for c in binding.shadowed] == ["org.evil:fakelibrary:1.0"]

    def test_single_inventory_all_unshadowed(self):
        inventories = [inventory("g:a:1", "org.x.A", "org.x.B", "org.x.C")]
        class_map = effective_classes(inventories)
        assert len(class_map.bindings) == 3
        assert all(not binding.shadowed for binding in class_map.bindings.values())

    def test_empty_input(self):
        assert effective_classes([]).bindings == {}

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_front_to_back_scan_oracle(self, seed):
        inventories = random_inventories(Random(seed), max_artifacts=12, max_classes=40)
        class_map = effective_classes(inventories)
        expected = first_provider_scan(inventories)
        actual = {
            name: (binding.winner, binding.shadowed)
            for name, binding in class_map.bindings.items()
        }
        assert actual == expected


class TestDetectShadowing:
    def test_attack_order_yields_a_deep_winner_finding(self):
        pipeline = run_pipeline("poc-attack-order", "org.example:victim:1.0")
        findings = detect_shadowing(pipeline.class_map, pipeline.resolution.tree)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.class_name == NICE_CLASS
        assert str(finding.winner) == "org.evil:fakelibrary:1.0"
        assert finding.winner_depth == 2
        assert finding.winner_path == (0, 0)
        assert [str(v) for v in finding.shadowed_victims] == ["org.test:nicelibrary:1.2"]

    def test_safe_order_still_reports_the_collision_at_depth_one(self):
        pipeline = run_pipeline("poc-safe-order", "org.example:victim:1.0")
        findings = detect_shadowing(pipeline.class_map, pipeline.resolution.tree)
        assert len(findings) == 1
        assert str(findings[0].winner) == "org.test:nicelibrary:1.2"
        assert findings[0].winner_depth == 1

    def test_clean_tree_has_no_findings(self):
        pipeline = run_pipeline("sample-app", "com.example:Project:1.0")
        assert detect_shadowing(pipeline.class_map, pipeline.resolution.tree) == []

    def test_deepest_winner_sorts_first_then_by_name(self):
        tree = build_tree(
            ("g:root:1", [
                ("g:a:1", [("g:deep:1", [])]),
                ("g:b:1", []),
                ("g:c:1", []),
            ])
        )
        inventories = [
            inventory("g:a:1", "org.x.Shallow"),
            inventory("g:deep:1", "org.x.Deep"),
            inventory("g:b:1", "org.x.Shallow", "org.x.Deep", "org.x.Alpha"),
            inventory("g:c:1", "org.x.Alpha"),
        ]
        # maven order: a, deep, b, c
        findings = detect_shadowing(effective_classes(inventories), tree)
        assert [str(f.class_name) for f in findings] == [
            "org.x.Deep",        # winner depth 2
            "org.x.Alpha",       # winner depth 1, alphabetically first
            "org.x.Shallow",
        ]


class TestHijackGeometry:
    def attack_tree(self):
        return run_pipeline("deep-hijack", "com.example:Project:1.0").resolution.tree

    def test_maven_reach_of_a_deep_transitive_includes_a_direct_dep(self):
        reach = hijack_reach(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:D111:1.0"))
        victims = {victim.artifact_id for victim in reach}
        assert victims == {"D112", "D2", "D21", "D211", "D22", "D221"}

    def test_gradle_reach_of_the_same_node_misses_direct_deps(self):
        reach = hijack_reach(self.attack_tree(), Ecosystem.GRADLE, coord("com.example:D111:1.0"))
        victims = {victim.artifact_id for victim in reach}
        assert "D2" not in victims
        assert victims == {"D112", "D211", "D221"}

    def test_last_entry_reaches_nothing(self):
        tree = self.attack_tree()
        last = build_classpath(tree, Ecosystem.MAVEN).entries[-1]
        assert hijack_reach(tree, Ecosystem.MAVEN, last) == frozenset()

    def test_surface_of_direct_dep_under_maven(self):
        surface = hijack_surface(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:D2:1.0"))
        assert {c.artifact_id for c in surface} == {"D1", "D11", "D111", "D112"}

    def test_first_entry_has_empty_surface(self):
        tree = self.attack_tree()
        first = build_classpath(tree, Ecosystem.MAVEN).entries[0]
        assert hijack_surface(tree, Ecosystem.MAVEN, first) == frozenset()

    def test_cwa_surface_of_the_database_sdk_contains_the_validator(self):
        pipeline = run_pipeline("cwa-server", "app.coronawarn:cwa-parent:3.2.0")
        surface = hijack_surface(
            pipeline.resolution.tree, Ecosystem.MAVEN, coord("org.postgresql:postgresql:42.6.0")
        )
        names = {c.artifact_id for c in surface}
        assert "everit-json-schema" in names
        assert "json-schema-commons" in names

    def test_unknown_artifact(self):
        with pytest.raises(UnknownArtifact):
            hijack_reach(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:ghost:1.0"))

    def test_root_reaches_everything_and_has_no_surface(self):
        tree = self.attack_tree()
        root = tree.root.coordinate
        assert len(hijack_reach(tree, Ecosystem.MAVEN, root)) == 9
        assert hijack_surface(tree, Ecosystem.MAVEN, root) == frozenset()

    @pytest.mark.parametrize("seed", range(30))
    def test_reach_is_antisymmetric(self, seed):
        rng = Random(seed)
        tree = random_tree(rng, max_depth=4, max_children=3)
        entries = build_classpath(tree, Ecosystem.MAVEN).entries
        if len(entries) < 2:
            return
        a, b = rng.sample(entries, 2)
        a_reaches_b = b in hijack_reach(tree, Ecosystem.MAVEN, a)
        b_reaches_a = a in hijack_reach(tree, Ecosystem.MAVEN, b)
        assert a_reaches_b != b_reaches_a

    @pytest.mark.parametrize("seed", range(30))
    def test_ancestors_always_sit_on_the_surface_of_descendants(self, seed):
        tree = random_tree(Random(seed + 300), max_depth=4, max_children=3)
        by_path = {node.path: node for node in bfs_order(tree)}
        for node in bfs_order(tree):
            if node.depth >= 2:
                parent = by_path[node.path[:-1]]
                surface = hijack_surface(tree, Ecosystem.MAVEN, node.coordinate)
                assert parent.coordinate in surface


class TestOrderSensitivity:
    @pytest.mark.parametrize("seed", range(25))
    def test_swapping_direct_declarations_flips_the_winner(self, seed):
        rng = Random(seed)
        shared = "org.shared.Service"
        depth_a = rng.randint(0, 3)
        depth_b = rng.randint(0, 3)

        def chain(prefix, depth):
            shape = (f"org.gen:{prefix}{depth}:1.0", [])
            for level in reversed(range(depth)):
                shape = (f"org.gen:{prefix}{level}:1.0", [shape])
            return shape, f"org.gen:{prefix}{depth}:1.0"

        shape_a, provider_a = chain("a", depth_a)
        shape_b, provider_b = chain("b", depth_b)

        def winner(first, second):
            tree = build_tree(("org.gen:root:1.0", [first, second]))
            inventories = []
            for entry in build_classpath(tree, Ecosystem.MAVEN).entries:
                classes = [f"org.own.{entry.artifact_id}"]
                if str(entry) in (provider_a, provider_b):
                    classes.append(shared)
                inventories.append(inventory(str(entry), *classes))
            class_map = effective_classes(inventories)
            return str(class_map.bindings[FullyQualifiedClassName(shared)].winner)

        assert winner(shape_a, shape_b) == provider_a
        assert winner(shape_b, shape_a) == provider_b


class TestCompareEcosystems:
    def test_attack_order_winner_differs_between_ecosystems(self):
        pipeline = run_pipeline("poc-attack-order", "org.example:victim:1.0")
        inventories_by_coord = {inv.coordinate: inv for inv in pipeline.inventories}
        comparison = compare_ecosystems(pipeline.resolution.tree, inventories_by_coord)
        assert len(comparison.entries) == 1
        entry = comparison.entries[0]
        assert entry.class_name == NICE_CLASS
        assert str(entry.maven_winner) == "org.evil:fakelibrary:1.0"
        assert str(entry.gradle_winner) == "org.test:nicelibrary:1.2"
        assert comparison.flagged == (entry,)

    def test_clean_fixture_has_empty_comparison(self):
        pipeline = run_pipeline("sample-app", "com.example:Project:1.0")
        inventories_by_coord = {inv.coordinate: inv for inv in pipeline.inventories}
        comparison = compare_ecosystems(pipeline.resolution.tree, inventories_by_coord)
        assert comparison.entries == ()

    def test_duplicate_between_two_direct_deps_is_not_flagged(self):
        tree = build_tree(("g:root:1", [("g:a:1", []), ("g:b:1", [])]))
        inventories_by_coord = {
            coord("g:a:1"): inventory("g:a:1", "org.x.Common"),
            coord("g:b:1"): inventory("g:b:1", "org.x.Common"),
        }
        comparison = compare_ecosystems(tree, inventories_by_coord)
        assert len(comparison.entries) == 1
        assert not comparison.entries[0].differs
        assert comparison.flagged == ()

    def test_missing_inventory(self):
        tree = build_tree(("g:root:1", [("g:a:1", [])]))
        with pytest.raises(MissingContent):
            compare_ecosystems(tree, {})

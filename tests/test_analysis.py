"""Effective class bindings, shadow findings, and hijack reach/surface."""

from __future__ import annotations

from random import Random

import pytest

import shadowscan
from shadowscan.analysis import (
    ShadowFinding,
    compare_ecosystems,
    detect_shadowing,
    effective_classes,
    hijack_reach,
    hijack_surface,
)
from shadowscan.cli import Run
from shadowscan.errors import UnknownArtifact
from shadowscan.inventory import ClassInventory
from shadowscan.model import Coordinate, OmittedConflict, check_class_name
from shadowscan.ordering import Ecosystem, build_classpath
from tests.helpers import (
    FIXTURES,
    build_tree,
    coord,
    first_provider_scan,
    random_inventories,
    random_tree,
)


def inventory(text, *classes):
    return ClassInventory(coord(text), tuple(map(check_class_name, classes)))


NICE_CLASS = "org.test.NiceClass"


class TestEffectiveClasses:
    def test_attack_order_binds_the_masquerading_copy(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        providers = run.class_map.bindings[NICE_CLASS]
        assert providers == ("org.evil:fakelibrary:1.0", "org.test:nicelibrary:1.2")

    def test_safe_order_binds_the_genuine_copy(self):
        run = Run(FIXTURES / "poc-safe-order", "org.example:victim:1.0")
        providers = run.class_map.bindings[NICE_CLASS]
        assert providers == ("org.test:nicelibrary:1.2", "org.evil:fakelibrary:1.0")

    def test_single_inventory_all_unshadowed(self):
        inventories = [inventory("g:a:1", "org.x.A", "org.x.B", "org.x.C")]
        class_map = effective_classes(inventories)
        assert len(class_map.bindings) == 3
        assert all(len(providers) == 1 for providers in class_map.bindings.values())

    def test_empty_input(self):
        assert effective_classes([]).bindings == {}

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_front_to_back_scan_oracle(self, seed):
        inventories = random_inventories(Random(seed), max_artifacts=12, max_classes=40)
        class_map = effective_classes(inventories)
        expected = first_provider_scan(inventories)
        assert class_map.bindings == expected
        # first-seen order: check_sealed lists each package's winners in it
        assert list(class_map.bindings) == list(expected)

    def test_a_binding_is_a_plain_tuple_of_its_providers(self):
        # the order is pinned by the scan oracle above; tuple equality ignores the type
        inventories = random_inventories(Random(7), max_artifacts=12, max_classes=40)
        bindings = effective_classes(inventories).bindings
        assert any(len(providers) > 1 for providers in bindings.values())
        for providers in bindings.values():
            assert type(providers) is tuple
            assert all(type(provider) is Coordinate for provider in providers)
        with pytest.raises(AttributeError):
            shadowscan.ClassBinding


class TestDetectShadowing:
    def test_attack_order_yields_a_deep_winner_finding(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        findings = detect_shadowing(run.class_map, run.resolution.tree)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.class_name == NICE_CLASS
        assert str(finding.winner) == "org.evil:fakelibrary:1.0"
        assert finding.winner_depth == 2
        assert finding.winner_path == (0, 0)
        assert [str(v) for v in finding.shadowed_victims] == ["org.test:nicelibrary:1.2"]

    def test_safe_order_still_reports_the_collision_at_depth_one(self):
        run = Run(FIXTURES / "poc-safe-order", "org.example:victim:1.0")
        findings = detect_shadowing(run.class_map, run.resolution.tree)
        assert len(findings) == 1
        assert str(findings[0].winner) == "org.test:nicelibrary:1.2"
        assert findings[0].winner_depth == 1

    def test_clean_tree_has_no_findings(self):
        run = Run(FIXTURES / "sample-app", "com.example:Project:1.0")
        assert detect_shadowing(run.class_map, run.resolution.tree) == []

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

    def test_findings_tied_on_depth_sort_by_name_across_winners(self):
        tree = build_tree(
            ("g:root:1", [
                ("g:a:1", [("g:a2:1", [])]),
                ("g:b:1", [("g:b2:1", [])]),
                ("g:c:1", []),
            ])
        )
        # maven order: a, a2, b, b2, c; classes first seen out of name order
        inventories = [
            inventory("g:a:1", "org.x.Zeta", "org.x.Mid"),
            inventory("g:a2:1", "org.x.Omega", "org.x.Beta"),
            inventory("g:b:1", "org.x.Alpha", "org.x.Zeta"),
            inventory("g:b2:1", "org.x.Gamma", "org.x.Omega"),
            inventory("g:c:1", "org.x.Gamma", "org.x.Alpha", "org.x.Beta", "org.x.Mid"),
        ]
        findings = detect_shadowing(effective_classes(inventories), tree)
        assert [(f.class_name, f.winner_depth) for f in findings] == [
            ("org.x.Beta", 2), ("org.x.Gamma", 2), ("org.x.Omega", 2),
            ("org.x.Alpha", 1), ("org.x.Mid", 1), ("org.x.Zeta", 1),
        ]

    def test_matches_the_sort_by_depth_then_name_reference(self):
        ties = 0
        for seed in range(60):
            rng = Random(seed)
            tree = random_tree(rng, max_depth=4, max_children=3)
            paths = {node.coordinate: node.path for node in tree.nodes}
            classpath = build_classpath(tree, Ecosystem.MAVEN).entries
            inventories = random_inventories(rng, max_classes=30, coordinates=classpath)
            expected = sorted(
                (
                    ShadowFinding(name, providers[0], providers[1:], paths[providers[0]])
                    for name, providers in first_provider_scan(inventories).items()
                    if len(providers) > 1
                ),
                key=lambda finding: (-finding.winner_depth, finding.class_name),
            )
            assert detect_shadowing(effective_classes(inventories), tree) == expected
            depths = [finding.winner_depth for finding in expected]
            ties += len(depths) - len(set(depths))
        assert ties > 100  # most findings share their depth with another

    @pytest.mark.parametrize("winner", ["g:ghost:1", "g:x:1"])
    def test_a_winner_that_is_no_included_node_is_refused(self, winner):
        # g:ghost:1 is absent from the tree; g:x:1 is a node omitted for g:x:2
        tree = build_tree(
            ("g:root:1", [
                ("g:a:1", [("g:x:1", [], OmittedConflict(coord("g:x:2")))]),
                ("g:x:2", []),
            ])
        )
        class_map = effective_classes([inventory(winner, "org.x.A"), inventory("g:a:1", "org.x.A")])
        with pytest.raises(UnknownArtifact, match=f"^{winner} is not an included node of the tree$"):
            detect_shadowing(class_map, tree)


def reach_of(tree, ecosystem, attacker):
    return hijack_reach(tree, build_classpath(tree, ecosystem), attacker)


def surface_of(tree, ecosystem, target):
    return hijack_surface(tree, build_classpath(tree, ecosystem), target)


class TestHijackGeometry:
    def attack_tree(self):
        return Run(FIXTURES / "deep-hijack", "com.example:Project:1.0").resolution.tree

    def test_maven_reach_of_a_deep_transitive_includes_a_direct_dep(self):
        reach = reach_of(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:D111:1.0"))
        victims = {victim.artifact_id for victim in reach}
        assert victims == {"D112", "D2", "D21", "D211", "D22", "D221"}

    def test_gradle_reach_of_the_same_node_misses_direct_deps(self):
        reach = reach_of(self.attack_tree(), Ecosystem.GRADLE, coord("com.example:D111:1.0"))
        victims = {victim.artifact_id for victim in reach}
        assert "D2" not in victims
        assert victims == {"D112", "D211", "D221"}

    def test_last_entry_reaches_nothing(self):
        tree = self.attack_tree()
        last = build_classpath(tree, Ecosystem.MAVEN).entries[-1]
        assert reach_of(tree, Ecosystem.MAVEN, last) == ()

    def test_surface_of_direct_dep_under_maven(self):
        surface = surface_of(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:D2:1.0"))
        assert {c.artifact_id for c in surface} == {"D1", "D11", "D111", "D112"}

    def test_first_entry_has_empty_surface(self):
        tree = self.attack_tree()
        first = build_classpath(tree, Ecosystem.MAVEN).entries[0]
        assert surface_of(tree, Ecosystem.MAVEN, first) == ()

    def test_cwa_surface_of_the_database_sdk_contains_the_validator(self):
        run = Run(FIXTURES / "cwa-server", "app.coronawarn:cwa-parent:3.2.0")
        surface = surface_of(
            run.resolution.tree, Ecosystem.MAVEN, coord("org.postgresql:postgresql:42.6.0")
        )
        names = {c.artifact_id for c in surface}
        assert "everit-json-schema" in names
        assert "json-schema-commons" in names

    @pytest.mark.parametrize("ecosystem", list(Ecosystem))
    def test_results_are_classpath_slices_in_classpath_order(self, ecosystem):
        tree = self.attack_tree()
        entries = build_classpath(tree, ecosystem).entries
        for position, entry in enumerate(entries):
            assert reach_of(tree, ecosystem, entry) == entries[position + 1 :]
            assert surface_of(tree, ecosystem, entry) == entries[:position]

    def test_unknown_artifact(self):
        with pytest.raises(UnknownArtifact):
            reach_of(self.attack_tree(), Ecosystem.MAVEN, coord("com.example:ghost:1.0"))

    def test_root_reaches_everything_and_has_no_surface(self):
        tree = self.attack_tree()
        root = tree.root.coordinate
        assert len(reach_of(tree, Ecosystem.MAVEN, root)) == 9
        assert surface_of(tree, Ecosystem.MAVEN, root) == ()

    @pytest.mark.parametrize("seed", range(30))
    def test_reach_is_antisymmetric(self, seed):
        rng = Random(seed)
        tree = random_tree(rng, max_depth=4, max_children=3)
        entries = build_classpath(tree, Ecosystem.MAVEN).entries
        if len(entries) < 2:
            return
        a, b = rng.sample(entries, 2)
        a_reaches_b = b in reach_of(tree, Ecosystem.MAVEN, a)
        b_reaches_a = a in reach_of(tree, Ecosystem.MAVEN, b)
        assert a_reaches_b != b_reaches_a

    @pytest.mark.parametrize("seed", range(30))
    def test_ancestors_always_sit_on_the_surface_of_descendants(self, seed):
        tree = random_tree(Random(seed + 300), max_depth=4, max_children=3)
        by_path = {node.path: node for node in tree.nodes}
        for node in tree.nodes:
            if node.depth >= 2:
                parent = by_path[node.path[:-1]]
                surface = surface_of(tree, Ecosystem.MAVEN, node.coordinate)
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
            return str(class_map.bindings[shared][0])

        assert winner(shape_a, shape_b) == provider_a
        assert winner(shape_b, shape_a) == provider_b


class TestCompareEcosystems:
    def test_attack_order_winner_differs_between_ecosystems(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        comparison = compare_ecosystems(run.resolution.tree, run.inventories)
        assert len(comparison.entries) == 1
        entry = comparison.entries[0]
        assert entry.class_name == NICE_CLASS
        assert str(entry.maven_winner) == "org.evil:fakelibrary:1.0"
        assert str(entry.gradle_winner) == "org.test:nicelibrary:1.2"
        assert comparison.flagged == (entry,)

    def test_clean_fixture_has_empty_comparison(self):
        run = Run(FIXTURES / "sample-app", "com.example:Project:1.0")
        comparison = compare_ecosystems(run.resolution.tree, run.inventories)
        assert comparison.entries == ()

    def test_duplicate_between_two_direct_deps_is_not_flagged(self):
        tree = build_tree(("g:root:1", [("g:a:1", []), ("g:b:1", [])]))
        inventories = [
            inventory("g:a:1", "org.x.Common"),
            inventory("g:b:1", "org.x.Common"),
        ]
        comparison = compare_ecosystems(tree, inventories)
        assert len(comparison.entries) == 1
        assert not comparison.entries[0].differs
        assert comparison.flagged == ()

    def test_an_inventory_off_the_classpath_is_an_unknown_artifact(self):
        tree = build_tree(("g:root:1", [("g:a:1", [])]))
        inventories = [inventory("g:a:1", "org.x.Common"), inventory("g:z:1", "org.x.Common")]
        with pytest.raises(UnknownArtifact, match="g:z:1 is not on the classpath"):
            compare_ecosystems(tree, inventories)

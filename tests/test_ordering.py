"""Classpath linearization and packaging layout listings."""

from __future__ import annotations

from random import Random

import pytest

from shadowscan.ordering import Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import (
    FIXTURES,
    build_tree,
    coord,
    make_repo,
    random_tree,
    reference_dfs_order,
    sample_tree,
)

MAVEN_SEQUENCE = ["D1", "D11", "D111", "D112", "D2", "D21", "D211", "D22", "D221"]
GRADLE_SEQUENCE = ["D1", "D2", "D11", "D21", "D22", "D111", "D112", "D211", "D221"]

FLAT_LINES = (
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

NESTED_LINES = (
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


def artifact_ids(entries):
    return [entry.artifact_id for entry in entries]


class TestBuildClasspath:
    def test_maven_order_is_depth_first(self):
        classpath = build_classpath(sample_tree(), Ecosystem.MAVEN)
        assert artifact_ids(classpath.entries) == MAVEN_SEQUENCE

    def test_gradle_order_is_level_order(self):
        classpath = build_classpath(sample_tree(), Ecosystem.GRADLE)
        assert artifact_ids(classpath.entries) == GRADLE_SEQUENCE

    def test_root_only_tree(self):
        tree = build_tree(("g:only:1.0", []))
        assert build_classpath(tree, Ecosystem.MAVEN).entries == ()
        assert build_classpath(tree, Ecosystem.GRADLE).entries == ()

    def test_omitted_nodes_never_reach_the_classpath(self, tmp_path):
        repo = load_repository(
            make_repo(
                tmp_path,
                {
                    "g:root:1": ["g:a:1", "g:b:1"],
                    "g:a:1": ["g:x:1.0"],
                    "g:b:1": ["g:x:2.0"],
                    "g:x:1.0": [],
                    "g:x:2.0": [],
                },
            )
        )
        tree = resolve(repo, fetch_pom(repo, coord("g:root:1"))).tree
        for ecosystem in Ecosystem:
            entries = build_classpath(tree, ecosystem).entries
            assert coord("g:x:1.0") in entries
            assert coord("g:x:2.0") not in entries
            assert len(entries) == len(set(entries))


class TestEmitLayout:
    def test_flat_listing(self):
        layout = emit_layout(sample_tree(), LayoutMode.FLAT)
        assert layout.lines == FLAT_LINES

    def test_nested_listing(self):
        layout = emit_layout(sample_tree(), LayoutMode.NESTED)
        assert layout.lines == NESTED_LINES

    def test_root_only_nested_keeps_just_the_classes_block(self):
        tree = build_tree(("g:only:1.0", []))
        layout = emit_layout(tree, LayoutMode.NESTED)
        assert layout.lines == ("+-BOOT-INF", "  +-classes", "  |  +-Main.class")

    def test_root_only_flat(self):
        tree = build_tree(("g:only:1.0", []))
        layout = emit_layout(tree, LayoutMode.FLAT)
        assert layout.lines == ("+-META-INF", "|  +-MANIFEST.MF", "+-Main.class")


class TestOrderingProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_layouts_and_maven_classpath_agree(self, seed):
        tree = random_tree(Random(seed), max_depth=4, max_children=3)
        maven = [entry.artifact_id for entry in build_classpath(tree, Ecosystem.MAVEN).entries]
        flat = [
            line[2:-len(".class")]
            for line in emit_layout(tree, LayoutMode.FLAT).lines
            if line.endswith(".class") and line != "+-Main.class"
        ]
        nested = [
            line[len("  |  +-"):-len(".jar")]
            for line in emit_layout(tree, LayoutMode.NESTED).lines
            if line.endswith(".jar")
        ]
        assert flat == maven
        assert nested == maven

    @pytest.mark.parametrize("seed", range(40))
    def test_direct_dependencies_prefix_gradle_classpath(self, seed):
        tree = random_tree(Random(seed + 500), max_depth=4, max_children=3)
        direct = [child.coordinate for child in tree.root.children]
        entries = build_classpath(tree, Ecosystem.GRADLE).entries
        assert list(entries[: len(direct)]) == direct

    @pytest.mark.parametrize("seed", range(20))
    def test_classpaths_are_permutations_of_each_other(self, seed):
        tree = random_tree(Random(seed + 900), max_depth=4, max_children=3)
        maven = build_classpath(tree, Ecosystem.MAVEN).entries
        gradle = build_classpath(tree, Ecosystem.GRADLE).entries
        assert sorted(maven) == sorted(gradle)

    def test_maven_classpath_equals_pruned_preorder(self):
        tree = sample_tree()
        expected = [node.coordinate for node in reference_dfs_order(tree, include_omitted=False)[1:]]
        assert list(build_classpath(tree, Ecosystem.MAVEN).entries) == expected

    def test_gradle_classpath_equals_pruned_level_order(self):
        tree = sample_tree()
        expected = [node.coordinate for node in tree.nodes if node.included][1:]
        assert list(build_classpath(tree, Ecosystem.GRADLE).entries) == expected


class TestFixtureReproduction:
    def test_resolved_fixture_produces_the_published_listing_orders(self):
        repo = load_repository(FIXTURES / "sample-app")
        tree = resolve(repo, fetch_pom(repo, coord("com.example:Project:1.0"))).tree
        assert artifact_ids(build_classpath(tree, Ecosystem.MAVEN).entries) == MAVEN_SEQUENCE
        assert emit_layout(tree, LayoutMode.FLAT).lines == FLAT_LINES
        assert emit_layout(tree, LayoutMode.NESTED).lines == NESTED_LINES

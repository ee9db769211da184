"""The optimized validators, analyses and report writer match their straightforward references."""

from __future__ import annotations

import json
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan.analysis import compare_ecosystems, detect_shadowing, effective_classes
from shadowscan.cli import _json_report
from shadowscan.errors import InvalidClassName, InvalidCoordinate
from shadowscan.mitigations import (
    check_ban_duplicate_classes,
    check_modules,
    check_sealed,
)
from shadowscan.model import (
    Coordinate,
    FullyQualifiedClassName,
    GroupArtifact,
    check_invariants,
)
from shadowscan.ordering import Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import fetch_pom
from shadowscan.resolver import resolve
from tests.helpers import (
    full_expansion_winners,
    memory_repo,
    random_conflict_repo,
    random_inventories,
    random_tree,
    reference_check_modules,
    reference_check_sealed,
    reference_class_name_ok,
    reference_compare_ecosystems,
    reference_comparison_payload,
    reference_conflicts_payload,
    reference_dfs_order,
    reference_findings_payload,
    reference_node_payload,
    reference_token_ok,
    reference_verdict_payload,
)

# separators, inner-class markers, ASCII and Unicode whitespace, letters
ALPHABET = list(".:/$aZé") + [" ", "\t", "\n", "\x1c", "\x85", "\xa0", " ", "　"]
NAMES = st.one_of(st.text(alphabet=ALPHABET, max_size=12), st.text(max_size=12))


def accepts(constructor, error, value) -> bool:
    try:
        constructor(value)
    except error:
        return False
    return True


@given(NAMES)
def test_class_name_rule_matches_the_per_segment_reference(value):
    accepted = accepts(FullyQualifiedClassName, InvalidClassName, value)
    assert accepted == reference_class_name_ok(value)


@given(NAMES)
def test_coordinate_token_rule_matches_the_per_character_reference(value):
    for build in (
        lambda token: GroupArtifact(token, "a"),
        lambda token: GroupArtifact("g", token),
        lambda token: Coordinate.of("g", "a", token),
    ):
        assert accepts(build, InvalidCoordinate, value) == reference_token_ok(value)


@given(st.randoms(use_true_random=False))
def test_check_sealed_matches_the_list_reference(rng):
    inventories = random_inventories(rng, max_artifacts=20, max_classes=60, seal=True)
    class_map = effective_classes(inventories)
    assert check_sealed(inventories, class_map) == reference_check_sealed(inventories, class_map)


@given(st.randoms(use_true_random=False), st.booleans())
def test_check_modules_matches_the_list_reference(rng, root_is_module):
    inventories = random_inventories(rng, max_artifacts=20, max_classes=60, seal=True)
    assert check_modules(inventories, root_is_module) == reference_check_modules(
        inventories, root_is_module
    )


@given(st.randoms(use_true_random=False))
def test_compare_ecosystems_matches_the_two_map_reference(rng):
    tree = random_tree(rng, max_depth=4, max_children=3)
    coordinates = build_classpath(tree, Ecosystem.MAVEN).entries
    inventories = random_inventories(rng, max_classes=60, coordinates=coordinates)
    by_coordinate = {inventory.coordinate: inventory for inventory in inventories}
    assert compare_ecosystems(tree, by_coordinate) == reference_compare_ecosystems(
        tree, by_coordinate
    )


# JSON values: non-ASCII, control-character and lone-surrogate strings, big
# ints of either sign, and arrays written from lists or tuples
STRINGS = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = st.none() | st.booleans() | st.integers(-(2**80), 2**80) | STRINGS
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=30,
)


def dumped(command, inputs, payload) -> str:
    """What the report was before the writer: json.dumps of the whole document."""
    document = {"schema_version": 1, "command": command, "inputs": inputs, "payload": payload}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


@given(STRINGS, st.dictionaries(STRINGS, DOCUMENTS, max_size=3), DOCUMENTS)
def test_report_writer_matches_json_dumps(command, inputs, payload):
    assert _json_report(command, inputs, payload) == dumped(command, inputs, payload)


@given(st.randoms(use_true_random=False))
def test_tree_report_matches_the_node_payload_reference(rng):
    root = random_tree(rng, max_depth=4, max_children=3).root
    assert _json_report("resolve", {}, {"tree": root}) == dumped(
        "resolve", {}, {"tree": reference_node_payload(root)}
    )


@given(st.integers(0, 2**32))
def test_resolution_report_matches_the_payload_references(seed):
    poms, root_text = random_conflict_repo(Random(seed))
    repo = memory_repo(poms)
    resolution = resolve(repo, fetch_pom(repo, Coordinate.parse(root_text)))
    expected = {
        "tree": reference_node_payload(resolution.tree.root),
        "conflicts": reference_conflicts_payload(resolution),
    }
    payload = {"tree": resolution.tree.root, "conflicts": resolution.conflicts}
    assert _json_report("resolve", {}, payload) == dumped("resolve", {}, expected)


@st.composite
def deep_wide_repos(draw):
    """An acyclic POM set of up to 65 artifacts and the length of its longest path.

    Artifact j hangs below an earlier one: the one just before it (a chain as
    deep as the default depth limit), one of the first few (a wide, shallow
    tree) or any. Extra edges make duplicates, and a pool of fewer
    group:artifacts than artifacts makes version conflicts.
    """
    count = draw(st.one_of(st.just(65), st.integers(2, 65)))
    shape = draw(st.sampled_from(["chain", "fan", "random"]))
    fan = draw(st.integers(1, 4))
    pool = draw(st.sampled_from([count, draw(st.integers(1, count))]))
    texts = ["org.gen:root:1.0"] + [
        f"org.gen:lib{j if pool == count else draw(st.integers(0, pool - 1))}:{j}.0"
        for j in range(1, count)
    ]
    edges = []
    for j in range(1, count):
        low, high = {"chain": (j - 1, j - 1), "fan": (0, min(j, fan) - 1), "random": (0, j - 1)}[shape]
        edges.append((draw(st.integers(low, high)), j))
    for _ in range(draw(st.integers(0, 6))):
        parent = draw(st.integers(0, count - 2))
        edges.append((parent, draw(st.integers(parent + 1, count - 1))))
    declared: list[list[int]] = [[] for _ in texts]
    for parent, child in draw(st.permutations(edges)):
        ga = texts[child].rpartition(":")[0]
        if all(texts[other].rpartition(":")[0] != ga for other in declared[parent]):
            declared[parent].append(child)
    longest = [0] * count
    for position in reversed(range(count)):
        longest[position] = max((1 + longest[child] for child in declared[position]), default=0)
    poms = {text: [texts[child] for child in declared[at]] for at, text in enumerate(texts)}
    return poms, longest[0]


@settings(max_examples=200)
@given(deep_wide_repos())
def test_deep_and_wide_trees_match_the_full_expansion_oracle(repo_and_depth):
    poms, max_depth = repo_and_depth
    repo = memory_repo(poms)
    root = fetch_pom(repo, Coordinate.parse("org.gen:root:1.0"))
    tree = resolve(repo, root, max_depth=max_depth).tree
    check_invariants(tree)
    included = {
        str(node.coordinate.ga): (node.coordinate.version, node.path)
        for node in tree.nodes
        if node.included
    }
    assert included == full_expansion_winners(poms, "org.gen:root:1.0", max_depth)
    assert list(tree.nodes) == sorted(tree.nodes, key=lambda node: (node.depth, node.path))


@settings(max_examples=200)
@given(deep_wide_repos())
def test_maven_order_of_deep_and_wide_trees_is_the_preorder_walk(repo_and_depth):
    poms, max_depth = repo_and_depth
    repo = memory_repo(poms)
    tree = resolve(repo, fetch_pom(repo, Coordinate.parse("org.gen:root:1.0")), max_depth).tree
    walked = [node.coordinate for node in reference_dfs_order(tree, include_omitted=False)[1:]]
    assert list(build_classpath(tree, Ecosystem.MAVEN).entries) == walked
    artifact_ids = [coordinate.artifact_id for coordinate in walked]
    assert emit_layout(tree, LayoutMode.FLAT).lines[3:] == tuple(
        f"+-{artifact_id}.class" for artifact_id in artifact_ids
    )
    assert emit_layout(tree, LayoutMode.NESTED).lines[5:] == tuple(
        f"  |  +-{artifact_id}.jar" for artifact_id in artifact_ids
    )


@given(st.randoms(use_true_random=False), st.booleans())
def test_findings_verdicts_and_comparison_match_the_payload_references(rng, root_is_module):
    tree = random_tree(rng, max_depth=4, max_children=3)
    coordinates = build_classpath(tree, Ecosystem.MAVEN).entries
    inventories = random_inventories(rng, max_classes=60, coordinates=coordinates, seal=True)
    class_map = effective_classes(inventories)
    findings = detect_shadowing(class_map, tree)
    verdicts = [
        check_ban_duplicate_classes(class_map, ()),
        check_sealed(inventories, class_map),
        check_modules(inventories, root_is_module),
    ]
    by_coordinate = {inventory.coordinate: inventory for inventory in inventories}
    comparison = compare_ecosystems(tree, by_coordinate)
    payload = {"findings": findings, "verdicts": verdicts, "classes": comparison.entries}
    expected = {
        "findings": reference_findings_payload(findings),
        "verdicts": [reference_verdict_payload(verdict) for verdict in verdicts],
        "classes": reference_comparison_payload(comparison),
    }
    assert _json_report("mixed", {}, payload) == dumped("mixed", {}, expected)

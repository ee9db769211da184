"""The optimized validators and analyses match their straightforward references."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from shadowscan.analysis import compare_ecosystems, effective_classes
from shadowscan.errors import InvalidClassName, InvalidCoordinate
from shadowscan.mitigations import check_modules, check_sealed
from shadowscan.model import Coordinate, FullyQualifiedClassName, GroupArtifact
from shadowscan.ordering import Ecosystem, build_classpath
from tests.helpers import (
    random_inventories,
    random_tree,
    reference_check_modules,
    reference_check_sealed,
    reference_class_name_ok,
    reference_compare_ecosystems,
    reference_token_ok,
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

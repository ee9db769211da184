"""Core type invariants and tree traversal order."""

from __future__ import annotations

import copy
import pickle
import re
from random import Random

import pytest

from shadowscan.errors import InvalidClassName, InvalidCoordinate
from shadowscan.model import (
    INCLUDED,
    Coordinate,
    OmittedConflict,
    PomDocument,
    ResolvedNode,
    ResolvedTree,
    check_class_name,
    check_invariants,
    package_of,
)
from tests.helpers import (
    build_tree,
    coord,
    random_tree,
    reference_dfs_order,
    sample_tree,
    tree_of,
)


def artifact_ids(nodes):
    return [node.coordinate.artifact_id for node in nodes]


class TestCoordinates:
    def test_display_form(self):
        assert str(coord("org.test:nicelibrary:1.2")) == "org.test:nicelibrary:1.2"

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(InvalidCoordinate, match="expected group:artifact:version, got"):
            Coordinate("org.test:nicelibrary")
        with pytest.raises(InvalidCoordinate, match="expected group:artifact:version, got"):
            Coordinate("a:b:c:d")

    @pytest.mark.parametrize("value", ["", "has space", "has:colon", "has\ttab"])
    def test_token_grammar(self, value):
        problem = "must be a nonempty string" if not value else f"{value!r} must not contain"
        for label, tokens in (
            ("group id", (value, "ok", "1")),
            ("artifact id", ("ok", value, "1")),
            ("version", ("g", "a", value)),
        ):
            with pytest.raises(InvalidCoordinate, match=re.escape(f"{label} {problem}")):
                Coordinate.of(*tokens)

    def test_ordering_is_textual_and_case_sensitive(self):
        # "1" sorts before ":", so by text g1:a:1 precedes g:a:1, unlike by fields
        assert coord("g1:a:1") < coord("g:a:1")
        assert sorted([coord("g:a:1"), coord("g1:a:1")]) == ["g1:a:1", "g:a:1"]
        assert coord("a:B:1") != coord("a:b:1")
        assert coord("g:a:1.0") < coord("g:a:2.0")


class TestCoordinateText:
    """A coordinate is its validated ``group:artifact:version`` text."""

    def test_text_is_group_artifact_version_on_every_call(self):
        coordinate = Coordinate.of("org.test", "nicelibrary", "1.2")
        texts = [str(coordinate), str(coordinate), f"{coordinate}", str(coordinate)]
        assert texts == ["org.test:nicelibrary:1.2"] * 4

    @pytest.mark.parametrize("printed_first", [False, True])
    def test_fields_equality_hash_order_and_repr_ignore_the_text(self, printed_first):
        coordinate, fresh = coord("g:a:1"), coord("g:a:1")
        if printed_first:
            str(coordinate)
        parts = (coordinate.group_id, coordinate.artifact_id, coordinate.version)
        assert parts == ("g", "a", "1") and coordinate.ga == "g:a"
        assert coordinate == fresh and hash(coordinate) == hash(fresh)
        assert not coordinate < fresh and not fresh < coordinate
        assert sorted([coord("g:b:0"), coordinate, coord("g:a:0")]) == [
            coord("g:a:0"), fresh, coord("g:b:0"),
        ]
        assert repr(coordinate) == repr(fresh) == "'g:a:1'"

    @pytest.mark.parametrize("printed_first", [False, True])
    def test_copy_and_pickle_round_trip(self, printed_first):
        coordinate = coord("org.test:nicelibrary:1.2")
        if printed_first:
            str(coordinate)
        for clone in (copy.copy(coordinate), pickle.loads(pickle.dumps(coordinate))):
            assert clone == coordinate and hash(clone) == hash(coordinate)
            assert repr(clone) == repr(coordinate)
            assert str(clone) == "org.test:nicelibrary:1.2"


class TestPomDocument:
    def test_same_artifact_different_group_is_fine(self):
        document = PomDocument(
            coord("g:a:1"),
            (coord("g1:b:1"), coord("g2:b:1")),
        )
        assert len(document.dependencies) == 2


class TestResolvedNode:
    def test_a_field_cannot_be_assigned_or_deleted(self):
        node = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED)
        for name in ResolvedNode._fields:
            with pytest.raises(AttributeError):
                setattr(node, name, ())
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert node == ResolvedNode(coord("g:a:1"), (), 0, INCLUDED)

    def test_equality_hash_and_repr_leave_the_children_out(self):
        bare = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED)
        parent = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, (bare,))
        assert (parent, hash(parent), repr(parent)) == (bare, hash(bare), repr(bare))
        assert repr(bare) == (
            "ResolvedNode(coordinate='g:a:1', path=(), bfs_index=0, status=Included())"
        )
        others = [
            ResolvedNode(coord("g:a:2"), (), 0, INCLUDED),
            ResolvedNode(coord("g:a:1"), (0,), 0, INCLUDED),
            ResolvedNode(coord("g:a:1"), (), 1, INCLUDED),
            ResolvedNode(coord("g:a:1"), (), 0, OmittedConflict(coord("g:a:2"))),
        ]
        assert all(other != bare for other in others)
        assert bare != (coord("g:a:1"), (), 0, INCLUDED)
        assert tuple(bare) != bare


class TestFullyQualifiedClassName:
    """A class name is a plain ``str`` that ``check_class_name`` accepts."""

    def test_package_of(self):
        name = check_class_name("org.test.NiceClass")
        assert type(name) is str and name == "org.test.NiceClass"
        assert package_of(name) == "org.test"

    def test_single_segment_has_default_package(self):
        assert package_of(check_class_name("Main")) == ""

    def test_inner_class_marker_kept(self):
        assert check_class_name("org.x.Outer$Inner") == "org.x.Outer$Inner"
        assert package_of("org.x.Outer$Inner") == "org.x"
        assert package_of(check_class_name("Outer$Inner")) == ""

    @pytest.mark.parametrize("value", ["", ".", "org..test", "org/test.Foo", "org. test.X"])
    def test_invalid_names(self, value):
        with pytest.raises(InvalidClassName, match="invalid fully qualified class name"):
            check_class_name(value)


class TestTreeValidation:
    def test_root_must_be_included_at_empty_path(self):
        node = ResolvedNode(coord("g:a:1"), (), 0, OmittedConflict(coord("g:a:2")))
        with pytest.raises(ValueError):
            check_invariants(tree_of(node))

    def test_bfs_indices_must_match_level_order(self):
        child = ResolvedNode(coord("g:b:1"), (0,), 2, INCLUDED)
        root = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, (child,))
        with pytest.raises(ValueError):
            check_invariants(tree_of(root))

    def test_two_included_nodes_per_group_artifact_rejected(self):
        children = (
            ResolvedNode(coord("g:b:1"), (0,), 1, INCLUDED),
            ResolvedNode(coord("g:b:2"), (1,), 2, INCLUDED),
        )
        root = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, children)
        with pytest.raises(ValueError):
            check_invariants(tree_of(root))

    def test_omitted_node_must_be_childless(self):
        grandchild = ResolvedNode(coord("g:c:1"), (0, 0), 2, INCLUDED)
        child = ResolvedNode(
            coord("g:b:1"), (0,), 1, OmittedConflict(coord("g:b:2")), (grandchild,)
        )
        root = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, (child,))
        with pytest.raises(ValueError):
            check_invariants(tree_of(root))

    def test_included_must_precede_omitted_occurrence(self):
        children = (
            ResolvedNode(coord("g:b:2"), (0,), 1, OmittedConflict(coord("g:b:1"))),
            ResolvedNode(coord("g:b:1"), (1,), 2, INCLUDED),
        )
        root = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, children)
        with pytest.raises(ValueError):
            check_invariants(tree_of(root))

    def test_child_path_must_extend_the_parent_path(self):
        child = ResolvedNode(coord("g:b:1"), (1,), 1, INCLUDED)
        root = ResolvedNode(coord("g:a:1"), (), 0, INCLUDED, (child,))
        with pytest.raises(ValueError, match=r"child at \(1,\) does not extend parent path \(\)"):
            check_invariants(tree_of(root))

    def test_nodes_must_be_the_level_order_walk(self):
        tree = sample_tree()
        check_invariants(tree)
        with pytest.raises(ValueError):
            check_invariants(ResolvedTree(tree.nodes[:-1]))
        with pytest.raises(ValueError):
            check_invariants(ResolvedTree(()))


class TestTraversals:
    def test_level_order_of_sample_tree(self):
        nodes = sample_tree().nodes
        assert artifact_ids(nodes) == [
            "Project", "D1", "D2", "D11", "D21", "D22", "D111", "D112", "D211", "D221",
        ]

    def test_bfs_index_equals_position(self):
        nodes = sample_tree().nodes
        assert [node.bfs_index for node in nodes] == list(range(len(nodes)))

    def test_single_node_tree(self):
        tree = build_tree(("g:only:1.0", []))
        assert tree.nodes == (tree.root,)
        assert reference_dfs_order(tree) == [tree.root]

    def test_preorder_of_sample_tree(self):
        nodes = reference_dfs_order(sample_tree())
        assert artifact_ids(nodes) == [
            "Project", "D1", "D11", "D111", "D112", "D2", "D21", "D211", "D22", "D221",
        ]

    def test_deep_node_position_in_level_order(self):
        by_artifact = {n.coordinate.artifact_id: n for n in sample_tree().nodes}
        assert by_artifact["D111"].bfs_index == 6

    def test_omitted_nodes_skipped_when_asked(self):
        e = "com.example"
        tree = build_tree(
            (f"{e}:Project:1.0", [
                (f"{e}:D1:1.0", [
                    (f"{e}:D11:1.0", [], OmittedConflict(coord(f"{e}:D11:2.0"))),
                ]),
                (f"{e}:D2:1.0", [
                    (f"{e}:D21:1.0", [(f"{e}:D211:1.0", [])]),
                    (f"{e}:D22:1.0", [(f"{e}:D221:1.0", [])]),
                ]),
            ])
        )
        skipped = reference_dfs_order(tree, include_omitted=False)
        assert artifact_ids(skipped) == ["Project", "D1", "D2", "D21", "D211", "D22", "D221"]
        assert len(reference_dfs_order(tree, include_omitted=True)) == len(skipped) + 1


class TestTraversalProperties:
    # independent orderings: level order is (depth, path) and pre-order is plain
    # path order, both under lexicographic tuple comparison

    @pytest.mark.parametrize("seed", range(25))
    def test_against_path_sort_oracles(self, seed):
        tree = random_tree(Random(seed), max_depth=4, max_children=3)
        nodes = list(tree.nodes)
        assert nodes == sorted(nodes, key=lambda n: (n.depth, n.path))
        assert reference_dfs_order(tree) == sorted(nodes, key=lambda n: n.path)

    @pytest.mark.parametrize("seed", range(25))
    def test_same_node_set(self, seed):
        tree = random_tree(Random(seed + 100), max_depth=4, max_children=3)
        assert set(tree.nodes) == set(reference_dfs_order(tree, include_omitted=True))

    def test_parent_visited_before_descendants(self):
        tree = random_tree(Random(7), max_depth=4, max_children=3)
        positions = {node.path: i for i, node in enumerate(reference_dfs_order(tree))}
        for node in tree.nodes:
            if node.path:
                assert positions[node.path[:-1]] < positions[node.path]

    def test_levels_complete_before_next_starts(self):
        tree = random_tree(Random(8), max_depth=4, max_children=3)
        depths = [node.depth for node in tree.nodes]
        assert depths == sorted(depths)

"""Breadth-first expansion and nearest-wins conflict resolution."""

from __future__ import annotations

import copy
import pickle
from random import Random

import pytest

from shadowscan import errors
from shadowscan.cli import Run
from shadowscan.errors import DepthLimitExceeded, UnresolvableDependency
from shadowscan.model import OmittedConflict, OmittedDuplicate, check_invariants
from shadowscan.pom import fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import (
    FIXTURE_ROOTS,
    FIXTURES,
    coord,
    full_expansion_winners,
    json_report,
    make_repo,
    memory_repo,
    random_conflict_repo,
)


def checked_resolve(repo, root_text, **kwargs):
    report = resolve(repo, fetch_pom(repo, coord(root_text)), **kwargs)
    check_invariants(report.tree)
    return report


def resolve_repo(tmp_path, poms, root_text, **kwargs):
    return checked_resolve(load_repository(make_repo(tmp_path, poms)), root_text, **kwargs)


def status_by_artifact(tree):
    return {str(node.coordinate): node.status for node in tree.nodes}


class TestCleanResolution:
    def test_sample_fixture_has_ten_included_nodes(self):
        repo = load_repository(FIXTURES / "sample-app")
        report = checked_resolve(repo, "com.example:Project:1.0")
        nodes = report.tree.nodes
        assert len(nodes) == 10
        assert all(node.included for node in nodes)
        assert report.conflicts == ()

    def test_children_follow_declaration_order(self):
        repo = load_repository(FIXTURES / "sample-app")
        for node in checked_resolve(repo, "com.example:Project:1.0").tree.nodes:
            declared = fetch_pom(repo, node.coordinate).dependencies
            assert [c.coordinate for c in node.children] == list(declared)


class TestConflicts:
    def test_shallower_version_wins(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {
                "g:root:1": ["g:d1:1", "g:d2:1"],
                "g:d1:1": ["g:d11:1"],
                "g:d11:1": ["g:x:1.0"],
                "g:d2:1": ["g:x:2.0"],
                "g:x:1.0": [],
                "g:x:2.0": [],
            },
            "g:root:1",
        )
        statuses = status_by_artifact(report.tree)
        assert statuses["g:x:2.0"].__class__.__name__ == "Included"
        assert statuses["g:x:1.0"] == OmittedConflict(winner=coord("g:x:2.0"))
        assert len(report.conflicts) == 1
        conflict = report.conflicts[0]
        assert str(conflict.winner.coordinate) == "g:x:2.0"
        assert [str(loser.coordinate) for loser in conflict.losers] == ["g:x:1.0"]

    def test_equal_depth_breaks_by_declaration_order(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {
                "g:root:1": ["g:d1:1", "g:d2:1"],
                "g:d1:1": ["g:x:1.0"],
                "g:d2:1": ["g:x:2.0"],
                "g:x:1.0": [],
                "g:x:2.0": [],
            },
            "g:root:1",
        )
        statuses = status_by_artifact(report.tree)
        assert statuses["g:x:1.0"].__class__.__name__ == "Included"
        assert statuses["g:x:2.0"] == OmittedConflict(winner=coord("g:x:1.0"))

    def test_identical_coordinate_is_a_duplicate_not_a_conflict(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {
                "g:root:1": ["g:d1:1", "g:d2:1"],
                "g:d1:1": ["g:x:1.0"],
                "g:d2:1": ["g:x:1.0"],
                "g:x:1.0": [],
            },
            "g:root:1",
        )
        statuses = status_by_artifact(report.tree)
        # the first occurrence sits under d1 at path (0, 0)
        duplicates = [
            node for node in report.tree.nodes
            if isinstance(node.status, OmittedDuplicate)
        ]
        assert len(duplicates) == 1
        assert duplicates[0].path == (1, 0)
        assert duplicates[0].status.first_occurrence_path == (0, 0)
        assert statuses["g:x:1.0"].__class__.__name__ in ("Included", "OmittedDuplicate")
        assert report.conflicts == ()

    def test_losing_subtree_never_expands(self, tmp_path):
        # the loser g:e:1.0 would pull in g:hidden:1, which must not appear
        report = resolve_repo(
            tmp_path,
            {
                "g:root:1": ["g:e:2.0", "g:c:1"],
                "g:c:1": ["g:e:1.0"],
                "g:e:1.0": ["g:hidden:1"],
                "g:e:2.0": [],
                "g:hidden:1": [],
            },
            "g:root:1",
        )
        coordinates = {str(node.coordinate) for node in report.tree.nodes}
        assert "g:hidden:1" not in coordinates
        for node in report.tree.nodes:
            if not node.included:
                assert node.children == ()

    def test_losing_version_of_a_loser_still_points_at_the_winner(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {
                "g:root:1": ["g:a:1", "g:b:1", "g:c:1"],
                "g:a:1": ["g:x:1.0"],
                "g:b:1": ["g:x:2.0"],
                "g:c:1": ["g:x:2.0"],
                "g:x:1.0": [],
                "g:x:2.0": [],
            },
            "g:root:1",
        )
        losers = report.conflicts[0].losers
        assert [str(loser.coordinate) for loser in losers] == ["g:x:2.0", "g:x:2.0"]
        for node in report.tree.nodes:
            if str(node.coordinate) == "g:x:2.0":
                assert node.status == OmittedConflict(winner=coord("g:x:1.0"))


class TestCycles:
    def test_two_artifact_cycle_terminates(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {"g:root:1": ["g:a:1"], "g:a:1": ["g:b:1"], "g:b:1": ["g:a:1"]},
            "g:root:1",
        )
        nodes = report.tree.nodes
        assert [str(node.coordinate) for node in nodes] == [
            "g:root:1", "g:a:1", "g:b:1", "g:a:1",
        ]
        assert isinstance(nodes[-1].status, OmittedDuplicate)
        assert nodes[-1].status.first_occurrence_path == (0,)

    def test_self_cycle(self, tmp_path):
        report = resolve_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": ["g:a:1"]}, "g:root:1")
        nodes = report.tree.nodes
        assert len(nodes) == 3
        assert isinstance(nodes[-1].status, OmittedDuplicate)

    def test_version_cycle_is_a_conflict(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {"g:root:1": ["g:a:1.0"], "g:a:1.0": ["g:a:2.0"], "g:a:2.0": []},
            "g:root:1",
        )
        statuses = status_by_artifact(report.tree)
        assert statuses["g:a:2.0"] == OmittedConflict(winner=coord("g:a:1.0"))

    def test_dependency_on_root_group_artifact_loses_to_root(self, tmp_path):
        report = resolve_repo(
            tmp_path,
            {"g:root:1": ["g:a:1"], "g:a:1": ["g:root:2"], "g:root:2": []},
            "g:root:1",
        )
        statuses = status_by_artifact(report.tree)
        assert statuses["g:root:2"] == OmittedConflict(winner=coord("g:root:1"))


class TestErrors:
    def test_unresolvable_dependency_carries_requester(self, tmp_path):
        make_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": ["g:ghost:1"]})
        repo = load_repository(tmp_path)
        with pytest.raises(UnresolvableDependency) as excinfo:
            resolve(repo, fetch_pom(repo, coord("g:root:1")))
        assert excinfo.value.coordinate == coord("g:ghost:1")
        assert excinfo.value.requester_path == (0,)

    @pytest.mark.parametrize("cls", [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, Exception)
    ], ids=lambda cls: cls.__name__)
    def test_an_error_survives_a_pickle_round_trip(self, cls):
        if cls is UnresolvableDependency:
            error = cls(coord("g:ghost:1"), [0, 2])
            assert str(error) == "cannot resolve g:ghost:1, requested by the node at path [0, 2]"
        else:
            error = cls("boom")
        copied = pickle.loads(pickle.dumps(error))
        assert (type(copied), str(copied)) == (cls, str(error))
        assert vars(copied) == vars(error)

    def test_depth_limit(self, tmp_path):
        chain = {f"g:a{i}:1": [f"g:a{i + 1}:1"] for i in range(70)}
        chain["g:a70:1"] = []
        repo = load_repository(make_repo(tmp_path, chain))
        with pytest.raises(DepthLimitExceeded):
            resolve(repo, fetch_pom(repo, coord("g:a0:1")))

    def test_depth_limit_is_configurable(self, tmp_path):
        poms = {"g:root:1": ["g:a:1"], "g:a:1": ["g:b:1"], "g:b:1": []}
        with pytest.raises(DepthLimitExceeded):
            resolve_repo(tmp_path, poms, "g:root:1", max_depth=1)

    def test_zero_depth_keeps_only_the_root(self, tmp_path):
        report = resolve_repo(tmp_path, {"g:root:1": []}, "g:root:1", max_depth=0)
        assert len(report.tree.nodes) == 1

    def test_negative_depth_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            resolve_repo(tmp_path, {"g:root:1": []}, "g:root:1", max_depth=-1)


class TestResolutionProperties:
    def test_deterministic(self, tmp_path):
        poms, root_text = random_conflict_repo(Random(3))
        repo = load_repository(make_repo(tmp_path, poms))
        assert checked_resolve(repo, root_text) == checked_resolve(repo, root_text)

    @pytest.mark.parametrize("seed", range(150))
    def test_matches_full_expansion_oracle(self, seed, tmp_path):
        poms, root_text = random_conflict_repo(Random(seed))
        repo = load_repository(make_repo(tmp_path, poms))
        report = checked_resolve(repo, root_text)

        expected = full_expansion_winners(poms, root_text)
        included = {
            str(node.coordinate.ga): (node.coordinate.version, node.path)
            for node in report.tree.nodes
            if node.included
        }
        assert included == expected

        # shape: included nodes mirror their POM declarations, losers are leaves
        for node in report.tree.nodes:
            if node.included:
                declared = poms[str(node.coordinate)]
                assert [str(child.coordinate) for child in node.children] == declared
            else:
                assert node.children == ()

        # every multiply-occurring group:artifact is either in the conflict
        # table or only repeats as literal duplicates
        occurrences: dict[str, list] = {}
        for node in report.tree.nodes:
            occurrences.setdefault(str(node.coordinate.ga), []).append(node)
        conflicted = {str(conflict.group_artifact) for conflict in report.conflicts}
        for ga, nodes in occurrences.items():
            if len(nodes) >= 2 and ga not in conflicted:
                assert all(
                    isinstance(node.status, OmittedDuplicate)
                    for node in nodes
                    if not node.included
                )

    def test_a_chain_deeper_than_the_recursion_limit_compares_hashes_and_prints(self):
        texts = [f"g:c{level}:1" for level in range(2001)]
        poms = {text: [following] for text, following in zip(texts, texts[1:])}
        poms[texts[-1]] = []
        repo = memory_repo(poms)
        report = checked_resolve(repo, texts[0], max_depth=2000)
        assert report == checked_resolve(repo, texts[0], max_depth=2000)
        assert len({hash(node) for node in report.tree.nodes}) == 2001
        assert repr(report.tree.root).startswith("ResolvedNode(coordinate=")


def chain_resolution(levels):
    """The resolution of a chain of ``levels`` dependencies below the root."""
    texts = [f"g:c{level}:1" for level in range(levels + 1)]
    poms = {text: [following] for text, following in zip(texts, texts[1:])}
    poms[texts[-1]] = []
    repo = memory_repo(poms)
    return resolve(repo, fetch_pom(repo, coord(texts[0])), max_depth=levels)


CHAINS = {"chain-500": 500, "chain-5000": 5000}


@pytest.mark.parametrize("name", [*sorted(FIXTURE_ROOTS), *CHAINS])
@pytest.mark.parametrize(
    "duplicate", [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_a_resolved_tree_crosses_a_process_boundary(name, duplicate):
    if name in CHAINS:  # deeper than pickle and deepcopy can recurse
        resolution = chain_resolution(CHAINS[name])
    else:
        resolution = Run(FIXTURES / name, FIXTURE_ROOTS[name]).resolution
    copied = duplicate(resolution)
    assert copied is not resolution and copied == resolution
    # equality leaves children out; the invariants and the report walk them
    check_invariants(copied.tree)
    assert [node.coordinate for node in copied.tree.nodes] == [
        node.coordinate for node in resolution.tree.nodes
    ]
    if name not in CHAINS:  # a chain's JSON report nests too deep to write
        assert json_report("resolve", {}, copied) == json_report("resolve", {}, resolution)

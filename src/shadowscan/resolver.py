"""Breadth-first tree expansion with nearest-wins conflict resolution."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from shadowscan.errors import DepthLimitExceeded, PomNotFound, UnresolvableDependency
from shadowscan.model import (
    INCLUDED,
    Coordinate,
    GroupArtifact,
    NodeStatus,
    OmittedConflict,
    OmittedDuplicate,
    PomDocument,
    ResolvedNode,
    ResolvedTree,
    TreePath,
)
from shadowscan.pom import Repository, fetch_pom

DEFAULT_MAX_DEPTH = 64


class Occurrence(NamedTuple):
    """A coordinate at a specific tree position."""

    coordinate: Coordinate
    path: TreePath


class Conflict(NamedTuple):
    """The version-conflicted occurrences of one group:artifact."""

    group_artifact: GroupArtifact
    winner: Occurrence
    losers: tuple[Occurrence, ...]


class ResolutionReport(NamedTuple):
    """Outcome of resolve(): the pruned tree plus its conflict table."""

    tree: ResolvedTree
    conflicts: tuple[Conflict, ...]


def resolve(
    repo: Repository, root: PomDocument, max_depth: int = DEFAULT_MAX_DEPTH
) -> ResolutionReport:
    """Expand the dependency tree of ``root`` level by level and pick winners.

    The earliest occurrence of each group:artifact in level order is kept;
    every later occurrence is marked omitted at the moment it is dequeued and
    its subtree is never expanded, so dependencies of losing versions cannot
    influence the result. A coordinate reappearing below itself is cut the
    same way, which terminates cycles without a dedicated check.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    # one row per node in level order: coordinate, path, status, parent's row
    rows: list[tuple[Coordinate, TreePath, NodeStatus, int]] = [
        (root.coordinate, (), INCLUDED, -1)
    ]
    winners: dict[GroupArtifact, Occurrence] = {
        root.coordinate.ga: Occurrence(root.coordinate, ())
    }
    losers: dict[GroupArtifact, list[Occurrence]] = {}
    # nodes still to place: parent's row, declaration index, coordinate
    queue: deque[tuple[int, int, Coordinate]] = deque(
        (0, position, child) for position, child in enumerate(root.dependencies)
    )
    while queue:
        parent, position, coordinate = queue.popleft()
        parent_path = rows[parent][1]
        path = parent_path + (position,)
        if len(path) > max_depth:
            raise DepthLimitExceeded(
                f"{coordinate} at depth {len(path)} exceeds the limit of {max_depth}"
            )
        winner = winners.get(coordinate.ga)
        status: NodeStatus
        if winner is None:
            status = INCLUDED
        elif winner.coordinate == coordinate:
            status = OmittedDuplicate(first_occurrence_path=winner.path)
        else:
            status = OmittedConflict(winner=winner.coordinate)
            losers.setdefault(coordinate.ga, []).append(Occurrence(coordinate, path))
        index = len(rows)
        rows.append((coordinate, path, status, parent))
        if winner is None:
            winners[coordinate.ga] = Occurrence(coordinate, path)
            try:
                document = fetch_pom(repo, coordinate)
            except PomNotFound as exc:
                raise UnresolvableDependency(coordinate, parent_path) from exc
            queue.extend(
                (index, position, child) for position, child in enumerate(document.dependencies)
            )

    # From the last row up, every node's children are built before the node.
    nodes: list[ResolvedNode] = []
    children: dict[int, list[ResolvedNode]] = {}
    for index in range(len(rows) - 1, -1, -1):
        coordinate, path, status, parent = rows[index]
        node = ResolvedNode(
            coordinate, path, index, status, tuple(reversed(children.pop(index, ())))
        )
        children.setdefault(parent, []).append(node)
        nodes.append(node)
    nodes.reverse()

    conflicts = tuple(
        Conflict(group_artifact=ga, winner=winners[ga], losers=tuple(occurrences))
        # dict insertion follows the first losing occurrence, i.e. tree order
        for ga, occurrences in losers.items()
    )
    return ResolutionReport(tree=ResolvedTree(tuple(nodes)), conflicts=conflicts)

"""Breadth-first tree expansion with nearest-wins conflict resolution."""

from __future__ import annotations

from collections import deque
from itertools import count, repeat
from typing import NamedTuple

from shadowscan.errors import DepthLimitExceeded, PomNotFound, UnresolvableDependency
from shadowscan.model import (
    INCLUDED,
    Coordinate,
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
_new = tuple.__new__  # builds a record in one C call, without its class's Python __new__


class Occurrence(NamedTuple):
    """A coordinate at a specific tree position."""

    coordinate: Coordinate
    path: TreePath


class Conflict(NamedTuple):
    """The version-conflicted occurrences of one group:artifact."""

    group_artifact: str
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
    winners: dict[str, Occurrence] = {
        root.coordinate.ga: Occurrence(root.coordinate, ())
    }
    losers: dict[str, list[Occurrence]] = {}
    # nodes still to place: parent's row, declaration index, coordinate
    queue: deque[tuple[int, int, Coordinate]] = deque(zip(repeat(0), count(), root.dependencies))
    while queue:
        parent, position, coordinate = queue.popleft()
        parent_path = rows[parent][1]
        path = parent_path + (position,)
        if len(path) > max_depth:
            raise DepthLimitExceeded(
                f"{coordinate} at depth {len(path)} exceeds the limit of {max_depth}"
            )
        ga = coordinate.rpartition(":")[0]
        winner = winners.get(ga)
        status: NodeStatus
        if winner is None:
            status = INCLUDED
        elif winner.coordinate == coordinate:
            status = _new(OmittedDuplicate, (winner.path,))
        else:
            status = _new(OmittedConflict, (winner.coordinate,))
            losers.setdefault(ga, []).append(_new(Occurrence, (coordinate, path)))
        index = len(rows)
        rows.append((coordinate, path, status, parent))
        if winner is None:
            winners[ga] = _new(Occurrence, (coordinate, path))
            try:
                document = fetch_pom(repo, coordinate)
            except PomNotFound as exc:
                raise UnresolvableDependency(coordinate, parent_path) from exc
            queue.extend(zip(repeat(index), count(), document.dependencies))

    # From the last row up, every node's children are built before the node.
    nodes: list[ResolvedNode] = []
    children: dict[int, list[ResolvedNode]] = {}
    for index in range(len(rows) - 1, -1, -1):
        coordinate, path, status, parent = rows[index]
        below = tuple(reversed(children.pop(index, ())))
        node = _new(ResolvedNode, (coordinate, path, index, status, below))
        children.setdefault(parent, []).append(node)
        nodes.append(node)
    nodes.reverse()

    conflicts = tuple(
        Conflict(group_artifact=ga, winner=winners[ga], losers=tuple(occurrences))
        # dict insertion follows the first losing occurrence, i.e. tree order
        for ga, occurrences in losers.items()
    )
    return ResolutionReport(tree=ResolvedTree(tuple(nodes)), conflicts=conflicts)

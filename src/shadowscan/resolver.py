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

    Each node is one row, in level order with the root as row 0: its
    coordinate, path, status and number of children, and ``winners`` maps a
    group:artifact to the row of its included node. Level order puts each
    node's children in one run of rows, and the runs follow their parents'
    order, so walking the rows from the last one up, each node's run ends
    where the next node's run begins.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    rows: list[tuple[Coordinate, TreePath, NodeStatus, int]] = [
        (root.coordinate, (), INCLUDED, len(root.dependencies))
    ]
    winners = {root.coordinate.ga: 0}
    losers: dict[str, list[Occurrence]] = {}
    # nodes still to place: parent's path, declaration index, coordinate
    queue: deque[tuple[TreePath, int, Coordinate]] = deque(zip(repeat(()), count(), root.dependencies))
    while queue:
        parent_path, position, coordinate = queue.popleft()
        path = parent_path + (position,)
        if len(path) > max_depth:
            raise DepthLimitExceeded(
                f"{coordinate} at depth {len(path)} exceeds the limit of {max_depth}"
            )
        ga = coordinate.rpartition(":")[0]
        winner = winners.get(ga)
        dependencies: tuple[Coordinate, ...] = ()
        if winner is None:
            status: NodeStatus = INCLUDED
            winners[ga] = len(rows)
            try:
                dependencies = fetch_pom(repo, coordinate).dependencies
            except PomNotFound as exc:
                raise UnresolvableDependency(coordinate, parent_path) from exc
            queue.extend(zip(repeat(path), count(), dependencies))
        elif rows[winner][0] == coordinate:
            status = _new(OmittedDuplicate, (rows[winner][1],))
        else:
            status = _new(OmittedConflict, (rows[winner][0],))
            losers.setdefault(ga, []).append(_new(Occurrence, (coordinate, path)))
        rows.append((coordinate, path, status, len(dependencies)))

    nodes: list[ResolvedNode | None] = [None] * len(rows)
    end = len(rows)
    for index in range(len(rows) - 1, -1, -1):
        coordinate, path, status, width = rows[index]
        below = tuple(nodes[end - width : end])
        nodes[index] = _new(ResolvedNode, (coordinate, path, index, status, below))
        end -= width

    conflicts = tuple(
        Conflict(ga, Occurrence(*rows[winners[ga]][:2]), tuple(occurrences))
        # dict insertion follows the first losing occurrence, i.e. tree order
        for ga, occurrences in losers.items()
    )
    return ResolutionReport(tree=ResolvedTree(tuple(nodes)), conflicts=conflicts)

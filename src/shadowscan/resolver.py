"""Breadth-first tree expansion with nearest-wins conflict resolution."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from shadowscan.errors import DepthLimitExceeded, PomNotFound, UnresolvableDependency
from shadowscan.model import (
    INCLUDED,
    Coordinate,
    DependencyDeclaration,
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


@dataclass(frozen=True)
class Occurrence:
    """A coordinate at a specific tree position."""

    coordinate: Coordinate
    path: TreePath


@dataclass(frozen=True)
class Conflict:
    """The version-conflicted occurrences of one group:artifact."""

    group_artifact: GroupArtifact
    winner: Occurrence
    losers: tuple[Occurrence, ...]


@dataclass(frozen=True)
class ResolutionReport:
    """Outcome of resolve(): the pruned tree plus its conflict table."""

    tree: ResolvedTree
    conflicts: tuple[Conflict, ...]


@dataclass
class _Draft:
    coordinate: Coordinate
    path: TreePath
    depth: int
    bfs_index: int
    status: NodeStatus
    children: list["_Draft"] = field(default_factory=list)


def _freeze(root: _Draft) -> ResolvedNode:
    """Build the immutable tree bottom-up, without recursion.

    In level order every child comes after its parent, so walking that order
    backwards finds each node's children already frozen.
    """
    level_order = [root]
    for draft in level_order:
        level_order.extend(draft.children)
    frozen: dict[int, ResolvedNode] = {}
    for draft in reversed(level_order):
        frozen[draft.bfs_index] = ResolvedNode(
            coordinate=draft.coordinate,
            path=draft.path,
            depth=draft.depth,
            bfs_index=draft.bfs_index,
            status=draft.status,
            children=tuple(frozen.pop(child.bfs_index) for child in draft.children),
        )
    return frozen[root.bfs_index]


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
    root_node = _Draft(root.coordinate, (), 0, 0, INCLUDED)
    winners: dict[GroupArtifact, _Draft] = {root.coordinate.ga: root_node}
    losers: dict[GroupArtifact, list[Occurrence]] = {}
    queue: deque[tuple[_Draft, DependencyDeclaration]] = deque(
        (root_node, declaration) for declaration in root.dependencies
    )
    next_index = 1
    while queue:
        parent, declaration = queue.popleft()
        coordinate = declaration.coordinate
        path = parent.path + (declaration.declaration_index,)
        depth = parent.depth + 1
        if depth > max_depth:
            raise DepthLimitExceeded(
                f"{coordinate} at depth {depth} exceeds the limit of {max_depth}"
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
        node = _Draft(coordinate, path, depth, next_index, status)
        next_index += 1
        parent.children.append(node)
        if winner is None:
            winners[coordinate.ga] = node
            try:
                document = fetch_pom(repo, coordinate)
            except PomNotFound as exc:
                raise UnresolvableDependency(coordinate, parent.path) from exc
            queue.extend((node, child) for child in document.dependencies)

    conflicts = tuple(
        Conflict(
            group_artifact=ga,
            winner=Occurrence(winners[ga].coordinate, winners[ga].path),
            losers=tuple(occurrences),
        )
        # dict insertion follows the first losing occurrence, i.e. tree order
        for ga, occurrences in losers.items()
    )
    return ResolutionReport(tree=ResolvedTree(_freeze(root_node)), conflicts=conflicts)

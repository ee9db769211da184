"""Core domain types: coordinates, dependency trees, and class names."""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from shadowscan.errors import DuplicateDeclaration, InvalidClassName, InvalidCoordinate

TreePath = tuple[int, ...]
"""Child indices leading from the root to a node; the empty tuple is the root."""

# In str patterns ``\s`` matches exactly the characters for which str.isspace() holds.
_TOKEN_FORBIDDEN = re.compile(r"[:\s]")
_CLASS_NAME = re.compile(r"[^./\s]+(?:\.[^./\s]+)*")


def _coordinate_token(value: str, label: str) -> str:
    if not value:
        raise InvalidCoordinate(f"{label} must be a nonempty string")
    if _TOKEN_FORBIDDEN.search(value):
        raise InvalidCoordinate(f"{label} {value!r} must not contain ':' or whitespace")
    return value


@dataclass(frozen=True, order=True)
class GroupArtifact:
    """Conflict key of an artifact: group and artifact identifiers."""

    group_id: str
    artifact_id: str

    def __post_init__(self) -> None:
        _coordinate_token(self.group_id, "group id")
        _coordinate_token(self.artifact_id, "artifact id")

    def __str__(self) -> str:
        return f"{self.group_id}:{self.artifact_id}"


@dataclass(frozen=True, order=True)
class Coordinate:
    """Exact artifact identity: group, artifact, and version."""

    ga: GroupArtifact
    version: str

    def __post_init__(self) -> None:
        _coordinate_token(self.version, "version")

    @classmethod
    def of(cls, group_id: str, artifact_id: str, version: str) -> Coordinate:
        return cls(GroupArtifact(group_id, artifact_id), version)

    @classmethod
    def parse(cls, text: str) -> Coordinate:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidCoordinate(f"expected group:artifact:version, got {text!r}")
        return cls.of(parts[0], parts[1], parts[2])

    @property
    def group_id(self) -> str:
        return self.ga.group_id

    @property
    def artifact_id(self) -> str:
        return self.ga.artifact_id

    def __str__(self) -> str:
        return f"{self.ga}:{self.version}"


@dataclass(frozen=True)
class DependencyDeclaration:
    """One dependency entry of a POM at its textual position."""

    coordinate: Coordinate
    declaration_index: int

    def __post_init__(self) -> None:
        if self.declaration_index < 0:
            raise ValueError("declaration_index must be >= 0")


@dataclass(frozen=True)
class PomDocument:
    """Parsed project descriptor: a coordinate plus its ordered dependencies."""

    coordinate: Coordinate
    dependencies: tuple[DependencyDeclaration, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dependencies", tuple(self.dependencies))
        seen: set[GroupArtifact] = set()
        for position, declaration in enumerate(self.dependencies):
            if declaration.declaration_index != position:
                raise ValueError(
                    f"declaration_index {declaration.declaration_index} at position "
                    f"{position}; indices must be contiguous from 0 in textual order"
                )
            ga = declaration.coordinate.ga
            if ga in seen:
                raise DuplicateDeclaration(f"{ga} declared more than once")
            seen.add(ga)


@dataclass(frozen=True)
class Included:
    """The node survived conflict resolution and contributes to the classpath."""


@dataclass(frozen=True)
class OmittedConflict:
    """Dropped because another version of the same group:artifact won."""

    winner: Coordinate


@dataclass(frozen=True)
class OmittedDuplicate:
    """Dropped because the identical coordinate occurs at an earlier position."""

    first_occurrence_path: TreePath

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_occurrence_path", tuple(self.first_occurrence_path))


NodeStatus = Included | OmittedConflict | OmittedDuplicate

INCLUDED = Included()


@dataclass(frozen=True)
class ResolvedNode:
    """A position in the resolved dependency tree."""

    coordinate: Coordinate
    path: TreePath
    depth: int
    bfs_index: int
    status: NodeStatus
    children: tuple[ResolvedNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(self.path))
        object.__setattr__(self, "children", tuple(self.children))
        if self.depth != len(self.path):
            raise ValueError(f"depth {self.depth} does not match path length {len(self.path)}")
        if self.bfs_index < 0:
            raise ValueError("bfs_index must be >= 0")
        if not self.included and self.children:
            raise ValueError("omitted nodes must not have children")

    @property
    def included(self) -> bool:
        return isinstance(self.status, Included)


@dataclass(frozen=True)
class ResolvedTree:
    """Conflict-resolved dependency tree; the root is the project itself.

    Construction checks the structural invariants: paths and breadth-first
    indices are consistent with the stored shape, at most one node per
    group:artifact is included, and an included node always precedes any
    omitted occurrence of the same group:artifact in level order.
    """

    root: ResolvedNode

    def __post_init__(self) -> None:
        if self.root.path != () or not self.root.included:
            raise ValueError("root must be an included node at the empty path")
        first_seen: dict[GroupArtifact, int] = {}
        included_seen: set[GroupArtifact] = set()
        expected_index = 0
        queue: deque[ResolvedNode] = deque([self.root])
        while queue:
            node = queue.popleft()
            if node.bfs_index != expected_index:
                raise ValueError(
                    f"node at {node.path} has bfs_index {node.bfs_index}, "
                    f"expected {expected_index}"
                )
            expected_index += 1
            ga = node.coordinate.ga
            first_seen.setdefault(ga, node.bfs_index)
            if node.included:
                if ga in included_seen:
                    raise ValueError(f"{ga} is included at two positions")
                if node.bfs_index != first_seen[ga]:
                    raise ValueError(
                        f"included node for {ga} is not the breadth-first "
                        "earliest occurrence"
                    )
                included_seen.add(ga)
            for child_index, child in enumerate(node.children):
                if child.path != node.path + (child_index,):
                    raise ValueError(
                        f"child at {child.path} does not extend parent path {node.path}"
                    )
                queue.append(child)


def bfs_order(tree: ResolvedTree) -> list[ResolvedNode]:
    """Level-order traversal of the whole tree, omitted nodes included."""
    out: list[ResolvedNode] = []
    queue: deque[ResolvedNode] = deque([tree.root])
    while queue:
        node = queue.popleft()
        out.append(node)
        queue.extend(node.children)
    return out


def dfs_order(tree: ResolvedTree, include_omitted: bool = True) -> list[ResolvedNode]:
    """Pre-order traversal with children in declaration order.

    With ``include_omitted=False`` omitted nodes are skipped; their subtrees
    were never expanded, so nothing exists below them.
    """
    out: list[ResolvedNode] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if include_omitted or node.included:
            out.append(node)
            stack.extend(reversed(node.children))
    return out


class FullyQualifiedClassName(str):
    """Dot-separated class name such as ``org.test.NiceClass``.

    Every segment is nonempty and free of ``/`` and whitespace. Inner-class
    markers (``$``) are kept verbatim within a segment.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> FullyQualifiedClassName:
        if not _CLASS_NAME.fullmatch(value):
            raise InvalidClassName(f"invalid fully qualified class name {value!r}")
        return super().__new__(cls, value)

    @property
    def package(self) -> str:
        """Dotted package prefix; empty for the default package."""
        return self.rpartition(".")[0]

    @property
    def simple_name(self) -> str:
        return self.rpartition(".")[2]

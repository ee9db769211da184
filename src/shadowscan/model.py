"""Core domain types: coordinates, dependency trees, and class names."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from shadowscan.errors import DuplicateDeclaration, InvalidClassName, InvalidCoordinate

TreePath = tuple[int, ...]
"""Child indices leading from the root to a node; the empty tuple is the root."""

# In str patterns ``\s`` matches exactly the characters for which str.isspace() holds.
_TOKEN_FORBIDDEN = re.compile(r"[:\s]")
# A class name is a plain str this pattern fullmatches: dot-separated segments,
# each nonempty and free of "/" and whitespace; "$" inner-class markers stay.
CLASS_NAME = re.compile(r"[^./\s]+(?:\.[^./\s]+)*")


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
    """Exact artifact identity: group, artifact, and version.

    Its ``group:artifact:version`` text, ``text`` and ``str()``, is built on
    first use and then kept on the instance; it is not a field.
    """

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

    @cached_property
    def text(self) -> str:
        return f"{self.ga.group_id}:{self.ga.artifact_id}:{self.version}"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class PomDocument:
    """Parsed project descriptor; a dependency's declaration index is its position."""

    coordinate: Coordinate
    dependencies: tuple[Coordinate, ...] = ()

    def __post_init__(self) -> None:
        seen: set[GroupArtifact] = set()
        for dependency in self.dependencies:
            if dependency.ga in seen:
                raise DuplicateDeclaration(f"{dependency.ga} declared more than once")
            seen.add(dependency.ga)


class Included(NamedTuple):
    """The node survived conflict resolution and contributes to the classpath."""


class OmittedConflict(NamedTuple):
    """Dropped because another version of the same group:artifact won."""

    winner: Coordinate


class OmittedDuplicate(NamedTuple):
    """Dropped because the identical coordinate occurs at an earlier position."""

    first_occurrence_path: TreePath


NodeStatus = Included | OmittedConflict | OmittedDuplicate

INCLUDED = Included()


@dataclass(frozen=True)
class ResolvedNode:
    """A position in the resolved dependency tree.

    Equality, hashing and ``repr`` leave ``children`` out, so they never
    recurse down a deep tree; two trees are equal when their ``nodes`` are.
    """

    coordinate: Coordinate
    path: TreePath
    bfs_index: int
    status: NodeStatus
    children: tuple[ResolvedNode, ...] = field(default=(), compare=False, repr=False)

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def included(self) -> bool:
        return isinstance(self.status, Included)


class ResolvedTree(NamedTuple):
    """Conflict-resolved dependency tree; the root is the project itself.

    ``nodes`` holds every node, omitted ones included, in level order, so
    ``nodes[i].bfs_index == i``. Construction checks nothing; see
    ``check_invariants``.
    """

    nodes: tuple[ResolvedNode, ...]

    @property
    def root(self) -> ResolvedNode:
        return self.nodes[0]


def check_invariants(tree: ResolvedTree) -> None:
    """Raise ``ValueError`` unless the tree has the shape ``resolve`` builds.

    ``nodes`` is the level-order walk from an included root at the empty
    path, each ``bfs_index`` is its node's position there, each child extends
    its parent's path, omitted nodes are leaves, and a group:artifact is
    included only at its first occurrence in level order, hence at most once.
    """
    if not tree.nodes or tree.root.path != () or not tree.root.included:
        raise ValueError("root must be an included node at the empty path")
    level_order = [tree.root]
    for node in level_order:
        level_order.extend(node.children)
    if list(map(id, level_order)) != list(map(id, tree.nodes)):
        raise ValueError("nodes is not the level-order walk from the root")
    first_seen: dict[GroupArtifact, int] = {}
    for index, node in enumerate(tree.nodes):
        if node.bfs_index != index:
            raise ValueError(f"node at {node.path} has bfs_index {node.bfs_index}, not {index}")
        ga = node.coordinate.ga
        if first_seen.setdefault(ga, index) != index and node.included:
            raise ValueError(f"{ga} is included at {node.path}, after its first occurrence")
        if not node.included and node.children:
            raise ValueError("omitted nodes must not have children")
        for child_index, child in enumerate(node.children):
            if child.path != node.path + (child_index,):
                raise ValueError(f"child at {child.path} does not extend parent path {node.path}")


def check_class_name(value: str) -> str:
    """``value`` if it is a class name such as ``org.test.NiceClass``, else ``InvalidClassName``."""
    if not CLASS_NAME.fullmatch(value):
        raise InvalidClassName(f"invalid fully qualified class name {value!r}")
    return value


def package_of(class_name: str) -> str:
    """Dotted package prefix of a class name; empty for the default package."""
    return class_name.rpartition(".")[0]

"""Core domain types: coordinates, dependency trees, class names and mitigation rules."""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from shadowscan.errors import InvalidClassName, InvalidCoordinate

TreePath = tuple[int, ...]
"""Child indices leading from the root to a node; the empty tuple is the root."""

# In str patterns ``\s`` matches exactly the characters for which str.isspace() holds.
_TOKEN_FORBIDDEN = re.compile(r"[:\s]")
# A class name is a plain str this pattern fullmatches: dot-separated segments,
# each nonempty and free of "/" and whitespace; "$" inner-class markers stay.
CLASS_NAME = re.compile(r"[^./\s]+(?:\.[^./\s]+)*")


def _coordinate_token(value: str, label: str) -> None:
    if not value:
        raise InvalidCoordinate(f"{label} must be a nonempty string")
    if _TOKEN_FORBIDDEN.search(value):
        raise InvalidCoordinate(f"{label} {value!r} must not contain ':' or whitespace")


class Coordinate(str):
    """Exact artifact identity: its validated ``group:artifact:version`` text.

    A coordinate equals, hashes and sorts as that text. Each token is
    nonempty and holds no ':' and no whitespace. ``ga``, the
    ``group:artifact`` conflict key, is a plain ``str``.
    """

    __slots__ = ()

    def __new__(cls, text: str) -> Coordinate:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidCoordinate(f"expected group:artifact:version, got {text!r}")
        return cls.of(*parts)

    @classmethod
    def of(cls, group_id: str, artifact_id: str, version: str) -> Coordinate:
        _coordinate_token(group_id, "group id")
        _coordinate_token(artifact_id, "artifact id")
        _coordinate_token(version, "version")
        return str.__new__(cls, f"{group_id}:{artifact_id}:{version}")

    @property
    def group_id(self) -> str:
        return self.partition(":")[0]

    @property
    def artifact_id(self) -> str:
        return self.split(":")[1]

    @property
    def version(self) -> str:
        return self.rpartition(":")[2]

    @property
    def ga(self) -> str:
        return self.rpartition(":")[0]


class PomDocument(NamedTuple):
    """Parsed project descriptor; a dependency's declaration index is its position.

    ``parse_pom`` never lists a group:artifact twice; a document built by
    hand is not checked.
    """

    coordinate: Coordinate
    dependencies: tuple[Coordinate, ...] = ()


class Included(NamedTuple):
    """The node survived conflict resolution and contributes to the classpath."""

    _derived = ("kind",)
    kind = "included"


class OmittedConflict(NamedTuple):
    """Dropped because another version of the same group:artifact won."""

    winner: Coordinate

    _derived = ("kind",)
    kind = "omitted-conflict"


class OmittedDuplicate(NamedTuple):
    """Dropped because the identical coordinate occurs at an earlier position."""

    first_occurrence_path: TreePath

    _derived = ("kind",)
    kind = "omitted-duplicate"


NodeStatus = Included | OmittedConflict | OmittedDuplicate

INCLUDED = Included()


class ResolvedNode(NamedTuple):
    """A position in the resolved dependency tree.

    Equality, hashing and ``repr`` leave ``children`` out, so they never
    recurse down a deep tree; two trees are equal when their ``nodes`` are.
    A node never equals a plain tuple.
    """

    coordinate: Coordinate
    path: TreePath
    bfs_index: int
    status: NodeStatus
    children: tuple[ResolvedNode, ...] = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResolvedNode) and self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        return (
            f"ResolvedNode(coordinate={self.coordinate!r}, path={self.path!r}, "
            f"bfs_index={self.bfs_index!r}, status={self.status!r})"
        )

    _derived = ("depth",)

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

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # pickle and deepcopy take the nodes leaves first: each child is then
        # done before its parent, which only refers to it, so no node
        # recurses into its subtree however deep the tree is
        return _tree_of_reversed_nodes, (self.nodes[::-1],)


def _tree_of_reversed_nodes(nodes: tuple[ResolvedNode, ...]) -> ResolvedTree:
    return ResolvedTree(nodes[::-1])


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
    first_seen: dict[str, int] = {}
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


class MitigationRule(str, Enum):
    """A build-time or runtime mitigation that ``check`` runs (see ``shadowscan.mitigations``)."""

    BAN_DUPLICATE_CLASSES = "ban-duplicate-classes"
    SEALED_JARS = "sealed-jars"
    JAVA_MODULES = "java-modules"

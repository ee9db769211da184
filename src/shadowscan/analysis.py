"""Effective class bindings, shadowing findings, and hijack geometry."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from shadowscan.errors import UnknownArtifact
from shadowscan.model import Coordinate, ResolvedNode, ResolvedTree, TreePath
from shadowscan.ordering import Classpath, Ecosystem, build_classpath

if TYPE_CHECKING:
    from shadowscan.inventory import ClassInventory


class EffectiveClassMap(NamedTuple):
    """What actually loads: each class name bound to its providers in classpath order.

    The first provider is the one the class loader returns; a class with
    more than one provider is shadowed.
    """

    bindings: Mapping[str, tuple[Coordinate, ...]]


def effective_classes(inventories: Sequence[ClassInventory]) -> EffectiveClassMap:
    """Bind every provided class to the inventories that carry it, earliest first.

    The bindings keep the order in which the classes are first seen.
    """
    providers: dict[str, Any] = {}  # class name -> its providers in order: a list, then its tuple
    get = providers.get
    for inventory in inventories:
        coordinate = inventory.coordinate
        for cls in inventory.classes:
            found = get(cls)
            if found is None:
                providers[cls] = [coordinate]
            else:
                found.append(coordinate)
    for cls, found in providers.items():  # in place: the keys and their order stay
        providers[cls] = tuple(found)
    return EffectiveClassMap(providers)


class ShadowFinding(NamedTuple):
    """One class that masks identically named classes later on the classpath."""

    class_name: str
    winner: Coordinate
    shadowed_victims: tuple[Coordinate, ...]
    winner_path: TreePath

    _derived = ("winner_depth",)

    @property
    def winner_depth(self) -> int:
        return len(self.winner_path)


def included_nodes(tree: ResolvedTree) -> dict[Coordinate, ResolvedNode]:
    """Included nodes keyed by coordinate, in level order."""
    return {node.coordinate: node for node in tree.nodes if node.included}


def detect_shadowing(class_map: EffectiveClassMap, tree: ResolvedTree) -> list[ShadowFinding]:
    """One finding per shadowed class, deepest winners first.

    A deep winner is the stealthy configuration: the masking class sits far
    from the declarations a reviewer actually reads.
    """
    by_depth: dict[int, list[ShadowFinding]] = {}  # winner depth -> its findings
    # each included coordinate -> its path and the findings at its depth
    targets = {coordinate: (node.path, by_depth.setdefault(len(node.path), []))
               for coordinate, node in included_nodes(tree).items()}
    for class_name, providers in class_map.bindings.items():
        if len(providers) > 1:
            winner = providers[0]
            target = targets.get(winner)
            if target is None:
                raise UnknownArtifact(f"{winner} is not an included node of the tree")
            path, found = target
            found.append(ShadowFinding(class_name, winner, providers[1:], path))
    findings: list[ShadowFinding] = []
    for depth in sorted(by_depth, reverse=True):
        findings += sorted(by_depth[depth], key=itemgetter(0))  # by class name
    return findings


def _position(classpath: Classpath, tree: ResolvedTree, coordinate: Coordinate) -> int:
    if coordinate == tree.root.coordinate:
        return -1  # the project's own classes precede every entry
    try:
        return classpath.entries.index(coordinate)
    except ValueError:
        raise UnknownArtifact(f"{coordinate} is not on the classpath") from None


def hijack_reach(
    tree: ResolvedTree, classpath: Classpath, attacker: Coordinate
) -> tuple[Coordinate, ...]:
    """Artifacts the attacker can shadow: the classpath entries strictly after it, in order."""
    position = _position(classpath, tree, attacker)
    return classpath.entries[position + 1 :]


def hijack_surface(
    tree: ResolvedTree, classpath: Classpath, target: Coordinate
) -> tuple[Coordinate, ...]:
    """Positions that can shadow the target: the entries strictly before it, in order."""
    position = _position(classpath, tree, target)
    return classpath.entries[: max(position, 0)]


class WinnerComparison(NamedTuple):
    """Maven and Gradle winners for one class provided more than once."""

    class_name: str
    maven_winner: Coordinate
    gradle_winner: Coordinate

    _derived = ("differs",)

    @property
    def differs(self) -> bool:
        return self.maven_winner != self.gradle_winner


class EcosystemComparison(NamedTuple):
    """Per-class winner diff between the two classpath orderings."""

    entries: tuple[WinnerComparison, ...]

    @property
    def flagged(self) -> tuple[WinnerComparison, ...]:
        return tuple(entry for entry in self.entries if entry.differs)


def compare_ecosystems(
    tree: ResolvedTree, inventories: Sequence[ClassInventory]
) -> EcosystemComparison:
    """Compare the winner of every duplicated class across both orderings.

    ``inventories`` is the Maven-ordered list that ``inventory_all`` returns.
    Both orderings hold the same artifacts, so one class index in that order
    serves both: the Maven winner is a class's first provider, the Gradle
    winner the provider at the earliest Gradle classpath position. An
    inventory whose coordinate is not on the tree's classpath raises
    ``UnknownArtifact``.
    """
    maven = [inventory.coordinate for inventory in inventories]
    gradle = build_classpath(tree, Ecosystem.GRADLE).entries
    gradle_position = {coordinate: index for index, coordinate in enumerate(gradle)}
    try:
        rank = [gradle_position[coordinate] for coordinate in maven]
    except KeyError as exc:
        raise UnknownArtifact(f"{exc.args[0]} is not on the classpath") from None
    # class name -> Maven positions of its providers, in Maven order
    providers: dict[str, list[int]] = {}
    for index, inventory in enumerate(inventories):
        for cls in inventory.classes:
            providers.setdefault(cls, []).append(index)
    # the names are unique: sorting them alone gives the order of sorting the pairs
    duplicated = sorted(name for name, found in providers.items() if len(found) > 1)
    new = tuple.__new__  # a record without NamedTuple's argument handling
    entries = tuple(
        new(WinnerComparison, (name, maven[found[0]], maven[min(found, key=rank.__getitem__)]))
        for name, found in zip(duplicated, map(providers.__getitem__, duplicated))
    )
    return EcosystemComparison(entries)

"""Effective class bindings, shadowing findings, and hijack geometry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from shadowscan.errors import MissingContent, UnknownArtifact
from shadowscan.inventory import ClassInventory
from shadowscan.model import (
    Coordinate,
    FullyQualifiedClassName,
    ResolvedNode,
    ResolvedTree,
    TreePath,
    bfs_order,
)
from shadowscan.ordering import Classpath, Ecosystem, build_classpath


@dataclass(frozen=True)
class ClassBinding:
    """Winning provider of one class plus the providers it shadows."""

    winner: Coordinate
    shadowed: tuple[Coordinate, ...] = ()


@dataclass(frozen=True)
class EffectiveClassMap:
    """What actually loads: each class name bound to its first provider."""

    bindings: Mapping[FullyQualifiedClassName, ClassBinding]


def effective_classes(inventories: Sequence[ClassInventory]) -> EffectiveClassMap:
    """Bind every provided class to the earliest inventory that carries it."""
    winners: dict[FullyQualifiedClassName, Coordinate] = {}
    shadowed: dict[FullyQualifiedClassName, list[Coordinate]] = {}
    for inventory in inventories:
        for cls in inventory.classes:
            if cls in winners:
                shadowed[cls].append(inventory.coordinate)
            else:
                winners[cls] = inventory.coordinate
                shadowed[cls] = []
    return EffectiveClassMap(
        {cls: ClassBinding(winner, tuple(shadowed[cls])) for cls, winner in winners.items()}
    )


@dataclass(frozen=True)
class ShadowFinding:
    """One class that masks identically named classes later on the classpath."""

    class_name: FullyQualifiedClassName
    winner: Coordinate
    shadowed_victims: tuple[Coordinate, ...]
    winner_depth: int
    winner_path: TreePath


def included_nodes(tree: ResolvedTree) -> dict[Coordinate, ResolvedNode]:
    """Included nodes keyed by coordinate, in level order."""
    return {node.coordinate: node for node in bfs_order(tree) if node.included}


def detect_shadowing(class_map: EffectiveClassMap, tree: ResolvedTree) -> list[ShadowFinding]:
    """One finding per shadowed class, deepest winners first.

    A deep winner is the stealthy configuration: the masking class sits far
    from the declarations a reviewer actually reads.
    """
    nodes = included_nodes(tree)
    findings: list[ShadowFinding] = []
    for class_name, binding in class_map.bindings.items():
        if not binding.shadowed:
            continue
        node = nodes.get(binding.winner)
        if node is None:
            raise UnknownArtifact(f"{binding.winner} is not an included node of the tree")
        findings.append(
            ShadowFinding(class_name, binding.winner, binding.shadowed, node.depth, node.path)
        )
    findings.sort(key=lambda finding: (-finding.winner_depth, finding.class_name))
    return findings


def _position(classpath: Classpath, tree: ResolvedTree, coordinate: Coordinate) -> int:
    if coordinate == tree.root.coordinate:
        return -1  # the project's own classes precede every entry
    try:
        return classpath.entries.index(coordinate)
    except ValueError:
        raise UnknownArtifact(f"{coordinate} is not on the classpath") from None


def hijack_reach(
    tree: ResolvedTree, ecosystem: Ecosystem, attacker: Coordinate
) -> frozenset[Coordinate]:
    """Artifacts the attacker can shadow: everything strictly after it on the classpath."""
    classpath = build_classpath(tree, ecosystem)
    position = _position(classpath, tree, attacker)
    return frozenset(classpath.entries[position + 1 :])


def hijack_surface(
    tree: ResolvedTree, ecosystem: Ecosystem, target: Coordinate
) -> frozenset[Coordinate]:
    """Positions that can shadow the target: everything strictly before it."""
    classpath = build_classpath(tree, ecosystem)
    position = _position(classpath, tree, target)
    return frozenset(classpath.entries[: max(position, 0)])


@dataclass(frozen=True)
class WinnerComparison:
    """Maven and Gradle winners for one class provided more than once."""

    class_name: FullyQualifiedClassName
    maven_winner: Coordinate
    gradle_winner: Coordinate

    @property
    def differs(self) -> bool:
        return self.maven_winner != self.gradle_winner


@dataclass(frozen=True)
class EcosystemComparison:
    """Per-class winner diff between the two classpath orderings."""

    entries: tuple[WinnerComparison, ...]

    @property
    def flagged(self) -> tuple[WinnerComparison, ...]:
        return tuple(entry for entry in self.entries if entry.differs)


def compare_ecosystems(
    tree: ResolvedTree, inventories_by_coord: Mapping[Coordinate, ClassInventory]
) -> EcosystemComparison:
    """Compare the winner of every duplicated class across both orderings.

    Both orderings hold the same artifacts, so one class index in Maven order
    serves both: the Maven winner is a class's first provider, the Gradle
    winner the provider at the earliest Gradle classpath position.
    """
    maven = build_classpath(tree, Ecosystem.MAVEN).entries
    gradle = build_classpath(tree, Ecosystem.GRADLE).entries
    gradle_position = {coordinate: index for index, coordinate in enumerate(gradle)}
    rank = [gradle_position[coordinate] for coordinate in maven]
    # class name -> Maven positions of its providers, in Maven order
    providers: dict[FullyQualifiedClassName, list[int]] = {}
    for index, coordinate in enumerate(maven):
        inventory = inventories_by_coord.get(coordinate)
        if inventory is None:
            raise MissingContent(f"no inventory supplied for {coordinate}")
        for cls in inventory.classes:
            providers.setdefault(cls, []).append(index)
    entries = tuple(
        WinnerComparison(class_name, maven[found[0]], maven[min(found, key=rank.__getitem__)])
        for class_name, found in sorted(item for item in providers.items() if len(item[1]) > 1)
    )
    return EcosystemComparison(entries)

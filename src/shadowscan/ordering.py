"""Classpath linearization and packaged-artifact layout listings."""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from shadowscan.model import Coordinate, ResolvedTree


class Ecosystem(str, Enum):
    MAVEN = "maven"
    GRADLE = "gradle"


class LayoutMode(str, Enum):
    FLAT = "flat"
    NESTED = "nested"


class Classpath(NamedTuple):
    """Ordered dependency coordinates as the class loader will search them.

    The project's own classes implicitly precede ``entries[0]``, so the root
    always wins lookups against its dependencies.
    """

    ecosystem: Ecosystem
    entries: tuple[Coordinate, ...]


def build_classpath(tree: ResolvedTree, ecosystem: Ecosystem) -> Classpath:
    """Linearize included dependencies: depth-first for Maven, level order for Gradle.

    Depth-first order with children in declaration order is the order of the
    paths, and omitted nodes are leaves, so Maven's order is a sort by path.
    """
    nodes = [node for node in tree.nodes[1:] if node.included]
    if ecosystem is Ecosystem.MAVEN:
        nodes.sort(key=attrgetter("path"))
    return Classpath(ecosystem, tuple(node.coordinate for node in nodes))


class PackagingLayout(NamedTuple):
    """Display listing of the packaged archive, one line per entry."""

    mode: LayoutMode
    lines: tuple[str, ...]


def emit_layout(tree: ResolvedTree, mode: LayoutMode) -> PackagingLayout:
    """Render the archive listing for flat (uber jar) or nested packaging.

    Dependencies appear in depth-first order in both modes; only the
    surrounding scaffolding differs.
    """
    dependencies = build_classpath(tree, Ecosystem.MAVEN).entries
    if mode is LayoutMode.FLAT:
        lines = ["+-META-INF", "|  +-MANIFEST.MF", "+-Main.class"]
        lines.extend(f"+-{coordinate.artifact_id}.class" for coordinate in dependencies)
    else:
        lines = ["+-BOOT-INF", "  +-classes", "  |  +-Main.class"]
        if dependencies:
            lines.append("+-BOOT-INF")
            lines.append("  +-lib")
            lines.extend(f"  |  +-{coordinate.artifact_id}.jar" for coordinate in dependencies)
    return PackagingLayout(mode, tuple(lines))

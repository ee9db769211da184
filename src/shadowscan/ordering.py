"""Classpath linearization and packaged-artifact layout listings."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from shadowscan.model import Coordinate, ResolvedTree, dfs_order


class Ecosystem(str, Enum):
    MAVEN = "maven"
    GRADLE = "gradle"


class LayoutMode(str, Enum):
    FLAT = "flat"
    NESTED = "nested"


@dataclass(frozen=True)
class Classpath:
    """Ordered dependency coordinates as the class loader will search them.

    The project's own classes implicitly precede ``entries[0]``, so the root
    always wins lookups against its dependencies.
    """

    ecosystem: Ecosystem
    entries: tuple[Coordinate, ...]


def build_classpath(tree: ResolvedTree, ecosystem: Ecosystem) -> Classpath:
    """Linearize included dependencies: depth-first for Maven, level order for Gradle."""
    if ecosystem is Ecosystem.MAVEN:
        nodes = dfs_order(tree, include_omitted=False)
    else:
        nodes = [node for node in tree.nodes if node.included]
    return Classpath(ecosystem, tuple(node.coordinate for node in nodes[1:]))


@dataclass(frozen=True)
class PackagingLayout:
    """Display listing of the packaged archive, one line per entry."""

    mode: LayoutMode
    lines: tuple[str, ...]


def emit_layout(tree: ResolvedTree, mode: LayoutMode) -> PackagingLayout:
    """Render the archive listing for flat (uber jar) or nested packaging.

    Dependencies appear in depth-first order in both modes; only the
    surrounding scaffolding differs.
    """
    dependencies = dfs_order(tree, include_omitted=False)[1:]
    if mode is LayoutMode.FLAT:
        lines = ["+-META-INF", "|  +-MANIFEST.MF", "+-Main.class"]
        lines.extend(f"+-{node.coordinate.artifact_id}.class" for node in dependencies)
    else:
        lines = ["+-BOOT-INF", "  +-classes", "  |  +-Main.class"]
        if dependencies:
            lines.append("+-BOOT-INF")
            lines.append("  +-lib")
            lines.extend(f"  |  +-{node.coordinate.artifact_id}.jar" for node in dependencies)
    return PackagingLayout(mode, tuple(lines))

"""POM parsing and loading of an on-disk artifact repository."""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from shadowscan.errors import (
    CoordinateMismatch,
    InvalidCoordinate,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    PomNotFound,
)
from shadowscan.model import Coordinate, DependencyDeclaration, GroupArtifact, PomDocument

logger = logging.getLogger(__name__)

JAR_NAME = "artifact.jar"
CLASSLIST_NAME = "classes.txt"

# Recognized but not modeled; real-world snippets stay loadable with a warning.
_IGNORED_PROJECT_ELEMENTS = ("dependencyManagement", "profiles", "properties")


def _local_name(tag: str) -> str:
    # ElementTree encodes namespaces as "{uri}local"; match the local part only.
    return tag.rsplit("}", 1)[-1]


def _find_text(element: ET.Element, name: str) -> str | None:
    for child in element:
        if _local_name(child.tag) == name:
            return (child.text or "").strip()
    return None


def _read_coordinate(element: ET.Element, where: str) -> Coordinate:
    values: dict[str, str] = {}
    for name in ("groupId", "artifactId", "version"):
        text = _find_text(element, name)
        if not text:
            raise MissingCoordinate(f"{where}: missing or empty <{name}>")
        if "${" in text:
            logger.warning("%s: property placeholder %r is not interpolated", where, text)
        values[name] = text
    return Coordinate(GroupArtifact(values["groupId"], values["artifactId"]), values["version"])


def parse_pom(xml_text: str) -> PomDocument:
    """Parse the supported POM subset into a document.

    Only ``project``, ``groupId``, ``artifactId``, ``version``,
    ``dependencies``, and ``dependency`` elements carry meaning. Namespaces
    are ignored. ``dependencyManagement``, ``profiles``, ``properties``, and
    per-dependency ``exclusions`` are ignored with a warning; other unknown
    elements are ignored silently.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    if _local_name(root.tag) != "project":
        raise MalformedXml(f"root element must be <project>, got <{_local_name(root.tag)}>")
    coordinate = _read_coordinate(root, "project")
    for child in root:
        if _local_name(child.tag) in _IGNORED_PROJECT_ELEMENTS:
            logger.warning("project %s: ignoring <%s>", coordinate, _local_name(child.tag))

    declarations: list[DependencyDeclaration] = []
    sections = [child for child in root if _local_name(child.tag) == "dependencies"]
    if sections:
        dependency_elements = [
            child for child in sections[0] if _local_name(child.tag) == "dependency"
        ]
        for index, element in enumerate(dependency_elements):
            dep_coordinate = _read_coordinate(element, f"dependency #{index} of {coordinate}")
            for child in element:
                if _local_name(child.tag) == "exclusions":
                    logger.warning("dependency %s: ignoring <exclusions>", dep_coordinate)
            declarations.append(DependencyDeclaration(dep_coordinate, index))
    return PomDocument(coordinate, tuple(declarations))


@dataclass(frozen=True)
class RepositoryEntry:
    """Index record for one artifact version on disk.

    ``coordinate`` is the one the directory path implies. The POM is read,
    parsed and checked against it on the first read of ``document``, and the
    content source is looked up on the first read of ``content_path``; each
    result is then kept on the entry.
    """

    coordinate: Coordinate
    pom_path: Path

    @cached_property
    def document(self) -> PomDocument:
        try:
            text = self.pom_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IoFailure(f"cannot read {self.pom_path}: {exc}") from exc
        document = parse_pom(text)
        if document.coordinate != self.coordinate:
            raise CoordinateMismatch(
                f"{self.pom_path} declares {document.coordinate} but its "
                f"directory implies {self.coordinate}"
            )
        return document

    @cached_property
    def content_path(self) -> Path | None:
        """A sibling ``artifact.jar`` (preferred) or ``classes.txt``, if any."""
        try:
            for name in (JAR_NAME, CLASSLIST_NAME):
                candidate = self.pom_path.parent / name
                if candidate.is_file():
                    return candidate
        except OSError as exc:
            raise IoFailure(f"cannot read {self.pom_path.parent}: {exc}") from exc
        return None


@dataclass(frozen=True)
class Repository:
    """Read-only index of a ``<root>/<group>/<artifact>/<version>/`` layout."""

    root_directory: Path
    entries: Mapping[Coordinate, RepositoryEntry]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))


def load_repository(root_directory: Path | str) -> Repository:
    """Index every ``pom.xml`` found in the three-level repository layout.

    Only paths are read here: each entry's coordinate comes from its
    directory names, and a path whose names are not valid coordinate tokens
    is skipped with a warning. A POM is parsed when ``fetch_pom`` first asks
    for it, so a POM that resolution never reaches is never read.
    """
    root = Path(root_directory)
    if not root.is_dir():
        raise IoFailure(f"repository root {root} is not a readable directory")
    entries: dict[Coordinate, RepositoryEntry] = {}
    try:
        pom_paths = sorted(root.glob("*/*/*/pom.xml"))
        for pom_path in pom_paths:
            version_dir = pom_path.parent
            try:
                derived = Coordinate(
                    GroupArtifact(version_dir.parent.parent.name, version_dir.parent.name),
                    version_dir.name,
                )
            except InvalidCoordinate as exc:
                # no valid coordinate can name this entry, so nothing can reach it
                logger.warning("skipping %s: %s", pom_path, exc)
                continue
            entries[derived] = RepositoryEntry(derived, pom_path)
    except OSError as exc:
        raise IoFailure(f"cannot read repository under {root}: {exc}") from exc
    return Repository(root, entries)


def fetch_pom(repo: Repository, coordinate: Coordinate) -> PomDocument:
    """Return the parsed document for a coordinate, parsing it on first use.

    The first call for a coordinate reads its POM and raises ``IoFailure``,
    ``MalformedXml`` (or another parse error) or ``CoordinateMismatch`` if
    it is unreadable, malformed or declares another coordinate; later calls
    return the same document object.
    """
    entry = repo.entries.get(coordinate)
    if entry is None:
        raise PomNotFound(f"{coordinate} is not present in {repo.root_directory}")
    return entry.document

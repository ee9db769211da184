"""POM parsing and loading of an on-disk artifact repository."""

from __future__ import annotations

import errno
import logging
import os
import re
import stat
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from shadowscan.errors import (
    CoordinateMismatch,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    PomNotFound,
)
from shadowscan.model import Coordinate, GroupArtifact, PomDocument

logger = logging.getLogger(__name__)

JAR_NAME = "artifact.jar"
CLASSLIST_NAME = "classes.txt"
# Read caps: a POM larger than a signed JAR's manifest cap, or a class list
# larger than millions of class names, is hostile input, not a descriptor.
POM_LIMIT = 16 * 2**20
CLASSLIST_LIMIT = 64 * 2**20

# Recognized but not modeled; real-world snippets stay loadable with a warning.
_IGNORED_PROJECT_ELEMENTS = ("dependencyManagement", "profiles", "properties")


def read_text_file(path: Path, limit: int) -> str:
    """The UTF-8 text of a regular file of at most ``limit`` bytes, else ``IoFailure``.

    The file is opened without blocking, so a FIFO is refused instead of
    waited on, and its type is checked on the open descriptor, so a symlink
    to a device is refused too. The first read is sized by ``fstat``, so a
    small file never gets a buffer of the cap's size.
    """
    try:
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as file:
            info = os.fstat(file.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise IoFailure(f"cannot read {path}: not a regular file")
            size = min(info.st_size, limit)
            data = file.read(size + 1)
            if len(data) > size:  # the file holds more than fstat reported
                data += file.read(limit - size)
        if len(data) > limit:
            raise IoFailure(f"cannot read {path}: larger than {limit} bytes")
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


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

    dependencies: list[Coordinate] = []
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
            dependencies.append(dep_coordinate)
    return PomDocument(coordinate, tuple(dependencies))


@dataclass(frozen=True)
class RepositoryEntry:
    """One artifact version on disk, found at its coordinate's path.

    ``pom_path`` is ``<root>/<group>/<artifact>/<version>/pom.xml`` for
    ``coordinate``. The POM is read, parsed and checked against the
    coordinate on the first read of ``document``, and the content source is
    looked up on the first read of ``content_path``; each result is then
    kept on the entry.
    """

    coordinate: Coordinate
    pom_path: Path

    @cached_property
    def document(self) -> PomDocument:
        document = parse_pom(read_text_file(self.pom_path, POM_LIMIT))
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


# A token that would leave its level of the layout, or that no path can hold.
_NOT_A_NAME = re.compile(r"\A\.\.?\Z|[/\0]")
# errno values meaning that no file is at a path; any other error is a failed read.
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENAMETOOLONG})


@dataclass(frozen=True)
class Repository:
    """A ``<root>/<group>/<artifact>/<version>/`` layout, looked up by coordinate.

    ``entries`` is a read-only view of the entries found so far: it starts
    with those passed in, and ``lookup`` adds each coordinate whose POM it
    finds. The repository is never listed.
    """

    root_directory: Path
    entries: Mapping[Coordinate, RepositoryEntry] = field(default_factory=dict)
    _found: dict[Coordinate, RepositoryEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        found = dict(self.entries)
        object.__setattr__(self, "_found", found)
        object.__setattr__(self, "entries", MappingProxyType(found))

    def lookup(self, coordinate: Coordinate) -> RepositoryEntry | None:
        """The entry at the coordinate's path, found on first use and then kept.

        The path is ``<root>/<group>/<artifact>/<version>/pom.xml``. A token
        that is ``.`` or ``..`` or holds ``/`` or NUL names no entry, so a
        lookup never leaves the root's three-level layout. Any existing
        ``pom.xml``, even a directory, is an entry; reading it decides the
        rest. A failure to check the path other than its absence raises
        ``IoFailure``.
        """
        entry = self._found.get(coordinate)
        if entry is not None:
            return entry
        tokens = (coordinate.group_id, coordinate.artifact_id, coordinate.version)
        if any(_NOT_A_NAME.search(token) for token in tokens):
            return None
        pom_path = self.root_directory.joinpath(*tokens, "pom.xml")
        try:
            pom_path.stat()
        except OSError as exc:
            if exc.errno in _ABSENT:
                return None
            raise IoFailure(f"cannot read {pom_path}: {exc}") from exc
        entry = self._found[coordinate] = RepositoryEntry(coordinate, pom_path)
        return entry


def load_repository(root_directory: Path | str) -> Repository:
    """Open the repository at a directory; nothing under it is read here.

    Each artifact's POM is found by ``Repository.lookup`` when first asked
    for and parsed on the first ``fetch_pom``, so only the artifacts that
    resolution reaches are ever touched.
    """
    root = Path(root_directory)
    if not root.is_dir():
        raise IoFailure(f"repository root {root} is not a readable directory")
    return Repository(root)


def fetch_pom(repo: Repository, coordinate: Coordinate) -> PomDocument:
    """Return the parsed document for a coordinate, parsing it on first use.

    ``PomNotFound`` means that ``Repository.lookup`` found no POM at the
    coordinate's path. The first call for a coordinate reads its POM and
    raises ``IoFailure``, ``MalformedXml`` (or another parse error) or
    ``CoordinateMismatch`` if it is unreadable, malformed or declares
    another coordinate; later calls return the same document object.
    """
    entry = repo.lookup(coordinate)
    if entry is None:
        raise PomNotFound(f"{coordinate} is not present in {repo.root_directory}")
    return entry.document

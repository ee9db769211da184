"""POM parsing and loading of an on-disk artifact repository."""

from __future__ import annotations

import errno
import os
import re
import stat
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

from shadowscan.errors import (
    CoordinateMismatch,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    PomNotFound,
    ShadowscanError,
)
from shadowscan.model import Coordinate, GroupArtifact, PomDocument

JAR_NAME = "artifact.jar"
CLASSLIST_NAME = "classes.txt"
# Read caps: a POM larger than a signed JAR's manifest cap, or a class list
# larger than millions of class names, is hostile input, not a descriptor.
POM_LIMIT = 16 * 2**20
CLASSLIST_LIMIT = 64 * 2**20

# Recognized but not modeled; real-world snippets stay loadable with a warning.
_IGNORED_PROJECT_ELEMENTS = ("dependencyManagement", "profiles", "properties")


def open_regular_file(path: Path) -> BinaryIO:
    """``path`` opened for binary reading if it is a regular file, else ``IoFailure``.

    It is opened without blocking, so a FIFO is refused instead of waited on,
    and checked on the open descriptor, so a symlink to a device is refused
    too. A failed open raises ``OSError``.
    """
    file = open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
    if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        file.close()
        raise IoFailure(f"cannot read {path}: not a regular file")
    return file


def read_text_file(path: Path, limit: int) -> str:
    """The UTF-8 text of a regular file of at most ``limit`` bytes, else ``IoFailure``.

    A leading byte-order mark is dropped, so that it cannot hide the first
    line's name. The file is opened by ``open_regular_file``, and the first
    read is sized by ``fstat``, so a small file never gets a cap-sized buffer.
    """
    try:
        with open_regular_file(path) as file:
            size = min(os.fstat(file.fileno()).st_size, limit)
            data = file.read(size + 1)
            if len(data) > size:  # the file holds more than fstat reported
                data += file.read(limit - size)
        if len(data) > limit:
            raise IoFailure(f"cannot read {path}: larger than {limit} bytes")
        return data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _warn(message: str, *args: object) -> None:
    # logging loads on the first warning, not with every command; with no handler
    # configured, its last-resort handler writes the bare message to stderr
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _local_name(tag: str) -> str:
    # ElementTree encodes namespaces as "{uri}local"; match the local part only.
    return tag.rsplit("}", 1)[-1]


def _find_text(element: ET.Element, name: str) -> str | None:
    for child in element:
        if _local_name(child.tag) == name:
            return (child.text or "").strip()
    return None


def _read_coordinate(element: ET.Element, where: str, prefix: str) -> Coordinate:
    values: dict[str, str] = {}
    for name in ("groupId", "artifactId", "version"):
        text = _find_text(element, name)
        if not text:
            raise MissingCoordinate(f"{where}: missing or empty <{name}>")
        if "${" in text:
            _warn("%s%s: property placeholder %r is not interpolated", prefix, where, text)
        values[name] = text
    return Coordinate(GroupArtifact(values["groupId"], values["artifactId"]), values["version"])


def parse_pom(xml_text: str, source: str = "") -> PomDocument:
    """Parse the supported POM subset into a document.

    Only ``project``, ``groupId``, ``artifactId``, ``version``,
    ``dependencies``, and ``dependency`` elements carry meaning. Namespaces
    are ignored. ``dependencyManagement``, ``profiles``, ``properties``, and
    per-dependency ``exclusions`` are ignored with a warning; other unknown
    elements are ignored silently. A nonempty ``source`` begins every
    warning, so that it names the file the text came from.
    """
    prefix = f"{source}: " if source else ""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    if _local_name(root.tag) != "project":
        raise MalformedXml(f"root element must be <project>, got <{_local_name(root.tag)}>")
    coordinate = _read_coordinate(root, "project", prefix)
    for child in root:
        name = _local_name(child.tag)
        if name in _IGNORED_PROJECT_ELEMENTS:
            _warn("%sproject %s: ignoring <%s>", prefix, coordinate, name)

    dependencies: list[Coordinate] = []
    sections = [child for child in root if _local_name(child.tag) == "dependencies"]
    if sections:
        dependency_elements = [
            child for child in sections[0] if _local_name(child.tag) == "dependency"
        ]
        for index, element in enumerate(dependency_elements):
            where = f"dependency #{index} of {coordinate}"
            dep_coordinate = _read_coordinate(element, where, prefix)
            for child in element:
                if _local_name(child.tag) == "exclusions":
                    _warn("%sdependency %s: ignoring <exclusions>", prefix, dep_coordinate)
            dependencies.append(dep_coordinate)
    return PomDocument(coordinate, tuple(dependencies))


# errno values meaning that no file is at a path; any other error is a failed read.
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENAMETOOLONG})


@dataclass(frozen=True)
class RepositoryEntry:
    """One artifact version on disk, found at its coordinate's path.

    ``pom_path`` is ``<root>/<group>/<artifact>/<version>/pom.xml`` for
    ``coordinate``. The POM is read, parsed and checked against the
    coordinate on the first read of ``document`` (every parse warning and
    error names the file and the coordinate), and the content source is
    looked up on the first read of ``content_path``; each result is then
    kept on the entry.
    """

    coordinate: Coordinate
    pom_path: Path

    @cached_property
    def document(self) -> PomDocument:
        text = read_text_file(self.pom_path, POM_LIMIT)
        source = f"{self.pom_path} ({self.coordinate})"
        try:
            document = parse_pom(text, source)
        except ShadowscanError as exc:  # the same error, naming the file
            raise type(exc)(f"{source}: {exc}") from exc
        if document.coordinate != self.coordinate:
            raise CoordinateMismatch(
                f"{self.pom_path} declares {document.coordinate} but its "
                f"directory implies {self.coordinate}"
            )
        return document

    @cached_property
    def content_path(self) -> Path | None:
        """A sibling ``artifact.jar`` (preferred) or ``classes.txt``, if present.

        A name is present if ``lstat`` finds it, whatever it is: reading a
        present ``artifact.jar`` that is not a regular file then fails with
        ``IoFailure``, rather than the class list being read in its place.
        """
        for name in (JAR_NAME, CLASSLIST_NAME):
            candidate = self.pom_path.parent / name
            try:
                os.lstat(candidate)
            except OSError as exc:
                if exc.errno in _ABSENT:
                    continue
                raise IoFailure(f"cannot read {candidate}: {exc}") from exc
            return candidate
        return None


# A token that would leave its level of the layout, or that no path can hold.
_NOT_A_NAME = re.compile(r"\A\.\.?\Z|[/\0]")


@dataclass(frozen=True)
class Repository:
    """A ``<root>/<group>/<artifact>/<version>/`` layout, looked up by coordinate.

    ``entries`` holds the entries found so far: it starts with those passed
    in, and ``lookup`` adds each coordinate whose POM it finds. The
    repository is never listed.
    """

    root_directory: Path
    entries: dict[Coordinate, RepositoryEntry] = field(default_factory=dict)

    def lookup(self, coordinate: Coordinate) -> RepositoryEntry | None:
        """The entry at the coordinate's path, found on first use and then kept.

        The path is ``<root>/<group>/<artifact>/<version>/pom.xml``. A token
        that is ``.`` or ``..`` or holds ``/`` or NUL names no entry, so a
        lookup never leaves the root's three-level layout. Any existing
        ``pom.xml``, even a directory, is an entry; reading it decides the
        rest. A failure to check the path other than its absence raises
        ``IoFailure``.
        """
        entry = self.entries.get(coordinate)
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
        entry = self.entries[coordinate] = RepositoryEntry(coordinate, pom_path)
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

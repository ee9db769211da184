"""POM parsing and loading of an on-disk artifact repository."""

from __future__ import annotations

import codecs
import errno
import os
import re
import stat
import xml.etree.ElementTree as ET
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from shadowscan.errors import (
    CoordinateMismatch,
    DuplicateDeclaration,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    PomNotFound,
    ShadowscanError,
    inert,
)
from shadowscan.model import Coordinate, PomDocument

JAR_NAME = "artifact.jar"
CLASSLIST_NAME = "classes.txt"
# Read caps: a POM larger than a signed JAR's manifest cap, or a class list
# larger than millions of class names, is hostile input, not a descriptor.
POM_LIMIT = 16 * 2**20
CLASSLIST_LIMIT = 64 * 2**20

# Recognized but not modeled; real-world snippets stay loadable with a warning.
_IGNORED_PROJECT_ELEMENTS = ("dependencyManagement", "profiles", "properties")


def open_regular_file(path: Path | str) -> tuple[int, int]:
    """A raw descriptor of ``path`` opened for reading, and its size; ``IoFailure`` unless regular.

    It is opened without blocking, so a FIFO is refused instead of waited on,
    and ``fstat`` refuses a directory, a device or a symlink to one before
    any file object is built. A failed open raises ``OSError``.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            return fd, info.st_size
        raise IoFailure(f"cannot read {path}: not a regular file")
    except BaseException:
        os.close(fd)
        raise


def read_text_file(path: Path | str, limit: int) -> str:
    """The UTF-8 text of a regular file of at most ``limit`` bytes, else ``IoFailure``.

    One raw descriptor from ``open_regular_file`` is read, first for the size
    ``fstat`` reports, so a small file never gets a cap-sized buffer, then
    8 KiB at a time to end of file or past ``limit`` (procfs reports size 0).
    A leading byte-order mark, which would hide the first line's name, is dropped.
    """
    try:
        fd, reported = open_regular_file(path)
        try:
            chunks = [os.read(fd, min(reported, limit) + 1)]
            size = len(chunks[0])
            while size <= limit and (chunk := os.read(fd, min(limit + 1 - size, 2**13))):
                chunks.append(chunk)
                size += len(chunk)
        finally:
            os.close(fd)
        if size > limit:
            raise IoFailure(f"cannot read {path}: larger than {limit} bytes")
        data = b"".join(chunks)
        return (data[3:] if data.startswith(codecs.BOM_UTF8) else data).decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _warn(message: str, *args: object) -> None:
    # logging loads on the first warning, not with every command; with no handler
    # configured, its last-resort handler writes the bare message to stderr, escaped
    # as text output is: a POM names coordinates that may hold terminal controls
    import logging
    logging.getLogger(__name__).warning(inert(message % args))


def _read_coordinate(children: dict[str, ET.Element], where: str, prefix: str) -> Coordinate:
    values: list[str] = []
    for name in ("groupId", "artifactId", "version"):
        child = children.get(name)
        text = "" if child is None else (child.text or "").strip()
        if not text:
            raise MissingCoordinate(f"{where}: missing or empty <{name}>")
        if "${" in text:
            _warn("%s%s: property placeholder %r is not interpolated", prefix, where, text)
        values.append(text)
    return Coordinate.of(*values)


def parse_pom(xml_text: str, source: str = "") -> PomDocument:
    """Parse the supported POM subset into a document.

    Only ``project``, ``groupId``, ``artifactId``, ``version``,
    ``dependencies``, and ``dependency`` elements carry meaning; where one
    element holds several of the first five, the first counts. Namespaces
    are ignored. ``dependencyManagement``, ``profiles``, ``properties``, and
    per-dependency ``exclusions`` are ignored with a warning; other unknown
    elements are ignored silently. A group:artifact declared twice raises
    ``DuplicateDeclaration``. A nonempty ``source`` begins every warning, so
    that it names the file the text came from.
    """
    prefix = f"{source}: " if source else ""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    # ElementTree spells a namespaced tag "{uri}local"; only the local part counts
    tag = root.tag
    name = tag[tag.rfind("}") + 1:]
    if name != "project":
        raise MalformedXml(f"root element must be <project>, got <{name}>")
    children: dict[str, ET.Element] = {}  # the first child of each local name
    ignored: list[str] = []
    for child in root:
        tag = child.tag
        name = tag[tag.rfind("}") + 1:]
        children.setdefault(name, child)
        if name in _IGNORED_PROJECT_ELEMENTS:
            ignored.append(name)
    coordinate = _read_coordinate(children, "project", prefix)
    for name in ignored:
        _warn("%sproject %s: ignoring <%s>", prefix, coordinate, name)

    dependencies: list[Coordinate] = []
    section = children.get("dependencies")
    for element in () if section is None else section:
        tag = element.tag
        if tag[tag.rfind("}") + 1:] != "dependency":
            continue
        fields: dict[str, ET.Element] = {}
        exclusions = 0
        for child in element:
            tag = child.tag
            name = tag[tag.rfind("}") + 1:]
            fields.setdefault(name, child)
            exclusions += name == "exclusions"
        where = f"dependency #{len(dependencies)} of {coordinate}"
        dependency = _read_coordinate(fields, where, prefix)
        for _ in range(exclusions):
            _warn("%sdependency %s: ignoring <exclusions>", prefix, dependency)
        dependencies.append(dependency)
    seen: set[str] = set()
    for dependency in dependencies:
        ga = dependency.ga
        if ga in seen:
            raise DuplicateDeclaration(f"{ga} declared more than once")
        seen.add(ga)
    return PomDocument(coordinate, tuple(dependencies))


# errno values meaning that no file is at a path; any other error is a failed read.
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENAMETOOLONG})


class RepositoryEntry:
    """One artifact version on disk, found at its coordinate's path.

    ``pom_path`` is ``<root>/<group>/<artifact>/<version>/pom.xml`` for
    ``coordinate``, a ``str`` spelled as ``pathlib`` would spell it. The POM
    is read, parsed and checked against the coordinate on the first read of
    ``document`` (every parse warning and error names the file and the
    coordinate), and the content source is looked up on the first read of
    ``content_path``; each result is then kept on the entry.
    """

    def __init__(self, coordinate: Coordinate, pom_path: str) -> None:
        self.coordinate = coordinate
        self.pom_path = pom_path

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

        Each is checked as a ``str``, and the one found returned as a ``Path``.
        A name is present if ``lstat`` finds it, whatever it is: reading a
        present ``artifact.jar`` that is not a regular file then fails with
        ``IoFailure``, rather than the class list being read in its place.
        """
        directory = os.path.dirname(self.pom_path)
        for name in (JAR_NAME, CLASSLIST_NAME):
            candidate = f"{directory}/{name}"
            try:
                os.lstat(candidate)
            except OSError as exc:
                if exc.errno in _ABSENT:
                    continue
                raise IoFailure(f"cannot read {candidate}: {exc}") from exc
            return Path(candidate)
        return None


# A coordinate token that would leave its level of the layout, or that no path can hold.
_NOT_A_NAME = re.compile(r"(?:\A|:)\.\.?(?::|\Z)|[/\0]")


class Repository(NamedTuple):
    """A ``<root>/<group>/<artifact>/<version>/`` layout, looked up by coordinate.

    ``entries`` holds the entries found so far: it starts with those passed
    in, and ``lookup`` adds each coordinate whose POM it finds. The
    repository is never listed.
    """

    root_directory: Path
    entries: dict[Coordinate, RepositoryEntry]

    def lookup(self, coordinate: Coordinate) -> RepositoryEntry | None:
        """The entry at the coordinate's path, found on first use and then kept.

        The path is ``<root>/<group>/<artifact>/<version>/pom.xml``, a ``str``
        spelled as ``Path.joinpath`` would, and one ``os.stat`` checks it. A
        token that is ``.`` or ``..`` or holds ``/`` or NUL names no entry,
        so a lookup never leaves the root's three-level layout. Any existing
        ``pom.xml``, even a directory, is an entry; reading it decides the
        rest. A failure to check the path other than its absence raises
        ``IoFailure``.
        """
        entry = self.entries.get(coordinate)
        if entry is not None:
            return entry
        if _NOT_A_NAME.search(coordinate):
            return None
        root = os.fspath(self.root_directory)  # pathlib spells a root of "." as no prefix
        pom_path = os.path.join("" if root == "." else root, *coordinate.split(":"), "pom.xml")
        try:
            os.stat(pom_path)
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
    return Repository(root, {})


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

"""POM parsing and loading of an on-disk artifact repository."""

from __future__ import annotations

import codecs
import errno
import os
import re
import stat
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


# The plain POM subset, read without ElementTree: an optional UTF-8 declaration,
# then <project> with at most a default namespace whose URI holds no "}" (which
# ElementTree refuses), no control character and no reference; then tokens, each
# followed only by [ \t\n]: a section or dependency tag, the end of the root, or
# an unprefixed ASCII-named leaf of character data without "&", "<" or a control
# character (a CR would be normalized). A token begins with "<", so a scan that
# fails costs at most its own name and text: the reader is linear in the input.
_PLAIN_HEAD = re.compile(
    r'(?:<\?xml version="1\.0" encoding="UTF-8"\?>)?[ \t\n]*<project(?: xmlns="([^\x00-\x1f"&<}]*)")?>'
)
_PLAIN_TOKEN = re.compile(
    r"<(?:(/?dependenc(?:y|ies)|/project)"
    r"|([A-Za-z_][A-Za-z0-9._-]*)>([^\x00-\x08\x0b-\x1f&<]*)</\2)>"
)
# Namespaces in XML 1.0 §3: no default namespace may be bound to these; expat refuses them
_RESERVED_NAMESPACES = ("http://www.w3.org/XML/1998/namespace", "http://www.w3.org/2000/xmlns/")

# Each front end gives the root's local name, its children's local names and
# texts, and the children's names and texts of every dependency of the first
# dependencies section; a text is "" where ElementTree's is None.
_Read = tuple[str, list[str], list[str], list[tuple[list[str], list[str]]]]


def _read_plain(xml_text: str) -> _Read | None:
    """The plain POM subset's reading of the text, or None for any other text.

    Everything accepted parses to the same reading under ElementTree: no
    comment, reference, CDATA section, attribute but the default namespace,
    prefix, empty-element tag, CR, ``]]>`` or character outside XML 1.0's
    ``Char``; leaves hold character data only, and a ``dependencies``
    section holds ``dependency`` elements of such leaves.
    """
    head = _PLAIN_HEAD.match(xml_text)
    if (head is None or head[1] in _RESERVED_NAMESPACES or "]]>" in xml_text
            or not xml_text.isascii() and re.search("[\ud800-\udfff\ufffe\uffff]", xml_text)):
        return None
    # gap, tag, leaf name, leaf text, gap, ...: every gap must be whitespace,
    # and the last token must end the root
    parts = _PLAIN_TOKEN.split(xml_text[head.end():])
    if parts[-4:-3] != ["/project"] or "".join(parts[::4]).strip(" \t\n"):
        return None
    tags, names, values = parts[1:-4:4], parts[2:-4:4], parts[3:-4:4]
    children: list[str] = []
    texts: list[str] = []
    dependencies: list[tuple[list[str], list[str]]] | None = None
    section = None  # the open section's dependencies; only the first section's are kept
    opened = None  # the first token of the open dependency
    start = 0  # the first token of the current run of the project's leaves
    for index, tag in enumerate(tags):
        if tag is None:  # a leaf belongs to the project or to a dependency
            if section is not None and opened is None:
                return None
        elif opened is not None:
            if tag != "/dependency":
                return None
            if section is dependencies:
                section.append((names[opened:index], values[opened:index]))
            opened = None
        elif section is not None:
            if tag == "dependency":
                opened = index + 1
            elif tag == "/dependencies":
                section = None
                start = index + 1
            else:
                return None
        elif tag == "dependencies":
            children += names[start:index]
            texts += values[start:index]
            children.append(tag)
            texts.append(parts[4 * index + 4])  # the whitespace before its first tag
            section = []
            if dependencies is None:
                dependencies = section
        else:
            return None
    if section is not None:
        return None
    children += names[start:]
    texts += values[start:]
    return "project", children, texts, dependencies or []


def _local(tag: str) -> str:
    # ElementTree spells a namespaced tag "{uri}local"; only the local part counts
    return tag[tag.rfind("}") + 1:]


def _read_tree(xml_text: str) -> _Read:
    """ElementTree's reading of any text, or ``MalformedXml``."""
    import xml.etree.ElementTree as ET  # only a POM outside the plain subset loads it

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    names = [_local(child.tag) for child in root]
    dependencies = []
    if "dependencies" in names:
        for element in root[names.index("dependencies")]:
            if _local(element.tag) == "dependency":
                dependencies.append((
                    [_local(child.tag) for child in element],
                    [child.text or "" for child in element],
                ))
    return _local(root.tag), names, [child.text or "" for child in root], dependencies


def _prefix(source: str) -> str:
    return f"{source}: " if source else ""


def _where(project: Coordinate | None, index: int) -> str:
    return "project" if project is None else f"dependency #{index} of {project}"


def _read_coordinate(
    names: list[str], values: list[str], source: str,
    project: Coordinate | None = None, index: int = 0,
) -> Coordinate:
    """The coordinate that the first child of each coordinate name spells.

    The children are the project's, or its ``index``-th dependency's; the
    texts naming either are built only for an error or a warning.
    """
    tokens: list[str] = []
    for name in ("groupId", "artifactId", "version"):
        try:
            text = values[names.index(name)].strip()
        except ValueError:  # no child of that name
            text = ""
        if not text:
            raise MissingCoordinate(f"{_where(project, index)}: missing or empty <{name}>")
        if "${" in text:
            _warn("%s%s: property placeholder %r is not interpolated",
                  _prefix(source), _where(project, index), text)
        tokens.append(text)
    return Coordinate.of(*tokens)


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

    A text in the plain subset (``_read_plain``) is read without
    ElementTree; any other text is read by ElementTree, to the same result.
    """
    root, names, values, sections = _read_plain(xml_text) or _read_tree(xml_text)
    if root != "project":
        raise MalformedXml(f"root element must be <project>, got <{root}>")
    coordinate = _read_coordinate(names, values, source)
    for name in names:
        if name in _IGNORED_PROJECT_ELEMENTS:
            _warn("%sproject %s: ignoring <%s>", _prefix(source), coordinate, name)
    dependencies: list[Coordinate] = []
    for index, (child_names, child_values) in enumerate(sections):
        dependency = _read_coordinate(child_names, child_values, source, coordinate, index)
        for _ in range(child_names.count("exclusions")):
            _warn("%sdependency %s: ignoring <exclusions>", _prefix(source), dependency)
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

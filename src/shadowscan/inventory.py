"""Class inventories read from JAR archives or synthetic class-list files."""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import NamedTuple

from shadowscan.errors import (
    CorruptArchive,
    DuplicateClassName,
    InvalidClassName,
    InvalidEntryName,
    IoFailure,
    MissingContent,
    NotAZip,
)
from shadowscan.model import CLASS_NAME, Coordinate, check_class_name, package_of
from shadowscan.ordering import Classpath
from shadowscan.pom import CLASSLIST_LIMIT, CLASSLIST_NAME, JAR_NAME, Repository
from shadowscan.pom import open_regular_file, read_text_file

_MANIFEST_PATH = "META-INF/MANIFEST.MF"
# Signed JARs list a digest per entry, so large manifests exist; a larger one
# is a decompression bomb, not sealing metadata.
_MANIFEST_LIMIT = 16 * 2**20
_MODULE_INFO = "module-info.class"


class ClassInventory(NamedTuple):
    """Classes and sealed packages contributed by one artifact.

    Class names are plain ``str``. ``inspect_jar`` and ``inspect_classlist``
    validate each one and never list a class twice; an inventory built by
    hand is not checked again.
    """

    coordinate: Coordinate
    classes: tuple[str, ...]
    sealed_packages: frozenset[str] = frozenset()


def _entry_to_class_name(path: Path, entry: str) -> str:
    dotted = entry[: -len(".class")].replace("/", ".")
    if not CLASS_NAME.fullmatch(dotted):
        raise InvalidEntryName(f"{path}: entry {entry!r} is not convertible to a class name")
    return dotted


def _sealed_packages(manifest_text: str, classes: tuple[str, ...]) -> frozenset[str]:
    """The packages the JVM seals, decided as ``URLClassLoader.isSealed`` does.

    A package's ``Sealed`` value comes from its own ``Name: <pkg>/`` section
    when that section has one, and from the main section otherwise; attribute
    names and the value ``true`` are case-insensitive. Only named packages
    can be sealed: those of the classes and those the sections name. Values
    wrap at 72 bytes, and a continuation line starts with one space.
    """
    lines: list[str] = []
    for raw in manifest_text.splitlines():
        if raw.startswith(" ") and lines:
            lines[-1] += raw[1:]
        else:
            lines.append(raw)
    sections: list[dict[str, str]] = [{}]  # the main section, then one per blank line
    for line in lines:
        key, sep, value = line.partition(":")
        if sep:
            sections[-1][key.strip().lower()] = value.strip()
        elif not line.strip():
            sections.append({})
    main = sections[0].get("sealed", "")
    values: dict[str, str] = {}  # package -> its Sealed value
    if main.lower() == "true":  # else only a package's own section can seal it
        values = {package_of(name): main for name in classes if "." in name}
    for section in sections[1:]:
        name = section.get("name", "")
        if name.endswith("/") and "." not in name:
            package = name[:-1].replace("/", ".")  # sections of one name merge
            values[package] = section.get("sealed", values.get(package, main))
    return frozenset(package for package, value in values.items()
                     if package and value.lower() == "true")


def inspect_jar(file: Path | str, coordinate: Coordinate) -> ClassInventory:
    """Enumerate an archive's classes from its central directory.

    Entries under ``META-INF/`` (which covers multi-release trees) are not
    classes, and a top-level ``module-info.class`` is a module descriptor, not
    a class.
    Sealing is read from the manifest when one is present; that single entry
    is the only one decompressed, and only up to ``_MANIFEST_LIMIT`` bytes.
    A FIFO or a device is refused by ``pom.open_regular_file``, not waited on.
    """
    path = Path(file)
    try:
        with open_regular_file(path) as handle:
            if not zipfile.is_zipfile(handle):
                raise NotAZip(f"{path} is not a ZIP archive")
            with zipfile.ZipFile(handle) as archive:
                names = archive.namelist()
                manifest_text = None
                if _MANIFEST_PATH in names:
                    with archive.open(_MANIFEST_PATH) as entry:
                        manifest = entry.read(_MANIFEST_LIMIT + 1)
                    if len(manifest) > _MANIFEST_LIMIT:
                        raise CorruptArchive(
                            f"{path}: {_MANIFEST_PATH} inflates past {_MANIFEST_LIMIT} bytes"
                        )
                    manifest_text = manifest.decode("utf-8", errors="replace")
    # zipfile reports a damaged entry as an unsupported compression method
    # (NotImplementedError), a truncated stream (EOFError), a spurious
    # encryption flag (RuntimeError) or an undecodable UTF-8 name
    except (
        zipfile.BadZipFile, zlib.error, NotImplementedError, EOFError, RuntimeError,
        UnicodeDecodeError,
    ) as exc:
        raise CorruptArchive(f"{path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    # an archive may repeat an entry name; the first occurrence stands
    classes = tuple(dict.fromkeys(
        _entry_to_class_name(path, name)
        for name in names
        if name.endswith(".class") and not name.startswith("META-INF/")
        and name != _MODULE_INFO and not name.endswith("/" + _MODULE_INFO)
    ))
    sealed = _sealed_packages(manifest_text, classes) if manifest_text else frozenset()
    return ClassInventory(coordinate, classes, sealed)


def _validated_dotted(value: str, path: Path, line_number: int) -> str:
    try:
        return check_class_name(value)
    except InvalidClassName as exc:
        raise InvalidClassName(f"{path}:{line_number}: {exc}") from exc


def _read_lines(path: Path, text: str) -> tuple[dict[str, None], set[str]]:
    """The classes (an insertion-ordered set) and sealed packages of ``text``, line by line.

    This loop raises every error a class list can hold, naming its ``path:line``.
    """
    classes: dict[str, None] = {}
    sealed: set[str] = set()
    is_class_name = CLASS_NAME.fullmatch
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "@":
            directive, _, argument = line.partition(" ")
            argument = argument.strip()
            if directive == "@sealed" and argument:
                sealed.add(_validated_dotted(argument, path, line_number))
            elif directive == "@module" and argument:
                _validated_dotted(argument, path, line_number)
            else:
                raise InvalidClassName(f"{path}:{line_number}: unsupported directive {line!r}")
            continue
        if not is_class_name(line):
            _validated_dotted(line, path, line_number)  # raises, naming the line
        if line in classes:
            raise DuplicateClassName(f"{path}:{line_number}: {line} listed twice")
        classes[line] = None
    return classes, sealed


# An ASCII body holding none of these has no whitespace or "/" in a name and no
# comment or directive line.
_NOT_IN_BARE_BODY = (" ", "\t", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "/", "#", "@")


def inspect_classlist(file: Path | str, coordinate: Coordinate) -> ClassInventory:
    """Parse the one-class-per-line text format.

    Blank lines and ``#`` comments are skipped. ``@sealed <package>`` seals a
    package. ``@module <name>`` is accepted and its name validated, but it has
    no effect: ``check_modules`` counts every dependency once the root is a
    module.

    A header of ``#`` and ``@`` lines goes through the per-line loop. When
    the rest is bare, distinct ASCII class names with no ``#`` or ``@``, it
    is split in one step; anything else is read line by line, which names
    the first bad line.
    """
    path = Path(file)
    text = read_text_file(path, CLASSLIST_LIMIT)
    start = 0  # where the body starts, past the leading "#" and "@" lines
    while text.startswith(("#", "@"), start) and (end := text.find("\n", start)) >= 0:
        start = end + 1
    classes, sealed = _read_lines(path, text[:start])
    body = text[start:]
    # with "\n" read as ".", ".." marks an empty line or an empty name segment
    if (not classes and body.endswith("\n") and body.isascii()
            and not body.startswith((".", "\n"))
            and not any(part in body for part in _NOT_IN_BARE_BODY)
            and ".." not in body.replace("\n", ".")):
        names = body[:-1].split("\n")
        classes = dict.fromkeys(names)
        if len(classes) == len(names):
            return ClassInventory(coordinate, tuple(classes), frozenset(sealed))
    classes, sealed = _read_lines(path, text)
    return ClassInventory(coordinate, tuple(classes), frozenset(sealed))


def load_inventory(repo: Repository, coordinate: Coordinate) -> ClassInventory:
    """Load the content inventory for one artifact; a JAR beats a class list."""
    entry = repo.lookup(coordinate)
    if entry is None or entry.content_path is None:
        raise MissingContent(f"{coordinate} has no {JAR_NAME} or {CLASSLIST_NAME}")
    if entry.content_path.name == JAR_NAME:
        return inspect_jar(entry.content_path, coordinate)
    return inspect_classlist(entry.content_path, coordinate)


def inventory_all(repo: Repository, classpath: Classpath) -> list[ClassInventory]:
    """Inventories for every classpath entry, in classpath order."""
    return [load_inventory(repo, coordinate) for coordinate in classpath.entries]

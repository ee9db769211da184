"""Class inventories read from JAR archives or synthetic class-list files."""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

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


@dataclass(frozen=True)
class ClassInventory:
    """Classes and sealing/module metadata contributed by one artifact.

    ``module_name`` is only known for class-list sources; a JAR with a module
    descriptor is marked ``is_module`` with the name left unset, since the
    descriptor's constant pool is not parsed.

    Class names are plain ``str``. ``inspect_jar`` and ``inspect_classlist``
    validate each one and never list a class twice; an inventory built by
    hand is not checked again, except that ``module_name`` requires
    ``is_module``.
    """

    coordinate: Coordinate
    classes: tuple[str, ...]
    sealed_packages: frozenset[str] = frozenset()
    is_module: bool = False
    module_name: str | None = None

    def __post_init__(self) -> None:
        if self.module_name is not None and not self.is_module:
            raise ValueError("module_name requires is_module")

    @cached_property
    def packages(self) -> frozenset[str]:
        return frozenset(map(package_of, self.classes))


def _entry_to_class_name(entry: str) -> str:
    dotted = entry[: -len(".class")].replace("/", ".")
    if not CLASS_NAME.fullmatch(dotted):
        raise InvalidEntryName(f"entry {entry!r} is not convertible to a class name")
    return dotted


def _unfold_manifest(text: str) -> list[str]:
    # Manifest values wrap at 72 bytes; a continuation line starts with one space.
    lines: list[str] = []
    for raw in text.splitlines():
        if raw.startswith(" ") and lines:
            lines[-1] += raw[1:]
        else:
            lines.append(raw)
    return lines


def _manifest_sections(lines: list[str]) -> list[dict[str, str]]:
    chunks: list[list[str]] = [[]]
    for line in lines:
        if not line.strip():
            if chunks[-1]:
                chunks.append([])
            continue
        chunks[-1].append(line)
    sections: list[dict[str, str]] = []
    for chunk in chunks:
        attributes: dict[str, str] = {}
        for line in chunk:
            key, sep, value = line.partition(":")
            if sep:
                attributes[key.strip()] = value.strip()
        sections.append(attributes)
    return sections


def _sealed_packages(manifest_text: str, classes: tuple[str, ...]) -> frozenset[str]:
    sections = _manifest_sections(_unfold_manifest(manifest_text))
    main = sections[0] if sections else {}
    sealed: set[str] = set()
    if main.get("Sealed", "").lower() == "true":
        sealed.update(map(package_of, classes))
    for section in sections[1:]:
        name = section.get("Name", "")
        if name.endswith("/") and section.get("Sealed", "").lower() == "true":
            sealed.add(name.rstrip("/").replace("/", "."))
    return frozenset(sealed)


def inspect_jar(file: Path | str, coordinate: Coordinate) -> ClassInventory:
    """Enumerate an archive's classes from its central directory.

    Entries under ``META-INF/`` (which covers multi-release trees) are not
    classes, and module descriptors are metadata: a top-level
    ``module-info.class`` marks the artifact as modular, nothing more.
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
        _entry_to_class_name(name)
        for name in names
        if name.endswith(".class") and not name.startswith("META-INF/")
        and name != _MODULE_INFO and not name.endswith("/" + _MODULE_INFO)
    ))
    sealed = _sealed_packages(manifest_text, classes) if manifest_text else frozenset()
    return ClassInventory(
        coordinate=coordinate,
        classes=classes,
        sealed_packages=sealed,
        is_module=_MODULE_INFO in names,
    )


def _validated_dotted(value: str, path: Path, line_number: int) -> str:
    try:
        return check_class_name(value)
    except InvalidClassName as exc:
        raise InvalidClassName(f"{path}:{line_number}: {exc}") from exc


def inspect_classlist(file: Path | str, coordinate: Coordinate) -> ClassInventory:
    """Parse the one-class-per-line text format.

    Blank lines and ``#`` comments are skipped. ``@sealed <package>`` seals a
    package; ``@module <name>`` declares the artifact a named module.
    """
    path = Path(file)
    text = read_text_file(path, CLASSLIST_LIMIT)
    classes: dict[str, None] = {}  # an insertion-ordered set
    sealed: set[str] = set()
    module_name: str | None = None
    is_module = False
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
                is_module = True
                module_name = _validated_dotted(argument, path, line_number)
            else:
                raise InvalidClassName(f"{path}:{line_number}: unsupported directive {line!r}")
            continue
        if not is_class_name(line):
            _validated_dotted(line, path, line_number)  # raises, naming the line
        if line in classes:
            raise DuplicateClassName(f"{path}:{line_number}: {line} listed twice")
        classes[line] = None
    return ClassInventory(coordinate, tuple(classes), frozenset(sealed), is_module, module_name)


def render_classlist(inventory: ClassInventory) -> str:
    """Serialize an inventory back to the class-list text format."""
    lines: list[str] = []
    if inventory.is_module and inventory.module_name:
        lines.append(f"@module {inventory.module_name}")
    lines.extend(f"@sealed {package}" for package in sorted(inventory.sealed_packages))
    lines.extend(inventory.classes)
    return "".join(line + "\n" for line in lines)


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

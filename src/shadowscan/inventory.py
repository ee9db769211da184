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
from shadowscan.model import Coordinate, FullyQualifiedClassName
from shadowscan.ordering import Classpath
from shadowscan.pom import CLASSLIST_NAME, JAR_NAME, Repository

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
    """

    coordinate: Coordinate
    classes: tuple[FullyQualifiedClassName, ...]
    sealed_packages: frozenset[str] = frozenset()
    is_module: bool = False
    module_name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "sealed_packages", frozenset(self.sealed_packages))
        if len(set(self.classes)) != len(self.classes):
            raise DuplicateClassName(f"{self.coordinate} lists a class twice")
        if self.module_name is not None and not self.is_module:
            raise ValueError("module_name requires is_module")

    @cached_property
    def packages(self) -> frozenset[str]:
        return frozenset(cls.package for cls in self.classes)


def _entry_to_class_name(entry: str) -> FullyQualifiedClassName:
    dotted = entry[: -len(".class")].replace("/", ".")
    try:
        return FullyQualifiedClassName(dotted)
    except InvalidClassName as exc:
        raise InvalidEntryName(f"entry {entry!r} is not convertible to a class name") from exc


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


def _sealed_packages(
    manifest_text: str, classes: list[FullyQualifiedClassName]
) -> frozenset[str]:
    sections = _manifest_sections(_unfold_manifest(manifest_text))
    main = sections[0] if sections else {}
    sealed: set[str] = set()
    if main.get("Sealed", "").lower() == "true":
        sealed.update(cls.package for cls in classes)
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
    """
    path = Path(file)
    try:
        if not zipfile.is_zipfile(path):
            raise NotAZip(f"{path} is not a ZIP archive")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        with zipfile.ZipFile(path) as archive:
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
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise CorruptArchive(f"{path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    classes: list[FullyQualifiedClassName] = []
    seen: set[str] = set()
    for name in names:
        if not name.endswith(".class") or name.startswith("META-INF/"):
            continue
        if name == _MODULE_INFO or name.endswith("/" + _MODULE_INFO):
            continue
        fqcn = _entry_to_class_name(name)
        # an archive may repeat an entry name; the first occurrence stands
        if fqcn not in seen:
            seen.add(fqcn)
            classes.append(fqcn)
    sealed = _sealed_packages(manifest_text, classes) if manifest_text else frozenset()
    return ClassInventory(
        coordinate=coordinate,
        classes=tuple(classes),
        sealed_packages=sealed,
        is_module=_MODULE_INFO in names,
    )


def _validated_dotted(value: str, path: Path, line_number: int) -> str:
    try:
        return str(FullyQualifiedClassName(value))
    except InvalidClassName as exc:
        raise InvalidClassName(f"{path}:{line_number}: {exc}") from exc


def inspect_classlist(file: Path | str, coordinate: Coordinate) -> ClassInventory:
    """Parse the one-class-per-line text format.

    Blank lines and ``#`` comments are skipped. ``@sealed <package>`` seals a
    package; ``@module <name>`` declares the artifact a named module.
    """
    path = Path(file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    classes: list[FullyQualifiedClassName] = []
    seen: set[str] = set()
    sealed: set[str] = set()
    module_name: str | None = None
    is_module = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
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
        try:
            fqcn = FullyQualifiedClassName(line)
        except InvalidClassName as exc:
            raise InvalidClassName(f"{path}:{line_number}: {exc}") from exc
        if fqcn in seen:
            raise DuplicateClassName(f"{path}:{line_number}: {fqcn} listed twice")
        seen.add(fqcn)
        classes.append(fqcn)
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
    entry = repo.entries.get(coordinate)
    if entry is None or entry.content_path is None:
        raise MissingContent(f"{coordinate} has no {JAR_NAME} or {CLASSLIST_NAME}")
    if entry.content_path.name == JAR_NAME:
        return inspect_jar(entry.content_path, coordinate)
    return inspect_classlist(entry.content_path, coordinate)


def inventory_all(repo: Repository, classpath: Classpath) -> list[ClassInventory]:
    """Inventories for every classpath entry, in classpath order."""
    return [load_inventory(repo, coordinate) for coordinate in classpath.entries]

"""Class inventories read from JAR archives: the central directory and the manifest."""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path

from shadowscan.errors import CorruptArchive, InvalidEntryName, IoFailure, NotAZip
from shadowscan.inventory import ClassInventory
from shadowscan.model import CLASS_NAME, Coordinate, package_of
from shadowscan.pom import open_regular_file

_MANIFEST_PATH = "META-INF/MANIFEST.MF"
# Signed JARs list a digest per entry, so large manifests exist; a larger one
# is a decompression bomb, not sealing metadata.
_MANIFEST_LIMIT = 16 * 2**20
_MODULE_INFO = "module-info.class"


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
    A FIFO, a directory or a device is refused by ``pom.open_regular_file``.
    """
    path = file if isinstance(file, Path) else Path(file)
    try:
        with open(open_regular_file(path)[0], "rb") as handle:
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

"""Class inventories and the class bindings they give; ``shadowscan.jar`` reads JARs."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from shadowscan.errors import DuplicateClassName, InvalidClassName, MissingContent
from shadowscan.model import CLASS_NAME, Coordinate, check_class_name
from shadowscan.ordering import Classpath
from shadowscan.pom import CLASSLIST_LIMIT, CLASSLIST_NAME, JAR_NAME, Repository, read_text_file


class ClassInventory(NamedTuple):
    """Classes and sealed packages contributed by one artifact.

    Class names are plain ``str``. ``inspect_jar`` and ``inspect_classlist``
    validate each one and never list a class twice; an inventory built by
    hand is not checked again.
    """

    coordinate: Coordinate
    classes: tuple[str, ...]
    sealed_packages: frozenset[str] = frozenset()


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
    path = file if isinstance(file, Path) else Path(file)
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
    if entry is None or (path := entry.content_path) is None:
        raise MissingContent(f"{coordinate} has no {JAR_NAME} or {CLASSLIST_NAME}")
    if path.name == JAR_NAME:
        from shadowscan.jar import inspect_jar  # class lists never load the JAR reader

        return inspect_jar(path, coordinate)
    return inspect_classlist(path, coordinate)


def inventory_all(repo: Repository, classpath: Classpath) -> list[ClassInventory]:
    """Inventories for every classpath entry, in classpath order."""
    return [load_inventory(repo, coordinate) for coordinate in classpath.entries]


class EffectiveClassMap(NamedTuple):
    """What actually loads: each class name bound to its providers in classpath order.

    The first provider is the one the class loader returns; a class with
    more than one provider is shadowed.
    """

    bindings: Mapping[str, tuple[Coordinate, ...]]


def effective_classes(inventories: Sequence[ClassInventory]) -> EffectiveClassMap:
    """Bind every provided class to the inventories that carry it, earliest first.

    The bindings keep the order in which the classes are first seen.
    """
    providers: dict[str, Any] = {}  # class name -> its providers in order: a list, then its tuple
    get = providers.get
    for inventory in inventories:
        coordinate = inventory.coordinate
        for cls in inventory.classes:
            found = get(cls)
            if found is None:
                providers[cls] = [coordinate]
            else:
                found.append(coordinate)
    for cls, found in providers.items():  # in place: the keys and their order stay
        providers[cls] = tuple(found)
    return EffectiveClassMap(providers)

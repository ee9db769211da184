"""The three mitigation checks, run as pure analyses over the class map."""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from shadowscan.errors import InvalidClassName, InvalidPattern
from shadowscan.model import Coordinate, MitigationRule, check_class_name, package_of
from shadowscan.pom import read_text_file

if TYPE_CHECKING:
    from shadowscan.analysis import EffectiveClassMap
    from shadowscan.inventory import ClassInventory

# A list of collision patterns larger than this is hostile input, as a POM is.
ALLOWLIST_LIMIT = 16 * 2**20


class DuplicateClassViolation(NamedTuple):
    class_name: str
    winner: Coordinate
    shadowed: tuple[Coordinate, ...]


class SealedPackageViolation(NamedTuple):
    package: str
    sealed_by: Coordinate
    winners: tuple[Coordinate, ...]


class SplitPackageViolation(NamedTuple):
    package: str
    providers: tuple[Coordinate, ...]


class MitigationVerdict(NamedTuple):
    """Pass/fail outcome of one rule with its structured violations."""

    rule: MitigationRule
    violations: tuple = ()
    diagnostic: str | None = None

    _derived = ("passed",)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_pattern(pattern: str) -> str:
    """Return an allowlist pattern unchanged if it is valid; raise ``InvalidPattern`` if not.

    Three forms are supported: an exact class name, a package prefix such as
    ``org.test.*`` (matching everything under the package), and a trailing
    name prefix such as ``org.test.Nice*``. The wildcard may only appear as
    the final character.
    """
    if not pattern:
        raise InvalidPattern("empty pattern")
    if "*" in pattern[:-1]:
        raise InvalidPattern(f"{pattern!r}: '*' may only appear as the final character")
    if pattern.endswith("*"):
        prefix = pattern[:-1]
        dotted = prefix[:-1] if prefix.endswith(".") else prefix
        if dotted:
            _require_dotted(dotted, pattern)
        elif prefix:
            raise InvalidPattern(f"{pattern!r} has an empty package prefix")
    else:
        _require_dotted(pattern, pattern)
    return pattern


def _require_dotted(value: str, pattern: str) -> None:
    try:
        check_class_name(value)
    except InvalidClassName:
        raise InvalidPattern(f"{pattern!r} is not a valid class or package pattern") from None


def load_allowlist(path: Path | str) -> tuple[str, ...]:
    """Read one pattern per line; blank lines and ``#`` comments are skipped.

    The file is read as a POM is, by ``pom.read_text_file``: a FIFO, a device
    or more than ``ALLOWLIST_LIMIT`` bytes raises ``IoFailure``. Each pattern
    is checked by ``check_pattern`` as it is read; a malformed one raises its
    ``InvalidPattern`` message behind ``<path>:<line>: ``, whichever rules run.
    """
    path = Path(path)
    text = read_text_file(path, ALLOWLIST_LIMIT)
    patterns: list[str] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                patterns.append(check_pattern(line))
            except InvalidPattern as exc:
                raise InvalidPattern(f"{path}:{line_number}: {exc}") from exc
    return tuple(patterns)


def check_ban_duplicate_classes(
    class_map: EffectiveClassMap, allowlist: Iterable[str] = ()
) -> MitigationVerdict:
    """Fail on any shadowed class not covered by the allowlist.

    Collisions are sometimes expected (artifacts that were split or
    repackaged), hence the allowlist; left empty this is the strict CI gate.
    A class is allowed if it equals an exact pattern or starts with a ``*`` pattern's prefix.
    """
    patterns = [check_pattern(pattern) for pattern in allowlist]
    exact = {pattern for pattern in patterns if not pattern.endswith("*")}
    prefixes = tuple(pattern[:-1] for pattern in patterns if pattern.endswith("*"))
    violations = [
        DuplicateClassViolation(class_name, binding.winner, binding.shadowed)
        for class_name, binding in class_map.bindings.items()
        if binding.shadowed and class_name not in exact and not class_name.startswith(prefixes)
    ]
    violations.sort(key=attrgetter("class_name"))
    return MitigationVerdict(MitigationRule.BAN_DUPLICATE_CLASSES, tuple(violations))


def check_sealed(
    inventories: Sequence[ClassInventory], class_map: EffectiveClassMap
) -> MitigationVerdict:
    """Detect partial hijacks of sealed packages.

    A sealed package whose classes load from more than one artifact, one of
    them the sealing artifact itself, fails at runtime when the second
    archive is consulted. An attacker replacing the entire package defeats
    sealing, so that case passes here by design.
    """
    # dict keys double as an insertion-ordered set of each package's winners
    winners_by_package: dict[str, dict[Coordinate, None]] = {}
    for class_name, binding in class_map.bindings.items():
        winners_by_package.setdefault(package_of(class_name), {})[binding.winner] = None
    violations: list[SealedPackageViolation] = []
    for inventory in inventories:
        for package in sorted(inventory.sealed_packages):
            winners = winners_by_package.get(package, {})
            if len(winners) >= 2 and inventory.coordinate in winners:
                violations.append(
                    SealedPackageViolation(package, inventory.coordinate, tuple(winners))
                )
    return MitigationVerdict(MitigationRule.SEALED_JARS, tuple(violations))


def check_modules(
    inventories: Sequence[ClassInventory], root_is_module: bool
) -> MitigationVerdict:
    """Split-package detection under the module system.

    Protection only engages when the project itself is a module; every
    dependency then participates, named module or automatic. Without a
    modular root the check passes vacuously and says so.
    """
    if not root_is_module:
        return MitigationVerdict(
            MitigationRule.JAVA_MODULES,
            diagnostic="module protection inactive: the project is not a module",
        )
    providers: dict[str, dict[Coordinate, None]] = {}
    for inventory in inventories:
        for package in set(map(package_of, inventory.classes)):
            providers.setdefault(package, {})[inventory.coordinate] = None
    violations = tuple(
        SplitPackageViolation(package, tuple(coordinates))
        for package, coordinates in sorted(providers.items())
        if len(coordinates) >= 2
    )
    return MitigationVerdict(MitigationRule.JAVA_MODULES, violations)

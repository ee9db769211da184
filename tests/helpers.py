"""Builders and independent oracles shared by the test suite."""

from __future__ import annotations

import importlib
import os
import sys
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path
from random import Random
from types import ModuleType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NoReturn, Sequence
from unittest import mock

from shadowscan import cli, jsonv1, pom
from shadowscan.analysis import EcosystemComparison, ShadowFinding, WinnerComparison
from shadowscan.errors import (
    DuplicateClassName,
    DuplicateDeclaration,
    InvalidClassName,
    MalformedXml,
    MissingContent,
    MissingCoordinate,
    ShadowscanError,
    inert,
)
from shadowscan.inventory import ClassInventory, EffectiveClassMap, effective_classes
from shadowscan.mitigations import (
    DuplicateClassViolation,
    MitigationRule,
    MitigationVerdict,
    SealedPackageViolation,
    SplitPackageViolation,
)
from shadowscan.model import (
    INCLUDED,
    Coordinate,
    NodeStatus,
    OmittedConflict,
    OmittedDuplicate,
    PomDocument,
    ResolvedNode,
    ResolvedTree,
    check_class_name,
    package_of,
)
from shadowscan.ordering import Ecosystem, build_classpath
from shadowscan.pom import Repository, RepositoryEntry
from shadowscan.resolver import ResolutionReport

if TYPE_CHECKING:
    from argparse import ArgumentParser

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the root project of each bundled fixture
FIXTURE_ROOTS = {
    "cwa-server": "app.coronawarn:cwa-parent:3.2.0",
    "deep-hijack": "com.example:Project:1.0",
    "poc-attack-order": "org.example:victim:1.0",
    "poc-safe-order": "org.example:victim:1.0",
    "sample-app": "com.example:Project:1.0",
    "sealed-full": "org.example:app:1.0",
    "sealed-partial": "org.example:app:1.0",
}
BENCHMARK = Path(__file__).resolve().parent.parent / "shadowbench"
SPANS = BENCHMARK / "spans.py"


def load_spans() -> ModuleType:
    """The benchmark's tracer, ``shadowbench/spans.py``, run from its source.

    The source is compiled and run in a fresh module, not imported, so that
    no bytecode is written under ``shadowbench/``.
    """
    spans = ModuleType("shadowbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    return spans


def import_benchmark(name: str) -> ModuleType:
    """``shadowbench/<name>.py``, imported by name as the benchmark's own modules import it.

    No bytecode is written under ``shadowbench/``.
    """
    bench = str(BENCHMARK)
    sys.path.insert(0, bench)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(bench)


def json_report(command: str, inputs: dict[str, Any], payload: Any) -> str:
    """A schema v1 JSON report as one text: the writer's pieces, joined."""
    return "".join(jsonv1.report_pieces(command, inputs, payload))


def coord(text: str) -> Coordinate:
    return Coordinate(text)


# ---------------------------------------------------------------------------
# in-memory tree construction

# A shape is ("g:a:v", [child shapes]) with an optional third status element.
Shape = tuple


def build_tree(shape: Shape) -> ResolvedTree:
    """Build a ResolvedTree from nested shape tuples, assigning level-order indices."""
    indices: dict[tuple[int, ...], int] = {}
    queue: deque[tuple[Shape, tuple[int, ...]]] = deque([(shape, ())])
    counter = 0
    while queue:
        node, path = queue.popleft()
        indices[path] = counter
        counter += 1
        for child_index, child in enumerate(node[1]):
            queue.append((child, path + (child_index,)))

    def freeze(node: Shape, path: tuple[int, ...]) -> ResolvedNode:
        status: NodeStatus = node[2] if len(node) > 2 else INCLUDED
        return ResolvedNode(
            coordinate=Coordinate(node[0]),
            path=path,
            bfs_index=indices[path],
            status=status,
            children=tuple(
                freeze(child, path + (child_index,))
                for child_index, child in enumerate(node[1])
            ),
        )

    return tree_of(freeze(shape, ()))


def tree_of(root: ResolvedNode) -> ResolvedTree:
    """The tree whose nodes are the level-order walk from ``root``, unchecked."""
    nodes = [root]
    for node in nodes:
        nodes.extend(node.children)
    return ResolvedTree(tuple(nodes))


def sample_tree() -> ResolvedTree:
    """The ten-node example tree used throughout the fixtures."""
    e = "com.example"
    return build_tree(
        (f"{e}:Project:1.0", [
            (f"{e}:D1:1.0", [
                (f"{e}:D11:1.0", [
                    (f"{e}:D111:1.0", []),
                    (f"{e}:D112:1.0", []),
                ]),
            ]),
            (f"{e}:D2:1.0", [
                (f"{e}:D21:1.0", [(f"{e}:D211:1.0", [])]),
                (f"{e}:D22:1.0", [(f"{e}:D221:1.0", [])]),
            ]),
        ])
    )


def random_tree(rng: Random, max_depth: int = 5, max_children: int = 4) -> ResolvedTree:
    """Random all-included tree with distinct artifacts; the root keeps >= 1 child."""
    counter = [0]

    def gen(depth: int, min_children: int = 0) -> Shape:
        ident = counter[0]
        counter[0] += 1
        children = []
        if depth < max_depth:
            for _ in range(rng.randint(min_children, max_children)):
                children.append(gen(depth + 1))
        return (f"org.gen:lib{ident}:1.0", children)

    return build_tree(gen(0, min_children=1))


# ---------------------------------------------------------------------------
# on-disk repository construction

def write_pom(directory: Path, coordinate: Coordinate, dependencies: list[Coordinate]) -> None:
    lines = [
        "<project>",
        f"  <groupId>{coordinate.group_id}</groupId>",
        f"  <artifactId>{coordinate.artifact_id}</artifactId>",
        f"  <version>{coordinate.version}</version>",
    ]
    if dependencies:
        lines.append("  <dependencies>")
        for dep in dependencies:
            lines += [
                "    <dependency>",
                f"      <groupId>{dep.group_id}</groupId>",
                f"      <artifactId>{dep.artifact_id}</artifactId>",
                f"      <version>{dep.version}</version>",
                "    </dependency>",
            ]
        lines.append("  </dependencies>")
    lines.append("</project>")
    (directory / "pom.xml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_repo(
    root: Path,
    poms: dict[str, list[str]],
    classes: dict[str, list[str]] | None = None,
) -> Path:
    """Write a repository layout; keys and dependency lists are 'g:a:v' strings.

    ``classes`` values are raw classes.txt lines, so directives are allowed.
    """
    classes = classes or {}
    for text, dependency_texts in poms.items():
        coordinate = Coordinate(text)
        directory = root / coordinate.group_id / coordinate.artifact_id / coordinate.version
        directory.mkdir(parents=True, exist_ok=True)
        write_pom(directory, coordinate, [Coordinate(t) for t in dependency_texts])
        if text in classes:
            (directory / "classes.txt").write_text(
                "".join(line + "\n" for line in classes[text]), encoding="utf-8"
            )
    return root


def memory_repo(poms: dict[str, list[str]]) -> Repository:
    """An in-memory Repository, for sweeps that would otherwise hit the disk."""
    entries = {}
    for text, dependency_texts in poms.items():
        coordinate = Coordinate(text)
        document = PomDocument(coordinate, tuple(map(Coordinate, dependency_texts)))
        entry = RepositoryEntry(coordinate, "<memory>/pom.xml")
        # Fill the entry's memoized fields so that nothing is read from disk.
        vars(entry).update(document=document, content_path=None)
        entries[coordinate] = entry
    return Repository(Path("<memory>"), entries)


# ---------------------------------------------------------------------------
# resolution oracle

def full_expansion_winners(
    poms: dict[str, list[str]], root_text: str, max_depth: int = 32
) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Materialize the unpruned expansion, then pick winners level by level.

    Every declaration position is materialized first, with no conflict logic.
    The scan then walks positions in level order: the first live occurrence
    of a group:artifact wins, later live occurrences lose, and positions
    below a losing occurrence are dead because a build never fetches them.
    Returns ``group:artifact`` mapped to the winning ``(version, path)``.
    """
    nodes: list[tuple[tuple[int, ...], str, int | None]] = []
    queue: deque[tuple[tuple[int, ...], str, int | None]] = deque([((), root_text, None)])
    while queue:
        path, text, parent = queue.popleft()
        position = len(nodes)
        nodes.append((path, text, parent))
        if len(path) >= max_depth:
            continue
        for child_index, child_text in enumerate(poms[text]):
            queue.append((path + (child_index,), child_text, position))

    expandable = [False] * len(nodes)
    winners: dict[str, tuple[str, tuple[int, ...]]] = {}
    for position, (path, text, parent) in enumerate(nodes):
        if parent is not None and not expandable[parent]:
            continue
        ga, _, version = text.rpartition(":")
        if ga not in winners:
            winners[ga] = (version, path)
            expandable[position] = True
    return winners


def random_conflict_repo(rng: Random) -> tuple[dict[str, list[str]], str]:
    """Acyclic POM set where several group:artifact pairs ship two versions.

    Dependencies always point at strictly later list positions, so the full
    expansion is finite; version conflicts come from the shuffled order.
    """
    ga_count = rng.randint(3, 6)
    coords: list[str] = []
    for i in range(ga_count):
        for version in range(1, rng.randint(1, 2) + 1):
            coords.append(f"org.gen:lib{i}:{version}.0")
    rng.shuffle(coords)
    poms: dict[str, list[str]] = {}
    for index, text in enumerate(coords):
        own_ga = text.rsplit(":", 1)[0]
        later_by_ga: dict[str, list[str]] = {}
        for candidate in coords[index + 1 :]:
            ga = candidate.rsplit(":", 1)[0]
            if ga != own_ga:
                later_by_ga.setdefault(ga, []).append(candidate)
        chosen = rng.sample(sorted(later_by_ga), k=min(len(later_by_ga), rng.randint(0, 2)))
        poms[text] = [rng.choice(later_by_ga[ga]) for ga in chosen]
    by_ga: dict[str, list[str]] = {}
    for candidate in coords:
        by_ga.setdefault(candidate.rsplit(":", 1)[0], []).append(candidate)
    root_text = "org.gen:root:1.0"
    chosen = rng.sample(sorted(by_ga), k=min(len(by_ga), rng.randint(1, 4)))
    poms[root_text] = [rng.choice(by_ga[ga]) for ga in chosen]
    return poms, root_text


# ---------------------------------------------------------------------------
# inventory generation and the class-lookup oracle

def random_inventories(
    rng: Random,
    max_artifacts: int = 50,
    max_classes: int = 200,
    *,
    coordinates: Sequence[Coordinate] | None = None,
    seal: bool = False,
) -> list[ClassInventory]:
    """Inventories with deliberate class-name collisions across artifacts.

    ``coordinates`` fixes the artifacts, one inventory each, instead of a
    random number of generated ones. With ``seal`` each inventory also seals
    a random subset of the pool's packages, provided by it or not. A few of
    the pool's names are bare, in the unnamed package ``""``, which no
    artifact can seal.
    """
    pool_size = rng.randint(1, max_classes)
    pool = ["Main", "Util", "Util$1", *(f"org.pool.p{i % 7}.Class{i}" for i in range(pool_size))]
    if coordinates is None:
        count = rng.randint(1, max_artifacts)
        coordinates = [Coordinate.of("org.gen", f"art{n}", "1.0") for n in range(count)]
    inventories = []
    for coordinate in coordinates:
        names = rng.sample(pool, k=rng.randint(0, min(8, len(pool))))
        sealed = {f"org.pool.p{i}" for i in range(7) if rng.random() < 0.3} if seal else set()
        inventories.append(
            ClassInventory(
                coordinate,
                tuple(map(check_class_name, names)),
                frozenset(sealed),
            )
        )
    return inventories


def first_provider_scan(inventories: list[ClassInventory]) -> dict[str, tuple[Coordinate, ...]]:
    """Per class name, walk the whole classpath front to back and collect its providers."""
    names: list[str] = []
    seen: set[str] = set()
    for inventory in inventories:
        for cls in inventory.classes:
            if cls not in seen:
                seen.add(cls)
                names.append(cls)
    result = {}
    for name in names:
        result[name] = tuple(inv.coordinate for inv in inventories if name in inv.classes)
    return result


# ---------------------------------------------------------------------------
# straightforward references for the optimized analyses

def reference_dfs_order(tree: ResolvedTree, include_omitted: bool = True) -> list[ResolvedNode]:
    """Pre-order traversal with children in declaration order.

    This walk built the Maven classpath and the packaging layout before both
    became a sort of the included nodes by path.

    With ``include_omitted=False`` omitted nodes are skipped; their subtrees
    were never expanded, so nothing exists below them.
    """
    out: list[ResolvedNode] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if include_omitted or node.included:
            out.append(node)
            stack.extend(reversed(node.children))
    return out


def reference_parse_pom(xml_text: str, source: str = "") -> PomDocument:
    """``parse_pom`` as a walk that scans an element's children once per name it looks for.

    Warnings go through ``shadowscan.pom._warn``, looked up at each call, so
    that a test can record them for both parsers alike.
    """

    def local_name(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    def find_text(element: ET.Element, name: str) -> str | None:
        for child in element:
            if local_name(child.tag) == name:
                return (child.text or "").strip()
        return None

    def read_coordinate(element: ET.Element, where: str) -> Coordinate:
        values: dict[str, str] = {}
        for name in ("groupId", "artifactId", "version"):
            text = find_text(element, name)
            if not text:
                raise MissingCoordinate(f"{where}: missing or empty <{name}>")
            if "${" in text:
                pom._warn("%s%s: property placeholder %r is not interpolated", prefix, where, text)
            values[name] = text
        return Coordinate.of(values["groupId"], values["artifactId"], values["version"])

    prefix = f"{source}: " if source else ""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    if local_name(root.tag) != "project":
        raise MalformedXml(f"root element must be <project>, got <{local_name(root.tag)}>")
    coordinate = read_coordinate(root, "project")
    for child in root:
        name = local_name(child.tag)
        if name in ("dependencyManagement", "profiles", "properties"):
            pom._warn("%sproject %s: ignoring <%s>", prefix, coordinate, name)
    dependencies: list[Coordinate] = []
    sections = [child for child in root if local_name(child.tag) == "dependencies"]
    if sections:
        dependency_elements = [
            child for child in sections[0] if local_name(child.tag) == "dependency"
        ]
        for index, element in enumerate(dependency_elements):
            dep_coordinate = read_coordinate(element, f"dependency #{index} of {coordinate}")
            for child in element:
                if local_name(child.tag) == "exclusions":
                    pom._warn("%sdependency %s: ignoring <exclusions>", prefix, dep_coordinate)
            dependencies.append(dep_coordinate)
    seen: set[str] = set()
    for dependency in dependencies:
        if dependency.ga in seen:
            raise DuplicateDeclaration(f"{dependency.ga} declared more than once")
        seen.add(dependency.ga)
    return PomDocument(coordinate, tuple(dependencies))


def reference_class_name_ok(value: str) -> bool:
    """Per-segment rule: every dot-separated segment is nonempty, without '/' or whitespace."""
    return all(
        segment and "/" not in segment and not any(ch.isspace() for ch in segment)
        for segment in value.split(".")
    )


def reference_inspect_classlist(path: Path, coordinate: Coordinate) -> ClassInventory:
    """The class-list reader that built and checked one name object per line.

    Each stripped line is classified in turn; a class line is checked with
    the per-segment rule and then looked up in a ``seen`` set. A leading
    byte-order mark is dropped, as ``pom.read_text_file`` documents.
    """
    text = path.read_bytes().decode("utf-8-sig")
    classes: list[str] = []
    seen: set[str] = set()
    sealed: set[str] = set()

    def validated(value: str, line_number: int) -> str:
        if not reference_class_name_ok(value):
            raise InvalidClassName(
                f"{path}:{line_number}: invalid fully qualified class name {value!r}"
            )
        return value

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            directive, _, argument = line.partition(" ")
            argument = argument.strip()
            if directive == "@sealed" and argument:
                sealed.add(validated(argument, line_number))
            elif directive == "@module" and argument:
                validated(argument, line_number)
            else:
                raise InvalidClassName(f"{path}:{line_number}: unsupported directive {line!r}")
            continue
        name = validated(line, line_number)
        if name in seen:
            raise DuplicateClassName(f"{path}:{line_number}: {name} listed twice")
        seen.add(name)
        classes.append(name)
    return ClassInventory(coordinate, tuple(classes), frozenset(sealed))


def read_or_error(reader, path: Path) -> Any:
    """``reader``'s inventory of the list at ``path``, or the type and message of its error."""
    try:
        return reader(path, Coordinate.of("g", "a", "1"))
    except Exception as exc:
        return type(exc), str(exc)


def reference_is_sealed(manifest_text: str, package: str) -> bool:
    """``URLClassLoader.isSealed`` for a package, over the manifest as the JDK reads it.

    Continuation lines are joined first. The main section runs to the first
    blank line; each later section is keyed by its ``Name``, and sections of
    one name merge, the later value winning. Attribute names are
    case-insensitive. The section of ``org.x`` is ``Name: org/x/``; its
    ``Sealed`` value wins over the main section's. The JVM checks sealing
    only for classes whose name holds a ``.``, so the unnamed package is
    never sealed.
    """
    text = manifest_text.replace("\r\n", "\n").replace("\r", "\n").replace("\n ", "")
    main_text, _, rest = ("\n" + text).partition("\n\n")  # a first blank line ends main

    def attributes(block: str) -> dict[str, str]:
        pairs = (line.split(":", 1) for line in block.split("\n") if ":" in line)
        return {name.strip().lower(): value.strip() for name, value in pairs}

    sections: dict[str, dict[str, str]] = {}
    for block in rest.split("\n\n"):
        section = attributes(block)
        if "name" in section:
            sections.setdefault(section["name"], {}).update(section)
    own = sections.get(package.replace(".", "/") + "/", {})
    value = own.get("sealed", attributes(main_text).get("sealed"))
    return bool(package) and value is not None and value.lower() == "true"


def reference_token_ok(value: str) -> bool:
    """Per-character rule for coordinate tokens: nonempty, no ':' and no whitespace."""
    return bool(value) and ":" not in value and not any(ch.isspace() for ch in value)


def reference_allowed(name: str, patterns: Iterable[str]) -> bool:
    """Per-pattern allowlist rule: ``name`` equals a pattern or starts with one less its ``*``."""
    return any(
        name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern
        for pattern in patterns
    )


def reference_check_sealed(
    inventories: Sequence[ClassInventory], class_map: EffectiveClassMap
) -> MitigationVerdict:
    """Sealed-package check with list buckets and list-membership dedup."""
    winners_by_package: dict[str, list[Coordinate]] = {}
    for class_name, providers in class_map.bindings.items():
        bucket = winners_by_package.setdefault(package_of(class_name), [])
        if providers[0] not in bucket:
            bucket.append(providers[0])
    violations: list[SealedPackageViolation] = []
    for inventory in inventories:
        for package in sorted(inventory.sealed_packages):
            winners = winners_by_package.get(package, [])
            if len(winners) >= 2 and inventory.coordinate in winners:
                violations.append(
                    SealedPackageViolation(package, inventory.coordinate, tuple(winners))
                )
    return MitigationVerdict(MitigationRule.SEALED_JARS, tuple(violations))


def reference_check_modules(
    inventories: Sequence[ClassInventory], root_is_module: bool
) -> MitigationVerdict:
    """Split-package check with list buckets and list-membership dedup."""
    if not root_is_module:
        return MitigationVerdict(
            MitigationRule.JAVA_MODULES,
            diagnostic="module protection inactive: the project is not a module",
        )
    providers: dict[str, list[Coordinate]] = {}
    for inventory in inventories:
        for package in sorted(map(package_of, inventory.classes)):
            bucket = providers.setdefault(package, [])
            if inventory.coordinate not in bucket:
                bucket.append(inventory.coordinate)
    violations = tuple(
        SplitPackageViolation(package, tuple(coordinates))
        for package, coordinates in sorted(providers.items())
        if len(coordinates) >= 2
    )
    return MitigationVerdict(MitigationRule.JAVA_MODULES, violations)


def reference_compare_ecosystems(
    tree: ResolvedTree, inventories_by_coord: Mapping[Coordinate, ClassInventory]
) -> EcosystemComparison:
    """Build a full effective class map per ecosystem, then diff the winners."""
    maps: dict[Ecosystem, EffectiveClassMap] = {}
    for ecosystem in (Ecosystem.MAVEN, Ecosystem.GRADLE):
        ordered: list[ClassInventory] = []
        for coordinate in build_classpath(tree, ecosystem).entries:
            inventory = inventories_by_coord.get(coordinate)
            if inventory is None:
                raise MissingContent(f"no inventory supplied for {coordinate}")
            ordered.append(inventory)
        maps[ecosystem] = effective_classes(ordered)
    gradle_bindings = maps[Ecosystem.GRADLE].bindings
    return EcosystemComparison(tuple(
        WinnerComparison(class_name, providers[0], gradle_bindings[class_name][0])
        for class_name, providers in sorted(maps[Ecosystem.MAVEN].bindings.items())
        if len(providers) > 1
    ))


# ---------------------------------------------------------------------------
# the hand-written schema v1 payload builders, kept as references for the
# report writer: json.dumps(payload, sort_keys=True, indent=2) of their output
# is the recorded report

def reference_status_payload(node: ResolvedNode) -> dict[str, Any]:
    if isinstance(node.status, OmittedConflict):
        return {"kind": "omitted-conflict", "winner": str(node.status.winner)}
    if isinstance(node.status, OmittedDuplicate):
        return {
            "kind": "omitted-duplicate",
            "first_occurrence_path": list(node.status.first_occurrence_path),
        }
    return {"kind": "included"}


def reference_node_payload(node: ResolvedNode) -> dict[str, Any]:
    return {
        "coordinate": str(node.coordinate),
        "path": list(node.path),
        "depth": node.depth,
        "bfs_index": node.bfs_index,
        "status": reference_status_payload(node),
        "children": [reference_node_payload(child) for child in node.children],
    }


def reference_conflicts_payload(resolution: ResolutionReport) -> list[dict[str, Any]]:
    return [
        {
            "group_artifact": str(conflict.group_artifact),
            "winner": {
                "coordinate": str(conflict.winner.coordinate),
                "path": list(conflict.winner.path),
            },
            "losers": [
                {"coordinate": str(loser.coordinate), "path": list(loser.path)}
                for loser in conflict.losers
            ],
        }
        for conflict in resolution.conflicts
    ]


def reference_findings_payload(findings: list[ShadowFinding]) -> list[dict[str, Any]]:
    return [
        {
            "class_name": str(finding.class_name),
            "winner": str(finding.winner),
            "winner_depth": finding.winner_depth,
            "winner_path": list(finding.winner_path),
            "shadowed_victims": [str(victim) for victim in finding.shadowed_victims],
        }
        for finding in findings
    ]


def reference_violation_payload(violation: Any) -> dict[str, Any]:
    if isinstance(violation, DuplicateClassViolation):
        return {
            "class_name": str(violation.class_name),
            "winner": str(violation.winner),
            "shadowed": [str(coordinate) for coordinate in violation.shadowed],
        }
    if isinstance(violation, SealedPackageViolation):
        return {
            "package": violation.package,
            "sealed_by": str(violation.sealed_by),
            "winners": [str(coordinate) for coordinate in violation.winners],
        }
    if isinstance(violation, SplitPackageViolation):
        return {
            "package": violation.package,
            "providers": [str(coordinate) for coordinate in violation.providers],
        }
    raise TypeError(f"unexpected violation type {type(violation).__name__}")


def reference_verdict_payload(verdict: MitigationVerdict) -> dict[str, Any]:
    return {
        "rule": verdict.rule.value,
        "passed": verdict.passed,
        "diagnostic": verdict.diagnostic,
        "violations": [reference_violation_payload(violation) for violation in verdict.violations],
    }


def reference_comparison_payload(comparison: EcosystemComparison) -> list[dict[str, Any]]:
    return [
        {
            "class_name": str(entry.class_name),
            "maven_winner": str(entry.maven_winner),
            "gradle_winner": str(entry.gradle_winner),
            "differs": entry.differs,
        }
        for entry in comparison.entries
    ]


# ---------------------------------------------------------------------------
# plain-shaped POMs and the outcome of parsing one

def parsed(parse, text: str) -> tuple[Any, list[str]]:
    """The document or the error that ``parse`` gives, and the warnings it logs in order."""
    warnings: list[str] = []
    with mock.patch.object(pom, "_warn", lambda message, *args: warnings.append(message % args)):
        try:
            result = parse(text, "pom.xml")
        except ShadowscanError as exc:
            result = (type(exc), str(exc))
    return result, warnings


# POMs of the plain shape: leaves of character data and dependencies sections
# in any order, the coordinate elements now and then missing or repeated,
# ignored and unknown leaves, empty dependencies and a second section. About
# two in three dependencies are conventional (the three coordinate leaves in order),
# now and then with a non-space gap or a placeholder, empty or padded text, and
# from small pools, so that group:artifacts repeat; a few stand directly under
# the project. One in three POMs then holds a construct outside the plain
# subset, at any boundary between tags and texts; a few hold a namespace URI
# or a text that ElementTree refuses or reads otherwise, or are truncated.
PLAIN_SPACES = ["", "\n", "\n  ", " ", "\t"]
PLAIN_VALUES = {
    "groupId": ["g", "h"], "artifactId": ["a", "b", "c"], "version": ["1", "2"],
}
ODD_VALUES = ["", " g\n", "${x}", "a b", "a:b", "a>b", "]]", "é", "\U0001F600", "\x7f", "\x85",
              "\tg", "1\n\t", "a\tb", "a\nb", " "]
TRAP_VALUES = ["\x01", "\x1f", "\x0c", "\ufffe", "\uffff", "a]]>b", "a\rb", "a\r\nb"]
# what may stand between a conventional dependency's tags but is not plain
TRAP_GAPS = ["x", "\r\n", "\xa0", "\x0c", " <!-- c --> ", "<x/>", "&#32;"]
TRAP_URIS = [
    "http://www.w3.org/XML/1998/namespace", "http://www.w3.org/2000/xmlns/", "urn:a}b",
    "urn:\x01", "urn:\ufffe", "urn:\uffff", "urn:a\tb", "urn:a&amp;b",
]
OUTSIDE = [
    "<!-- c -->", "<![CDATA[x]]>", "&amp;", "&lt;", "&#65;", "&#x41;", "<x/>", "<dependency/>",
    '<name a="1">x</name>', '<p:name xmlns:p="urn:p">x</p:name>', "<?pi x?>", "\r\n",
    "<dependency><groupId>g</groupId></dependency>", "<x><y>1</y></x>", "</dependency>",
]
ROOTS = [
    ("<project>", "</project>"),
    ('<project xmlns="http://maven.apache.org/POM/4.0.0">', "</project>"),
    ('<project xmlns="urn:x" xmlns:p="urn:p">', "</project>"),
    ('<p:project xmlns:p="urn:p">', "</p:project>"),
    ("<projects>", "</projects>"),
]
COORDINATE_LEAVES = ["groupId", "artifactId", "version"]


def plain_pom(rng: Random) -> str:
    """A POM of the plain shape, mostly inside the plain subset."""
    pieces: list[str] = []  # each a tag, a text or the whitespace between tags

    def value(name: str) -> str:
        if rng.random() < 0.005:
            return rng.choice(TRAP_VALUES)
        if rng.random() < 0.1:
            return rng.choice(ODD_VALUES)
        return rng.choice(PLAIN_VALUES.get(name, ["x", "1"]))

    def leaf(name: str) -> None:
        pieces.extend((rng.choice(PLAIN_SPACES), f"<{name}>", value(name), f"</{name}>"))

    def conventional() -> None:
        gaps = [rng.choice(PLAIN_SPACES) for _ in range(4)]
        if rng.random() < 0.03:
            gaps[rng.randrange(4)] = rng.choice(TRAP_GAPS)
        pieces.extend((rng.choice(PLAIN_SPACES), "<dependency>"))
        for gap, name in zip(gaps, COORDINATE_LEAVES):
            pieces.extend((gap, f"<{name}>", value(name), f"</{name}>"))
        pieces.extend((gaps[3], "</dependency>"))

    def children(names: list[str]) -> None:
        coordinates = list(COORDINATE_LEAVES)
        if rng.random() < 0.1:
            coordinates.remove(rng.choice(coordinates))
        if rng.random() < 0.1:
            coordinates.append(rng.choice(coordinates))
        names += coordinates
        rng.shuffle(names)
        for name in names:
            if name == "dependencies":
                section()
            elif name == "dependency":
                conventional()
            else:
                leaf(name)

    def section() -> None:
        pieces.extend((rng.choice(PLAIN_SPACES), "<dependencies>"))
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.7:
                conventional()
                continue
            pieces.extend((rng.choice(PLAIN_SPACES), "<dependency>"))
            if rng.random() >= 0.1:  # else an empty dependency
                children(rng.choices(["scope", "exclusions", "type"], k=rng.randint(0, 2)))
            pieces.extend((rng.choice(PLAIN_SPACES), "</dependency>"))
        pieces.extend((rng.choice(PLAIN_SPACES), "</dependencies>"))

    children([
        *rng.choices(["modelVersion", "name", "properties", "profiles", "dependencyManagement"],
                     k=rng.randint(0, 2)),
        *["dependencies"] * rng.choice([0, 1, 1, 1, 1, 1, 2, 2]),
        *["dependency"] * (rng.random() < 0.03),
    ])
    start, end = ROOTS[0 if rng.random() < 0.4 else 1] if rng.random() < 0.9 else rng.choice(ROOTS)
    if rng.random() < 0.1:
        start = f'<project xmlns="{rng.choice(TRAP_URIS)}">'
    if rng.random() < 1 / 3:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(OUTSIDE))
    declaration = '<?xml version="1.0" encoding="UTF-8"?>\n' if rng.random() < 0.5 else ""
    text = f"{declaration}{start}{''.join(pieces)}{rng.choice(PLAIN_SPACES)}{end}\n"
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text))]
    return text


# ---------------------------------------------------------------------------
# command lines: a hand-declared parser and random argv

def reference_parser() -> ArgumentParser:
    """The command line declared option by option, apart from ``cli``'s grammar table.

    ``cli.build_parser`` builds its parser from the table that the plain reader
    also reads, so comparing the two readers cannot see a wrong default, choice,
    required option, one-of group or help text in that table; comparing
    ``cli.build_parser`` with this parser can. The checks and handlers are
    ``cli``'s own, which other tests cover.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            print(f"error: {inert(message)}", file=sys.stderr)
            raise SystemExit(1)

    common = Parser(add_help=False)
    common.add_argument("--repo", default=os.environ.get("SHADOWSCAN_REPO"),
                        help="repository root directory (default: $SHADOWSCAN_REPO)")
    common.add_argument("--root", required=True, help="root project coordinate group:artifact:version")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-depth", type=cli._depth_argument, default=64)

    description = "Command-line interface: resolve, classpath, scan, hijack, check, compare."
    parser = Parser(prog="shadowscan", description=description)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("resolve", parents=[common], help="print the resolved tree")
    sub.set_defaults(handler=cli.cmd_resolve)

    sub = subparsers.add_parser("classpath", parents=[common], help="print the ordered classpath")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.add_argument("--layout", choices=("flat", "nested", "none"), default="none")
    sub.set_defaults(handler=cli.cmd_classpath)

    sub = subparsers.add_parser("scan", parents=[common], help="report shadowed classes")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.add_argument("--fail-on-shadow", action="store_true")
    sub.set_defaults(handler=cli.cmd_scan)

    sub = subparsers.add_parser("hijack", parents=[common], help="hijack reach or surface of an artifact")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--attacker", help="coordinate whose reach to compute")
    group.add_argument("--target", help="coordinate whose surface to compute")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.set_defaults(handler=cli.cmd_hijack)

    sub = subparsers.add_parser("check", parents=[common], help="run mitigation checks")
    sub.add_argument("--rules", type=cli._rules_argument, default=(
        MitigationRule.BAN_DUPLICATE_CLASSES, MitigationRule.SEALED_JARS, MitigationRule.JAVA_MODULES))
    sub.add_argument("--allowlist", type=cli._allowlist_argument,
                     help="file of allowed collision patterns")
    sub.add_argument("--root-module", action="store_true")
    sub.set_defaults(handler=cli.cmd_check)

    sub = subparsers.add_parser("compare", parents=[common], help="diff Maven vs Gradle winners")
    sub.set_defaults(handler=cli.cmd_compare)
    return parser


# the options of every command, with values that pass each option's check
GOOD_VALUES = {
    "--repo": ["repo", "a b"], "--root": ["g:a:1", "x"], "--format": ["text", "json"],
    "--max-depth": ["0", "12", " 7"], "--ecosystem": ["maven", "gradle"],
    "--layout": ["flat", "nested", "none"], "--attacker": ["g:a:1"], "--target": ["g:b:1"],
    "--rules": ["dup", "sealed,dup", " modules , dup,dup"], "--allowlist": ["allow.txt", "a b"],
    "--fail-on-shadow": [], "--root-module": [],
}
ARGV_VALUES = ["", "-", "-1", "--root", "x1", "xml", "ant", "dup,bogus", "resolve", "a b", " -x"]
ARGV_EXTRAS = ["-h", "--help", "--", "-", "extra", "--unknown", "-x", "--rep", "--max", "--fail"]
# each command's own options; every command also takes --repo, --root, --format and --max-depth
ARGV_COMMANDS = {
    "resolve": [], "classpath": ["--ecosystem", "--layout"],
    "scan": ["--ecosystem", "--fail-on-shadow"], "hijack": ["--attacker", "--target", "--ecosystem"],
    "check": ["--rules", "--allowlist", "--root-module"], "compare": [],
}


def random_argv(rng: Random) -> list[str]:
    """A mostly well-formed argv: a command and its options, then a few faults."""
    command = rng.choice(list(ARGV_COMMANDS)) if rng.random() < 0.95 else rng.choice(["", "-h", "x"])
    own = ["--repo", "--format", "--max-depth", *ARGV_COMMANDS.get(command, [])]
    options = rng.sample(own if rng.random() < 0.85 else list(GOOD_VALUES), rng.randint(0, 3))
    if command == "hijack" and rng.random() < 0.9:
        options.append(rng.choice(["--attacker", "--target"]))
    if rng.random() < 0.9:
        options.append("--root")
    rng.shuffle(options)
    argv = [command]
    for option in options:
        values = GOOD_VALUES[option] if rng.random() < 0.9 else ARGV_VALUES
        value = [rng.choice(values)] if values and rng.random() < 0.97 else []
        if rng.random() < 0.04:  # an abbreviation, which may be ambiguous
            option = option[:rng.randint(3, len(option) - 1)]
        if value and rng.random() < 0.04:
            argv.append(f"{option}={value[0]}")
        else:
            argv += [option, *value]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        start = rng.randint(1, len(argv))
        if rng.random() < 0.5:  # a repeat of a token or of a token and the next
            argv += argv[start:start + rng.randint(1, 2)]
        else:
            argv.insert(start, rng.choice([*ARGV_EXTRAS, *ARGV_VALUES, *GOOD_VALUES]))
    return argv

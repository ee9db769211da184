"""Builders and independent oracles shared by the test suite."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Mapping, Sequence

from shadowscan.analysis import (
    EcosystemComparison,
    EffectiveClassMap,
    ShadowFinding,
    WinnerComparison,
    effective_classes,
)
from shadowscan.errors import DuplicateClassName, InvalidClassName, MissingContent
from shadowscan.inventory import ClassInventory, inventory_all
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
from shadowscan.ordering import Classpath, Ecosystem, build_classpath
from shadowscan.pom import Repository, RepositoryEntry, fetch_pom, load_repository
from shadowscan.resolver import ResolutionReport, resolve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def coord(text: str) -> Coordinate:
    return Coordinate.parse(text)


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
            coordinate=Coordinate.parse(node[0]),
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
        coordinate = Coordinate.parse(text)
        directory = root / coordinate.group_id / coordinate.artifact_id / coordinate.version
        directory.mkdir(parents=True, exist_ok=True)
        write_pom(directory, coordinate, [Coordinate.parse(t) for t in dependency_texts])
        if text in classes:
            (directory / "classes.txt").write_text(
                "".join(line + "\n" for line in classes[text]), encoding="utf-8"
            )
    return root


def memory_repo(poms: dict[str, list[str]]) -> Repository:
    """An in-memory Repository, for sweeps that would otherwise hit the disk."""
    entries = {}
    for text, dependency_texts in poms.items():
        coordinate = Coordinate.parse(text)
        document = PomDocument(coordinate, tuple(map(Coordinate.parse, dependency_texts)))
        entry = RepositoryEntry(coordinate, Path("<memory>/pom.xml"))
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
    a random subset of the pool's packages, provided by it or not.
    """
    pool_size = rng.randint(1, max_classes)
    pool = [f"org.pool.p{i % 7}.Class{i}" for i in range(pool_size)]
    if coordinates is None:
        count = rng.randint(1, max_artifacts)
        coordinates = [Coordinate.of("org.gen", f"art{n}", "1.0") for n in range(count)]
    inventories = []
    for coordinate in coordinates:
        names = rng.sample(pool, k=rng.randint(0, min(8, pool_size)))
        sealed = {f"org.pool.p{i}" for i in range(7) if rng.random() < 0.3} if seal else set()
        inventories.append(
            ClassInventory(
                coordinate,
                tuple(map(check_class_name, names)),
                frozenset(sealed),
            )
        )
    return inventories


def first_provider_scan(
    inventories: list[ClassInventory],
) -> dict[str, tuple[Coordinate, tuple[Coordinate, ...]]]:
    """Per class name, walk the classpath front to back and stop at the first provider."""
    names: list[str] = []
    seen: set[str] = set()
    for inventory in inventories:
        for cls in inventory.classes:
            if cls not in seen:
                seen.add(cls)
                names.append(cls)
    result = {}
    for name in names:
        providers = [inv.coordinate for inv in inventories if name in inv.classes]
        result[name] = (providers[0], tuple(providers[1:]))
    return result


# ---------------------------------------------------------------------------
# fixture pipeline

@dataclass
class Pipeline:
    repo: Repository
    resolution: ResolutionReport
    classpath: Classpath
    inventories: list[ClassInventory]
    class_map: EffectiveClassMap


def run_pipeline(fixture: str, root_text: str, ecosystem: Ecosystem = Ecosystem.MAVEN) -> Pipeline:
    """Load a bundled fixture end to end, up to its effective class map."""
    repo = load_repository(FIXTURES / fixture)
    resolution = resolve(repo, fetch_pom(repo, coord(root_text)))
    classpath = build_classpath(resolution.tree, ecosystem)
    inventories = inventory_all(repo, classpath)
    return Pipeline(repo, resolution, classpath, inventories, effective_classes(inventories))


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


def reference_class_name_ok(value: str) -> bool:
    """Per-segment rule: every dot-separated segment is nonempty, without '/' or whitespace."""
    return all(
        segment and "/" not in segment and not any(ch.isspace() for ch in segment)
        for segment in value.split(".")
    )


def reference_inspect_classlist(path: Path, coordinate: Coordinate) -> ClassInventory:
    """The class-list reader that built and checked one name object per line.

    Each stripped line is classified in turn; a class line is checked with
    the per-segment rule and then looked up in a ``seen`` set.
    """
    text = path.read_bytes().decode("utf-8")
    classes: list[str] = []
    seen: set[str] = set()
    sealed: set[str] = set()
    module_name: str | None = None
    is_module = False

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
                is_module = True
                module_name = validated(argument, line_number)
            else:
                raise InvalidClassName(f"{path}:{line_number}: unsupported directive {line!r}")
            continue
        name = validated(line, line_number)
        if name in seen:
            raise DuplicateClassName(f"{path}:{line_number}: {name} listed twice")
        seen.add(name)
        classes.append(name)
    return ClassInventory(coordinate, tuple(classes), frozenset(sealed), is_module, module_name)


def reference_token_ok(value: str) -> bool:
    """Per-character rule for coordinate tokens: nonempty, no ':' and no whitespace."""
    return bool(value) and ":" not in value and not any(ch.isspace() for ch in value)


def reference_check_sealed(
    inventories: Sequence[ClassInventory], class_map: EffectiveClassMap
) -> MitigationVerdict:
    """Sealed-package check with list buckets and list-membership dedup."""
    winners_by_package: dict[str, list[Coordinate]] = {}
    for class_name, binding in class_map.bindings.items():
        bucket = winners_by_package.setdefault(package_of(class_name), [])
        if binding.winner not in bucket:
            bucket.append(binding.winner)
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
        for package in sorted(inventory.packages):
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
        WinnerComparison(class_name, binding.winner, gradle_bindings[class_name].winner)
        for class_name, binding in sorted(maps[Ecosystem.MAVEN].bindings.items())
        if binding.shadowed
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

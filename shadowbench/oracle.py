"""Independent reference for every report the benchmark checks.

Everything here is derived from the generator's in-memory ``Workspace``,
never from ``shadowscan``, so a defect in the program cannot hide in its
own check. Each derivation is linear (or a sort) in the size of its input:
the tree is expanded once with omitted occurrences cut, and the package
buckets of the mitigation checks are ordered dicts, not lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from workloads import Workspace

SCHEMA_VERSION = 1
RULES = ("ban-duplicate-classes", "sealed-jars", "java-modules")


@dataclass
class Node:
    coordinate: str
    ga: str
    path: tuple[int, ...]
    status: dict
    children: list = field(default_factory=list)

    @property
    def included(self) -> bool:
        return self.status["kind"] == "included"


@dataclass
class Resolution:
    root: Node
    nodes: list[Node]  # level order, omitted occurrences included
    conflicts: list[dict]

    def classpath(self, ecosystem: str) -> list[Node]:
        """Included dependencies: Maven sorts by path, Gradle by (depth, path)."""
        included = [node for node in self.nodes[1:] if node.included]
        if ecosystem == "maven":
            return sorted(included, key=lambda node: node.path)
        return sorted(included, key=lambda node: (len(node.path), node.path))


def _ga(coordinate: str) -> str:
    return coordinate.rpartition(":")[0]


def resolve(workspace: Workspace, max_depth: int) -> Resolution:
    """Nearest-wins breadth-first expansion; later group:artifacts are cut unexpanded."""
    root = Node(workspace.root, _ga(workspace.root), (), {"kind": "included"})
    nodes = [root]
    winners: dict[str, Node] = {root.ga: root}
    losers: dict[str, list[dict]] = {}
    queue = deque(
        (root, index, ":".join(dependency))
        for index, dependency in enumerate(workspace.artifacts[root.coordinate].dependencies)
    )
    while queue:
        parent, index, coordinate = queue.popleft()
        path = parent.path + (index,)
        if len(path) > max_depth:
            raise ValueError(f"{coordinate} at depth {len(path)} exceeds {max_depth}")
        ga = _ga(coordinate)
        winner = winners.get(ga)
        if winner is None:
            status = {"kind": "included"}
        elif winner.coordinate == coordinate:
            status = {"kind": "omitted-duplicate", "first_occurrence_path": list(winner.path)}
        else:
            status = {"kind": "omitted-conflict", "winner": winner.coordinate}
            losers.setdefault(ga, []).append({"coordinate": coordinate, "path": list(path)})
        node = Node(coordinate, ga, path, status)
        nodes.append(node)
        parent.children.append(node)
        if winner is None:
            winners[ga] = node
            queue.extend(
                (node, child_index, ":".join(dependency))
                for child_index, dependency in enumerate(
                    workspace.artifacts[coordinate].dependencies
                )
            )
    conflicts = [
        {
            "group_artifact": ga,
            "winner": {"coordinate": winners[ga].coordinate, "path": list(winners[ga].path)},
            "losers": occurrences,
        }
        for ga, occurrences in losers.items()
    ]
    return Resolution(root, nodes, conflicts)


def tree_payload(resolution: Resolution) -> dict:
    """The nested tree payload, built iteratively so deep chains need no recursion."""
    payloads: dict[int, dict] = {}
    for bfs_index, node in enumerate(resolution.nodes):
        payloads[id(node)] = {
            "coordinate": node.coordinate,
            "path": list(node.path),
            "depth": len(node.path),
            "bfs_index": bfs_index,
            "status": node.status,
            "children": [],
        }
    for node in resolution.nodes:
        payloads[id(node)]["children"] = [payloads[id(child)] for child in node.children]
    return payloads[id(resolution.root)]


def bindings(workspace: Workspace, order: list[Node]) -> dict[str, list]:
    """First provider of every class in classpath order: class -> [winner, shadowed]."""
    out: dict[str, list] = {}
    for node in order:
        for name in workspace.artifacts[node.coordinate].classes:
            binding = out.get(name)
            if binding is None:
                out[name] = [node.coordinate, []]
            else:
                binding[1].append(node.coordinate)
    return out


def _package(name: str) -> str:
    return name.rpartition(".")[0]


def findings(resolution: Resolution, bound: dict[str, list]) -> list[dict]:
    paths = {node.coordinate: node.path for node in resolution.nodes if node.included}
    rows = [
        {
            "class_name": name,
            "winner": winner,
            "winner_depth": len(paths[winner]),
            "winner_path": list(paths[winner]),
            "shadowed_victims": shadowed,
        }
        for name, (winner, shadowed) in bound.items()
        if shadowed
    ]
    rows.sort(key=lambda row: (-row["winner_depth"], row["class_name"]))
    return rows


def verdicts(workspace: Workspace, order: list[Node], bound: dict[str, list]) -> list[dict]:
    """dup, sealed and modules verdicts (the project itself is a module)."""
    dup = [
        {"class_name": name, "winner": bound[name][0], "shadowed": bound[name][1]}
        for name in sorted(bound)
        if bound[name][1]
    ]
    winners_by_package: dict[str, dict[str, None]] = {}
    for name, (winner, _) in bound.items():
        winners_by_package.setdefault(_package(name), {})[winner] = None
    sealed = []
    for node in order:
        for package in sorted(workspace.artifacts[node.coordinate].sealed):
            winners = winners_by_package.get(package, {})
            if len(winners) >= 2 and node.coordinate in winners:
                sealed.append(
                    {"package": package, "sealed_by": node.coordinate, "winners": list(winners)}
                )
    providers: dict[str, list[str]] = {}
    for node in order:
        for package in {_package(name) for name in workspace.artifacts[node.coordinate].classes}:
            providers.setdefault(package, []).append(node.coordinate)
    split = [
        {"package": package, "providers": providers[package]}
        for package in sorted(providers)
        if len(providers[package]) >= 2
    ]
    return [
        {"rule": rule, "passed": not violations, "diagnostic": None, "violations": violations}
        for rule, violations in zip(RULES, (dup, sealed, split))
    ]


def compare_rows(maven: dict[str, list], gradle: dict[str, list]) -> list[dict]:
    return [
        {
            "class_name": name,
            "maven_winner": maven[name][0],
            "gradle_winner": gradle[name][0],
            "differs": maven[name][0] != gradle[name][0],
        }
        for name in sorted(maven)
        if maven[name][1]
    ]


@dataclass(frozen=True)
class Expected:
    """What one CLI invocation must produce."""

    exit_code: int
    report: dict


def _report(command: str, inputs: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs, "payload": payload}


class Oracle:
    """Expected reports for one workspace, derived lazily and kept."""

    def __init__(self, workspace: Workspace, repo: str, max_depth: int = 64) -> None:
        self.workspace = workspace
        self.base = {"repo": repo, "root": workspace.root, "max_depth": max_depth}
        self.resolution = resolve(workspace, max_depth)
        self._bindings: dict[str, dict[str, list]] = {}

    def bindings(self, ecosystem: str) -> dict[str, list]:
        if ecosystem not in self._bindings:
            order = self.resolution.classpath(ecosystem)
            self._bindings[ecosystem] = bindings(self.workspace, order)
        return self._bindings[ecosystem]

    def classpath_classes(self, ecosystem: str = "maven") -> int:
        return sum(
            len(self.workspace.artifacts[node.coordinate].classes)
            for node in self.resolution.classpath(ecosystem)
        )

    def resolve(self) -> Expected:
        payload = {"tree": tree_payload(self.resolution), "conflicts": self.resolution.conflicts}
        return Expected(0, _report("resolve", self.base, payload))

    def scan(self, ecosystem: str) -> Expected:
        inputs = self.base | {"ecosystem": ecosystem, "fail_on_shadow": False}
        rows = findings(self.resolution, self.bindings(ecosystem))
        return Expected(0, _report("scan", inputs, {"ecosystem": ecosystem, "findings": rows}))

    def check(self) -> Expected:
        inputs = self.base | {"rules": list(RULES), "allowlist": None, "root_module": True}
        order = self.resolution.classpath("maven")
        rows = verdicts(self.workspace, order, self.bindings("maven"))
        code = 0 if all(row["passed"] for row in rows) else 4
        return Expected(code, _report("check", inputs, {"verdicts": rows}))

    def compare(self) -> Expected:
        rows = compare_rows(self.bindings("maven"), self.bindings("gradle"))
        return Expected(0, _report("compare", self.base, {"classes": rows}))


def first_difference(expected, actual, where: str = "report") -> str | None:
    """Describe where two parsed JSON values first differ, or None if equal."""
    stack = [(expected, actual, where)]
    while stack:
        want, got, at = stack.pop()
        if type(want) is not type(got):
            return f"{at}: expected {type(want).__name__}, got {type(got).__name__}"
        if isinstance(want, dict):
            if want.keys() != got.keys():
                return f"{at}: keys {sorted(want)} != {sorted(got)}"
            stack.extend((want[key], got[key], f"{at}.{key}") for key in reversed(list(want)))
        elif isinstance(want, list):
            if len(want) != len(got):
                return f"{at}: length {len(want)} != {len(got)}"
            stack.extend((w, g, f"{at}[{i}]") for i, (w, g) in reversed(list(enumerate(zip(want, got)))))
        elif want != got:
            return f"{at}: expected {want!r}, got {got!r}"
    return None

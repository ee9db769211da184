"""The text views of the command reports, loaded only for ``--format text``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from shadowscan.errors import inert
from shadowscan.model import OmittedConflict, OmittedDuplicate, ResolvedNode

if TYPE_CHECKING:
    from shadowscan.analysis import ShadowFinding, WinnerComparison
    from shadowscan.mitigations import MitigationVerdict
    from shadowscan.resolver import Conflict


def _status_suffix(node: ResolvedNode) -> str:
    if isinstance(node.status, OmittedConflict):
        return f" (omitted: conflict, winner {node.status.winner})"
    if isinstance(node.status, OmittedDuplicate):
        return f" (omitted: duplicate of path {list(node.status.first_occurrence_path)})"
    return ""


def _tree_lines(root: ResolvedNode) -> list[str]:
    lines: list[str] = []
    # pre-order walk; each entry holds a node, its line and its children's prefix
    stack = [(root, str(root.coordinate), "")]
    while stack:
        node, line, prefix = stack.pop()
        lines.append(line)
        last = len(node.children) - 1
        for index in range(last, -1, -1):
            child = node.children[index]
            stack.append((
                child,
                f"{prefix}+-{child.coordinate}{_status_suffix(child)}",
                prefix + ("   " if index == last else "|  "),
            ))
    return lines


def _conflict_lines(conflicts: tuple[Conflict, ...]) -> list[str]:
    if not conflicts:
        return ["no conflicts"]
    lines = ["conflicts:"]
    for conflict in conflicts:
        losers = ", ".join(
            f"{loser.coordinate} at {list(loser.path)}" for loser in conflict.losers
        )
        lines.append(
            f"  {conflict.group_artifact}: winner {conflict.winner.coordinate} "
            f"at {list(conflict.winner.path)}; losers: {losers}"
        )
    return lines


def _finding_lines(findings: list[ShadowFinding]) -> list[str]:
    if not findings:
        return ["no class collisions"]
    lines = [f"{len(findings)} class collision(s):"]
    for finding in findings:
        lines.append(f"  {finding.class_name}")
        lines.append(
            f"    winner: {finding.winner} "
            f"(depth {finding.winner_depth}, path {list(finding.winner_path)})"
        )
        lines.append("    shadowed: " + ", ".join(finding.shadowed_victims))
    return lines


def _verdict_lines(verdict: MitigationVerdict) -> list[str]:
    # only check makes verdicts, and it has loaded mitigations already
    from shadowscan.mitigations import (
        DuplicateClassViolation,
        SealedPackageViolation,
        SplitPackageViolation,
    )

    note = f" ({verdict.diagnostic})" if verdict.diagnostic else ""
    if verdict.passed:
        return [f"{verdict.rule.value}: PASS{note}"]
    lines = [f"{verdict.rule.value}: FAIL ({len(verdict.violations)} violation(s)){note}"]
    for violation in verdict.violations:
        if isinstance(violation, DuplicateClassViolation):
            shadowed = ", ".join(violation.shadowed)
            lines.append(f"  {violation.class_name}: winner {violation.winner} shadows {shadowed}")
        elif isinstance(violation, SealedPackageViolation):
            winners = ", ".join(violation.winners)
            lines.append(
                f"  package {violation.package} sealed by {violation.sealed_by} "
                f"splits across {winners}"
            )
        elif isinstance(violation, SplitPackageViolation):
            providers = ", ".join(violation.providers)
            lines.append(f"  package {violation.package} provided by {providers}")
    return lines


def _comparison_lines(entries: tuple[WinnerComparison, ...]) -> list[str]:
    if not entries:
        return ["no duplicated classes"]
    lines = []
    for entry in entries:
        marker = " DIFFERS" if entry.differs else ""
        lines.append(
            f"{entry.class_name}: maven={entry.maven_winner} "
            f"gradle={entry.gradle_winner}{marker}"
        )
    return lines


def _classpath_lines(payload: dict[str, Any], inputs: dict[str, Any]) -> list[str]:
    lines = list(payload["entries"]) or ["(empty classpath)"]
    if payload["layout"] is not None:
        lines += [""] + list(payload["layout"].lines)
    return lines


def _hijack_lines(payload: dict[str, Any], inputs: dict[str, Any]) -> list[str]:
    heading = f"{payload['mode']} of {payload['subject']} ({inputs['ecosystem']}):"
    artifacts = [f"  {entry} (path {list(path)})" for entry, path in payload["artifacts"]]
    return [heading] + (artifacts or ["  (empty)"])


# The text view of each command's payload, given the report's inputs. The
# renderers are looked up when a view runs, so a test can replace them.
_VIEWS: dict[str, Callable[[dict[str, Any], dict[str, Any]], list[str]]] = {
    "resolve": lambda payload, inputs: (
        _tree_lines(payload["tree"]) + [""] + _conflict_lines(payload["conflicts"])
    ),
    "classpath": lambda payload, inputs: _classpath_lines(payload, inputs),
    "scan": lambda payload, inputs: _finding_lines(payload["findings"]),
    "hijack": lambda payload, inputs: _hijack_lines(payload, inputs),
    "check": lambda payload, inputs: [
        line for verdict in payload["verdicts"] for line in _verdict_lines(verdict)
    ],
    "compare": lambda payload, inputs: _comparison_lines(payload["classes"]),
}


def render(command: str, payload: dict[str, Any], inputs: dict[str, Any]) -> str:
    """The text report of one command: its view's lines, each made inert, and a newline."""
    return "\n".join(map(inert, _VIEWS[command](payload, inputs))) + "\n"

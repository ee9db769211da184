"""The text views of the command reports, loaded only for ``--format text``."""

from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

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


def _tree_lines(root: ResolvedNode) -> Iterator[str]:
    # pre-order walk; each entry holds a node, its line and its children's prefix
    stack = [(root, str(root.coordinate), "")]
    while stack:
        node, line, prefix = stack.pop()
        yield line
        last = len(node.children) - 1
        for index in range(last, -1, -1):
            child = node.children[index]
            stack.append((
                child,
                f"{prefix}+-{child.coordinate}{_status_suffix(child)}",
                prefix + ("   " if index == last else "|  "),
            ))


def _conflict_lines(conflicts: tuple[Conflict, ...]) -> Iterator[str]:
    if not conflicts:
        yield "no conflicts"
        return
    yield "conflicts:"
    for conflict in conflicts:
        losers = ", ".join(
            f"{loser.coordinate} at {list(loser.path)}" for loser in conflict.losers
        )
        yield (
            f"  {conflict.group_artifact}: winner {conflict.winner.coordinate} "
            f"at {list(conflict.winner.path)}; losers: {losers}"
        )


def _finding_lines(findings: list[ShadowFinding]) -> Iterator[str]:
    if not findings:
        yield "no class collisions"
        return
    yield f"{len(findings)} class collision(s):"
    for finding in findings:
        yield f"  {finding.class_name}"
        yield (
            f"    winner: {finding.winner} "
            f"(depth {finding.winner_depth}, path {list(finding.winner_path)})"
        )
        yield "    shadowed: " + ", ".join(finding.shadowed_victims)


def _verdict_lines(verdict: MitigationVerdict) -> Iterator[str]:
    # only check makes verdicts, and it has loaded mitigations already
    from shadowscan.mitigations import (
        DuplicateClassViolation,
        SealedPackageViolation,
        SplitPackageViolation,
    )

    note = f" ({verdict.diagnostic})" if verdict.diagnostic else ""
    if verdict.passed:
        yield f"{verdict.rule.value}: PASS{note}"
        return
    yield f"{verdict.rule.value}: FAIL ({len(verdict.violations)} violation(s)){note}"
    for violation in verdict.violations:
        if isinstance(violation, DuplicateClassViolation):
            shadowed = ", ".join(violation.shadowed)
            yield f"  {violation.class_name}: winner {violation.winner} shadows {shadowed}"
        elif isinstance(violation, SealedPackageViolation):
            winners = ", ".join(violation.winners)
            yield (
                f"  package {violation.package} sealed by {violation.sealed_by} "
                f"splits across {winners}"
            )
        elif isinstance(violation, SplitPackageViolation):
            providers = ", ".join(violation.providers)
            yield f"  package {violation.package} provided by {providers}"


def _comparison_lines(entries: tuple[WinnerComparison, ...]) -> Iterator[str]:
    if not entries:
        yield "no duplicated classes"
        return
    for entry in entries:
        marker = " DIFFERS" if entry.differs else ""
        yield (
            f"{entry.class_name}: maven={entry.maven_winner} "
            f"gradle={entry.gradle_winner}{marker}"
        )


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
# renderers are looked up when a view runs, so a test can replace them; the
# large ones make their lines as they are read.
_VIEWS: dict[str, Callable[[dict[str, Any], dict[str, Any]], Iterable[str]]] = {
    "resolve": lambda payload, inputs: chain(
        _tree_lines(payload["tree"]), [""], _conflict_lines(payload["conflicts"])
    ),
    "classpath": lambda payload, inputs: _classpath_lines(payload, inputs),
    "scan": lambda payload, inputs: _finding_lines(payload["findings"]),
    "hijack": lambda payload, inputs: _hijack_lines(payload, inputs),
    "check": lambda payload, inputs: chain.from_iterable(map(_verdict_lines, payload["verdicts"])),
    "compare": lambda payload, inputs: _comparison_lines(payload["classes"]),
}


def render(command: str, payload: dict[str, Any], inputs: dict[str, Any]) -> Iterator[str]:
    """The text report of one command as pieces: each line of its view, made inert, and a newline.

    The pieces are made as they are read, so that stdout takes them in
    batches and the whole report is never held.
    """
    return chain.from_iterable(zip(map(inert, _VIEWS[command](payload, inputs)), repeat("\n")))

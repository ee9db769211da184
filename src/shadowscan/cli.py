"""Command-line interface: resolve, classpath, scan, hijack, check, compare."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields, is_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, NoReturn, Sequence

from shadowscan.analysis import (
    EcosystemComparison,
    ShadowFinding,
    WinnerComparison,
    compare_ecosystems,
    detect_shadowing,
    effective_classes,
    hijack_reach,
    hijack_surface,
    included_nodes,
)
from shadowscan.errors import (
    DepthLimitExceeded,
    PomNotFound,
    ReportTooDeep,
    ShadowscanError,
    UnknownArtifact,
    UnresolvableDependency,
)
from shadowscan.inventory import inventory_all, load_inventory
from shadowscan.mitigations import (
    DuplicateClassViolation,
    MitigationRule,
    MitigationVerdict,
    SealedPackageViolation,
    SplitPackageViolation,
    check_ban_duplicate_classes,
    check_modules,
    check_sealed,
    load_allowlist,
)
from shadowscan.model import (
    Coordinate,
    GroupArtifact,
    Included,
    OmittedConflict,
    OmittedDuplicate,
    ResolvedNode,
)
from shadowscan.ordering import Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import Repository, fetch_pom, load_repository
from shadowscan.resolver import DEFAULT_MAX_DEPTH, Occurrence, ResolutionReport, resolve

SCHEMA_VERSION = 1
REPO_ENV_VAR = "SHADOWSCAN_REPO"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RESOLUTION_ERROR = 2
EXIT_SHADOWS_FOUND = 3
EXIT_MITIGATION_FAILED = 4

_RULE_TOKENS = {
    "dup": MitigationRule.BAN_DUPLICATE_CLASSES,
    "sealed": MitigationRule.SEALED_JARS,
    "modules": MitigationRule.JAVA_MODULES,
}


# JSON readers commonly refuse deeper documents (Jackson's default read constraints
# allow 1000 levels; Python's json stops at its recursion limit, 1000 by default).
# A resolve report nests two levels per tree level; text output has no limit.
_MAX_NESTING = 1000

# Report members that are not dataclass fields: name -> value of the object. All
# other keys are field names, so renaming a field of a reported dataclass changes
# schema v1; tests/test_equivalence.py and tests/test_golden.py pin the keys.
_DERIVED_MEMBERS: dict[type, dict[str, Callable[[Any], Any]]] = {
    Included: {"kind": lambda status: "included"},
    OmittedConflict: {"kind": lambda status: "omitted-conflict"},
    OmittedDuplicate: {"kind": lambda status: "omitted-duplicate"},
    WinnerComparison: {"differs": attrgetter("differs")},
}


@cache
def _members(cls: type) -> list[tuple[str, Callable[[Any], Any]]]:
    """Quoted member names and getters of a dataclass's JSON object, in key order."""
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    getters = {field.name: attrgetter(field.name) for field in fields(cls)}
    getters.update(_DERIVED_MEMBERS.get(cls, {}))
    return [(encode_basestring_ascii(name) + ": ", getters[name]) for name in sorted(getters)]


def _json_text(document: Any) -> str:
    """``json.dumps(document, sort_keys=True, indent=2)`` and a newline, without recursion.

    A dataclass is written as the object of its fields plus its
    ``_DERIVED_MEMBERS``; a ``Coordinate`` or ``GroupArtifact`` as its string.
    Raises ``ReportTooDeep`` rather than nest deeper than ``_MAX_NESTING``.
    """
    parts: list[str] = []
    emit = parts.append
    breaks = ["\n"]  # breaks[level]: a line break indented to that nesting level
    commas = [",\n"]
    # open containers: their remaining (index, (quoted key or "", value)), the
    # nesting level of those members and the closing bracket
    stack = [(enumerate([("", document)]), 0, "")]
    while stack:
        members, level, closing = stack[-1]
        for index, (key, value) in members:
            if index:
                emit(commas[level])
            if key:
                emit(key)
            cls = value.__class__
            if isinstance(value, str):
                emit(encode_basestring_ascii(value))
            elif cls is Coordinate or cls is GroupArtifact:
                emit(encode_basestring_ascii(str(value)))
            elif cls is int:
                emit(int.__repr__(value))
            elif cls is bool:
                emit("true" if value else "false")
            elif value is None:
                emit("null")
            else:
                if cls is dict:
                    opening, close = "{", "}"
                    items = [
                        (encode_basestring_ascii(name) + ": ", item)
                        for name, item in sorted(value.items())
                    ]
                elif cls is list or cls is tuple:
                    opening, close = "[", "]"
                    items = [("", item) for item in value]
                else:
                    opening, close = "{", "}"
                    items = [(name, get(value)) for name, get in _members(cls)]
                if not items:
                    emit(opening + close)
                    continue
                if level + 1 == len(breaks):
                    if level == _MAX_NESTING:
                        raise ReportTooDeep(
                            f"the JSON report would nest deeper than {_MAX_NESTING} levels, "
                            "the most JSON readers accept; use --format text"
                        )
                    breaks.append(breaks[-1] + "  ")
                    commas.append("," + breaks[-1])
                emit(opening)
                emit(breaks[level + 1])
                stack.append((enumerate(items), level + 1, close))
                break
        else:
            stack.pop()
            if stack:
                emit(breaks[level - 1])
                emit(closing)
    emit("\n")
    return "".join(parts)


def _json_report(command: str, inputs: dict[str, Any], payload: dict[str, Any]) -> str:
    """The versioned JSON document of one command invocation."""
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "payload": payload,
    })


def _text_report(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text rendering

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


def _conflict_lines(resolution: ResolutionReport) -> list[str]:
    if not resolution.conflicts:
        return ["no conflicts"]
    lines = ["conflicts:"]
    for conflict in resolution.conflicts:
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
        lines.append(
            "    shadowed: " + ", ".join(str(victim) for victim in finding.shadowed_victims)
        )
    return lines


def _verdict_lines(verdict: MitigationVerdict) -> list[str]:
    note = f" ({verdict.diagnostic})" if verdict.diagnostic else ""
    if verdict.passed:
        return [f"{verdict.rule.value}: PASS{note}"]
    lines = [f"{verdict.rule.value}: FAIL ({len(verdict.violations)} violation(s)){note}"]
    for violation in verdict.violations:
        if isinstance(violation, DuplicateClassViolation):
            shadowed = ", ".join(str(coordinate) for coordinate in violation.shadowed)
            lines.append(f"  {violation.class_name}: winner {violation.winner} shadows {shadowed}")
        elif isinstance(violation, SealedPackageViolation):
            winners = ", ".join(str(coordinate) for coordinate in violation.winners)
            lines.append(
                f"  package {violation.package} sealed by {violation.sealed_by} "
                f"splits across {winners}"
            )
        elif isinstance(violation, SplitPackageViolation):
            providers = ", ".join(str(coordinate) for coordinate in violation.providers)
            lines.append(f"  package {violation.package} provided by {providers}")
    return lines


def _comparison_lines(comparison: EcosystemComparison) -> list[str]:
    if not comparison.entries:
        return ["no duplicated classes"]
    lines = []
    for entry in comparison.entries:
        marker = " DIFFERS" if entry.differs else ""
        lines.append(
            f"{entry.class_name}: maven={entry.maven_winner} "
            f"gradle={entry.gradle_winner}{marker}"
        )
    return lines


# ---------------------------------------------------------------------------
# commands

def _load_resolution(args: argparse.Namespace) -> tuple[Repository, ResolutionReport]:
    repo = load_repository(args.repo)
    root_document = fetch_pom(repo, Coordinate.parse(args.root))
    return repo, resolve(repo, root_document, max_depth=args.max_depth)


def _inputs(args: argparse.Namespace) -> dict[str, Any]:
    """The report's echo of the invocation: every option of the command but --format."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "handler", "format")}


# Each command returns its exit code and its stdout in the requested format;
# the other format is never built.

def cmd_resolve(args: argparse.Namespace) -> tuple[int, str]:
    _, resolution = _load_resolution(args)
    if args.format == "json":
        payload = {"tree": resolution.tree.root, "conflicts": resolution.conflicts}
        return EXIT_OK, _json_report("resolve", _inputs(args), payload)
    lines = _tree_lines(resolution.tree.root) + [""] + _conflict_lines(resolution)
    return EXIT_OK, _text_report(lines)


def cmd_classpath(args: argparse.Namespace) -> tuple[int, str]:
    _, resolution = _load_resolution(args)
    classpath = build_classpath(resolution.tree, Ecosystem(args.ecosystem))
    layout = None
    if args.layout != "none":
        layout = emit_layout(resolution.tree, LayoutMode(args.layout))
    if args.format == "json":
        payload = {
            "ecosystem": classpath.ecosystem,
            "root_precedes": classpath.root_precedes,
            "entries": classpath.entries,
            "layout": layout,
        }
        return EXIT_OK, _json_report("classpath", _inputs(args), payload)
    lines = [str(entry) for entry in classpath.entries] or ["(empty classpath)"]
    if layout is not None:
        lines += [""] + list(layout.lines)
    return EXIT_OK, _text_report(lines)


def cmd_scan(args: argparse.Namespace) -> tuple[int, str]:
    repo, resolution = _load_resolution(args)
    classpath = build_classpath(resolution.tree, Ecosystem(args.ecosystem))
    inventories = inventory_all(repo, classpath)
    findings = detect_shadowing(effective_classes(inventories), resolution.tree)
    code = EXIT_SHADOWS_FOUND if findings and args.fail_on_shadow else EXIT_OK
    if args.format == "json":
        payload = {"ecosystem": args.ecosystem, "findings": findings}
        return code, _json_report("scan", _inputs(args), payload)
    return code, _text_report(_finding_lines(findings))


def cmd_hijack(args: argparse.Namespace) -> tuple[int, str]:
    _, resolution = _load_resolution(args)
    ecosystem = Ecosystem(args.ecosystem)
    classpath = build_classpath(resolution.tree, ecosystem)
    nodes = included_nodes(resolution.tree)
    if args.attacker:
        subject = Coordinate.parse(args.attacker)
        mode = "reach"
        members = hijack_reach(resolution.tree, ecosystem, subject)
    else:
        subject = Coordinate.parse(args.target)
        mode = "surface"
        members = hijack_surface(resolution.tree, ecosystem, subject)
    ordered = [entry for entry in classpath.entries if entry in members]
    if args.format == "json":
        artifacts = [Occurrence(entry, nodes[entry].path) for entry in ordered]
        payload = {"mode": mode, "subject": subject, "artifacts": artifacts}
        return EXIT_OK, _json_report("hijack", _inputs(args), payload)
    lines = [f"{mode} of {subject} ({ecosystem.value}):"]
    lines += [f"  {entry} (path {list(nodes[entry].path)})" for entry in ordered] or ["  (empty)"]
    return EXIT_OK, _text_report(lines)


def cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    repo, resolution = _load_resolution(args)
    classpath = build_classpath(resolution.tree, Ecosystem.MAVEN)
    inventories = inventory_all(repo, classpath)
    class_map = effective_classes(inventories)
    allowlist = load_allowlist(args.allowlist) if args.allowlist else ()
    verdicts: list[MitigationVerdict] = []
    for rule in args.rules:
        if rule is MitigationRule.BAN_DUPLICATE_CLASSES:
            verdicts.append(check_ban_duplicate_classes(class_map, allowlist))
        elif rule is MitigationRule.SEALED_JARS:
            verdicts.append(check_sealed(inventories, class_map))
        else:
            verdicts.append(check_modules(inventories, args.root_module))
    code = EXIT_OK if all(verdict.passed for verdict in verdicts) else EXIT_MITIGATION_FAILED
    if args.format == "json":
        payload = {"verdicts": verdicts}
        return code, _json_report("check", _inputs(args), payload)
    return code, _text_report([line for verdict in verdicts for line in _verdict_lines(verdict)])


def cmd_compare(args: argparse.Namespace) -> tuple[int, str]:
    repo, resolution = _load_resolution(args)
    classpath = build_classpath(resolution.tree, Ecosystem.MAVEN)
    inventories_by_coord = {
        coordinate: load_inventory(repo, coordinate) for coordinate in classpath.entries
    }
    comparison = compare_ecosystems(resolution.tree, inventories_by_coord)
    if args.format == "json":
        payload = {"classes": comparison.entries}
        return EXIT_OK, _json_report("compare", _inputs(args), payload)
    return EXIT_OK, _text_report(_comparison_lines(comparison))


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: keep exit code 1, not argparse's 2
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _rules_argument(value: str) -> tuple[MitigationRule, ...]:
    rules: list[MitigationRule] = []
    for token in value.split(","):
        token = token.strip()
        if token not in _RULE_TOKENS:
            choices = ", ".join(sorted(_RULE_TOKENS))
            raise argparse.ArgumentTypeError(f"unknown rule {token!r} (choose from {choices})")
        rule = _RULE_TOKENS[token]
        if rule not in rules:
            rules.append(rule)
    return tuple(rules)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--repo",
        default=os.environ.get(REPO_ENV_VAR),
        help=f"repository root directory (default: ${REPO_ENV_VAR})",
    )
    common.add_argument("--root", required=True, help="root project coordinate group:artifact:version")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    parser = _Parser(prog="shadowscan", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("resolve", parents=[common], help="print the resolved tree")
    sub.set_defaults(handler=cmd_resolve)

    sub = subparsers.add_parser("classpath", parents=[common], help="print the ordered classpath")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.add_argument("--layout", choices=("flat", "nested", "none"), default="none")
    sub.set_defaults(handler=cmd_classpath)

    sub = subparsers.add_parser("scan", parents=[common], help="report shadowed classes")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.add_argument("--fail-on-shadow", action="store_true")
    sub.set_defaults(handler=cmd_scan)

    sub = subparsers.add_parser("hijack", parents=[common], help="hijack reach or surface of an artifact")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--attacker", help="coordinate whose reach to compute")
    group.add_argument("--target", help="coordinate whose surface to compute")
    sub.add_argument("--ecosystem", choices=("maven", "gradle"), default="maven")
    sub.set_defaults(handler=cmd_hijack)

    sub = subparsers.add_parser("check", parents=[common], help="run mitigation checks")
    sub.add_argument("--rules", type=_rules_argument, default=tuple(_RULE_TOKENS.values()))
    sub.add_argument("--allowlist", help="file of allowed collision patterns")
    sub.add_argument("--root-module", action="store_true", dest="root_module")
    sub.set_defaults(handler=cmd_check)

    sub = subparsers.add_parser("compare", parents=[common], help="diff Maven vs Gradle winners")
    sub.set_defaults(handler=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    if not args.repo:
        print(f"error: no repository given (--repo or ${REPO_ENV_VAR})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        code, output = args.handler(args)
    except (PomNotFound, UnresolvableDependency, UnknownArtifact, DepthLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION_ERROR
    except ShadowscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(output)
    return code

"""Command-line interface: resolve, classpath, scan, hijack, check, compare."""

from __future__ import annotations

import argparse
import codecs
import errno
import gc
import os
import sys
from _json import encode_basestring_ascii  # json.encoder's accelerator, without json's decoder
from contextlib import suppress
from functools import cache, cached_property
from importlib import import_module
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn, Sequence

from shadowscan.errors import (
    DepthLimitExceeded,
    PomNotFound,
    ReportTooDeep,
    ShadowscanError,
    UnknownArtifact,
    UnresolvableDependency,
    inert,
)
from shadowscan.model import Coordinate, MitigationRule
from shadowscan.ordering import Classpath, Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import Repository, fetch_pom, load_repository
from shadowscan.resolver import DEFAULT_MAX_DEPTH, Occurrence, ResolutionReport, resolve

if TYPE_CHECKING:
    from shadowscan.analysis import EffectiveClassMap
    from shadowscan.inventory import ClassInventory
    from shadowscan.mitigations import MitigationVerdict


def _on_first_call(module: str, name: str) -> Callable[..., Any]:
    """A stand-in for ``shadowscan.<module>.<name>`` that imports the module when first called.

    A command thus loads only the stages it runs. The stand-ins stay bound
    here, so a tracer that rebinds this module's names sees every call.
    """
    def forward(*args: Any, **kwargs: Any) -> Any:
        return getattr(import_module("shadowscan." + module), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


inventory_all = _on_first_call("inventory", "inventory_all")
# unused here but bound: shadowbench/spans.py wraps cli.load_inventory
load_inventory = _on_first_call("inventory", "load_inventory")
compare_ecosystems = _on_first_call("analysis", "compare_ecosystems")
detect_shadowing = _on_first_call("analysis", "detect_shadowing")
effective_classes = _on_first_call("analysis", "effective_classes")
hijack_reach = _on_first_call("analysis", "hijack_reach")
hijack_surface = _on_first_call("analysis", "hijack_surface")
included_nodes = _on_first_call("analysis", "included_nodes")
check_ban_duplicate_classes = _on_first_call("mitigations", "check_ban_duplicate_classes")
check_modules = _on_first_call("mitigations", "check_modules")
check_sealed = _on_first_call("mitigations", "check_sealed")
load_allowlist = _on_first_call("mitigations", "load_allowlist")
# the JSON writer's row pass: only reports that hold a record tree or conflicts compile it
_record_rows = _on_first_call("rows", "record_rows")

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
_BATCH = 2048  # report pieces joined, encoded and written to stdout at a time


@cache
def _members(cls: type) -> list[tuple[str, Callable[[Any], Any]]]:
    """Quoted names and getters of a record's ``_fields`` and ``_derived`` properties, sorted.

    Renaming one changes schema v1; tests/test_equivalence.py and tests/test_golden.py pin them.
    """
    names = getattr(cls, "_fields", None)
    if names is None:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    names = sorted((*names, *getattr(cls, "_derived", ())))
    return [(encode_basestring_ascii(name) + ": ", attrgetter(name)) for name in names]


class _ScalarTable(dict):
    """Type -> encoder of one value's JSON text; None for a type that is no scalar.

    A new type is mapped once: a str subclass (a Coordinate, a str enum) to str's encoder."""

    def __missing__(self, kind: type) -> Callable[[Any], str] | None:
        encode = self[kind] = self[str] if issubclass(kind, str) else None
        return encode


_SCALARS = _ScalarTable({
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
})


class _Lines(dict):
    """Nesting level -> ``start`` and a line break indented to that level, made once per level."""

    def __init__(self, start: str) -> None:
        self.start = start

    def __missing__(self, level: int) -> str:
        text = self[level] = self.start + "\n" + "  " * level
        return text


_BREAKS, _COMMAS = _Lines(""), _Lines(",")
_ARRAYS = {list, tuple}


def _encoder(kinds: set[type]) -> Callable[[Any], str] | None:
    """The encoder of values whose types are ``kinds``; None unless one scalar type.

    Without values there are no kinds, and ``str``'s encoder, never called, stands in."""
    if not kinds:
        return _SCALARS[str]
    return _SCALARS[next(iter(kinds))] if len(kinds) == 1 else None


def _column(values: list[Any]) -> tuple[set[type], Callable[[Any], str] | None]:
    """The types of one member's ``values`` over all records, and their encoder.

    If every value is an array, the encoder is that of the items, whose
    type is taken over all of them: ``(1,) == (True,)``, yet one is written
    ``[1]`` and the other ``[true]``. None unless one scalar type.
    """
    kinds = set(map(type, values))
    if kinds <= _ARRAYS:
        return kinds, _encoder(set(map(type, chain.from_iterable(values))))
    return kinds, _encoder(kinds)


def _record_array_text(records: list[Any] | tuple[Any, ...], level: int, parts: list[str]) -> bool:
    """Append to ``parts`` the JSON text of an array of records of one class, column by column.

    ``level`` is the array's own nesting level. Each member is read over all
    records at once and encoded by ``_SCALARS``, an array member once per
    distinct tuple, and its texts are appended between constant member texts.
    False, with nothing appended, for ``_json_pieces`` to write the array
    value by value, unless each member holds scalars of one type, or arrays of
    scalars of one type, in every record, nested within ``_MAX_NESTING``.
    """
    cls = records[0].__class__
    if _SCALARS[cls] is not None or level + 3 > _MAX_NESTING:
        return False
    try:
        members = _members(cls)
    except TypeError:  # not a record
        return False
    # the first record's member kinds send arrays of records with a record
    # member (conflicts, whose winner is one) to the row writer before any
    # column is read
    for _, get in members:
        kind = get(records[0]).__class__
        if kind is not list and kind is not tuple and _SCALARS[kind] is None:
            return _record_rows(records, level + 2, parts)
    if not members or len(set(map(type, records))) > 1:
        return False
    opening, separator, closing = "[" + _BREAKS[level + 3], _COMMAS[level + 3], _BREAKS[level + 2] + "]"
    columns = []
    for _, get in members:
        values = list(map(get, records))
        kinds, encode = _column(values)
        if encode is None:
            return False
        if kinds <= _ARRAYS:
            def array_text(value: Sequence[Any]) -> str:
                return opening + separator.join(map(encode, value)) + closing if value else "[]"

            if list in kinds:  # unhashable: one text per value
                texts = list(map(array_text, values))
            else:  # one text per distinct array, of one item type
                text_of = {value: array_text(value) for value in set(values)}
                texts = list(map(text_of.__getitem__, values))
        else:
            texts = list(map(encode, values))
        columns.append(texts)
    row, member = _BREAKS[level + 1], _BREAKS[level + 2]
    opens = "{" + member + members[0][0]  # a record up to its first member's value
    # the text after each member's value: after the last one, the next record opens
    after = [*("," + member + key for key, _ in members[1:]), row + "}," + row + opens]
    parts.append("[" + row + opens)
    parts += chain.from_iterable(zip(*chain.from_iterable(zip(columns, map(repeat, after)))))
    parts[-1] = row + "}" + _BREAKS[level] + "]"
    return True


def _json_pieces(document: Any) -> list[str]:
    """``json.dumps(document, sort_keys=True, indent=2)`` and a newline, as pieces, without recursion.

    A record (a NamedTuple or another class with ``_fields``) is written as
    the object of its ``_fields`` and ``_derived`` members, never as an
    array; a ``str`` subclass such as a ``Coordinate`` as its string. An
    array of records of one class is written column by column by
    ``_record_array_text``, and a record tree (a record with one member
    that holds records of its own class) and an array of records with a
    record member by ``_record_rows``, to the same text, where they can.
    Raises ``ReportTooDeep`` rather than nest deeper than ``_MAX_NESTING``.
    """
    parts: list[str] = []
    emit = parts.append
    breaks, commas = _BREAKS, _COMMAS
    trees = True  # until a tree is refused: its subtrees would be tried and refused again
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
            encode = _SCALARS[cls]
            if encode is not None:
                emit(encode(value))
            else:
                if cls is dict:
                    opening, close = "{", "}"
                    items = [
                        (encode_basestring_ascii(name) + ": ", item)
                        for name, item in sorted(value.items())
                    ]
                elif cls is list or cls is tuple:
                    # most arrays hold scalars (paths above all): skip those without a call
                    if (len(value) > 1 and _SCALARS[value[0].__class__] is None
                            and _record_array_text(value, level, parts)):
                        continue
                    opening, close = "[", "]"
                    items = [("", item) for item in value]
                else:
                    opening, close = "{", "}"
                    items = [(name, get(value)) for name, get in _members(cls)]
                    if trees:
                        own = [at for at, (_, item) in enumerate(items)
                               if item.__class__ in _ARRAYS and item and item[0].__class__ is cls]
                        if len(own) == 1:
                            if _record_rows(value, level + 1, parts, own[0]):
                                continue
                            trees = False
                if not items:
                    emit(opening + close)
                    continue
                if level == _MAX_NESTING:
                    raise ReportTooDeep(
                        f"the JSON report would nest deeper than {_MAX_NESTING} levels, "
                        "the most JSON readers accept; use --format text"
                    )
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
    return parts


def _json_text(document: Any) -> str:
    return "".join(_json_pieces(document))


def _json_report_pieces(command: str, inputs: dict[str, Any], payload: dict[str, Any]) -> list[str]:
    """The pieces of the versioned JSON document of one command invocation."""
    return _json_pieces({"schema_version": SCHEMA_VERSION, "command": command,
                         "inputs": inputs, "payload": payload})


def _json_report(command: str, inputs: dict[str, Any], payload: dict[str, Any]) -> str:
    return "".join(_json_report_pieces(command, inputs, payload))


# ---------------------------------------------------------------------------
# commands

class Run:
    """One invocation's stage chain: each stage is computed once, on first use.

    The stages call this module's names, so a tracer that rebinds them here sees every call.
    """

    def __init__(self, repo: os.PathLike[str] | str, root: str,
                 max_depth: int = DEFAULT_MAX_DEPTH, ecosystem: Ecosystem = Ecosystem.MAVEN) -> None:
        self.path, self.root, self.max_depth, self.ecosystem = repo, root, max_depth, ecosystem

    @cached_property
    def repo(self) -> Repository:
        return load_repository(self.path)

    @cached_property
    def resolution(self) -> ResolutionReport:
        return resolve(self.repo, fetch_pom(self.repo, Coordinate(self.root)), max_depth=self.max_depth)

    @cached_property
    def classpath(self) -> Classpath:
        return build_classpath(self.resolution.tree, self.ecosystem)

    @cached_property
    def inventories(self) -> list[ClassInventory]:
        return inventory_all(self.repo, self.classpath)

    @cached_property
    def class_map(self) -> EffectiveClassMap:
        return effective_classes(self.inventories)


def _inputs(args: argparse.Namespace) -> dict[str, Any]:
    """The report's echo of the invocation: every option of the command but --format."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "handler", "format")}


# Each command reads its stages from the run and returns its exit code and its
# payload; main renders the payload in the requested format only.

def cmd_resolve(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    return EXIT_OK, {"tree": run.resolution.tree.root, "conflicts": run.resolution.conflicts}


def cmd_classpath(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    entries = run.classpath.entries
    layout = None if args.layout == "none" else emit_layout(run.resolution.tree, LayoutMode(args.layout))
    return EXIT_OK, {"ecosystem": args.ecosystem, "root_precedes": True,
                     "entries": entries, "layout": layout}


def cmd_scan(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    findings = detect_shadowing(run.class_map, run.resolution.tree)
    code = EXIT_SHADOWS_FOUND if findings and args.fail_on_shadow else EXIT_OK
    return code, {"ecosystem": args.ecosystem, "findings": findings}


def cmd_hijack(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    tree, classpath = run.resolution.tree, run.classpath
    nodes = included_nodes(tree)
    if args.attacker is not None:
        mode, subject = "reach", Coordinate(args.attacker)
        members = hijack_reach(tree, classpath, subject)
    else:
        mode, subject = "surface", Coordinate(args.target)
        members = hijack_surface(tree, classpath, subject)
    artifacts = [Occurrence(entry, nodes[entry].path) for entry in members]
    return EXIT_OK, {"mode": mode, "subject": subject, "artifacts": artifacts}


def cmd_check(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    # the class map is read before the allowlist: an artifact's error comes first
    class_map = run.class_map
    allowlist = load_allowlist(args.allowlist) if args.allowlist else ()
    verdicts: list[MitigationVerdict] = []
    for rule in args.rules:
        if rule is MitigationRule.BAN_DUPLICATE_CLASSES:
            verdicts.append(check_ban_duplicate_classes(class_map, allowlist))
        elif rule is MitigationRule.SEALED_JARS:
            verdicts.append(check_sealed(run.inventories, class_map))
        else:
            verdicts.append(check_modules(run.inventories, args.root_module))
    code = EXIT_OK if all(verdict.passed for verdict in verdicts) else EXIT_MITIGATION_FAILED
    return code, {"verdicts": verdicts}


def cmd_compare(run: Run, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    return EXIT_OK, {"classes": compare_ecosystems(run.resolution.tree, run.inventories).entries}


# ---------------------------------------------------------------------------
# argument parsing

def _print_error(message: str) -> None:
    """Write ``error: <message>`` to stderr; nothing if stderr is closed or fails."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(f"error: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: keep exit code 1, not argparse's 2
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        _print_error(inert(message))
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


def _depth_argument(value: str) -> int:
    try:
        depth = int(value)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return depth


def _allowlist_argument(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--repo", default=os.environ.get(REPO_ENV_VAR),
                        help=f"repository root directory (default: ${REPO_ENV_VAR})")
    common.add_argument("--root", required=True, help="root project coordinate group:artifact:version")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-depth", type=_depth_argument, default=DEFAULT_MAX_DEPTH)

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
    sub.add_argument("--allowlist", type=_allowlist_argument, help="file of allowed collision patterns")
    sub.add_argument("--root-module", action="store_true", dest="root_module")
    sub.set_defaults(handler=cmd_check)

    sub = subparsers.add_parser("compare", parents=[common], help="diff Maven vs Gradle winners")
    sub.set_defaults(handler=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.repo:
        _print_error(f"no repository given (--repo or ${REPO_ENV_VAR})")
        return EXIT_INPUT_ERROR
    # check and compare have no --ecosystem: they read the Maven classpath
    run = Run(args.repo, args.root, args.max_depth, Ecosystem(getattr(args, "ecosystem", "maven")))
    try:
        code, payload = args.handler(run, args)
        inputs = _inputs(args)
        if args.format == "json":
            pieces = _json_report_pieces(args.command, inputs, payload)
        else:
            from shadowscan import text

            pieces = text.render(args.command, payload, inputs)
    except (PomNotFound, UnresolvableDependency, UnknownArtifact, DepthLimitExceeded) as exc:
        _print_error(inert(str(exc)))
        return EXIT_RESOLUTION_ERROR
    except ShadowscanError as exc:
        _print_error(inert(str(exc)))
        return EXIT_INPUT_ERROR
    try:
        _write_stdout(pieces)
    except OSError as exc:  # a full disk, a closed pipe, a closed stdout
        _print_error(f"cannot write the report: {inert(str(exc))}")
        return EXIT_INPUT_ERROR
    return code


def run() -> NoReturn:
    """The command-line entry point: ``main`` on ``sys.argv``, then end the process.

    The cyclic garbage collector is off for the whole run: a command makes
    few reference cycles and the process ends right after its report, so
    collecting them would only cost time. Once the report is written and
    the open streams are flushed, the process ends with ``os._exit``, which
    skips the interpreter's teardown of every object that a run made.
    argparse's ``SystemExit`` and an uncaught exception still take the
    normal exit path.
    """
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # a stream closed before start-up is None
            with suppress(OSError):
                stream.flush()
    os._exit(code)


def _write_stdout(pieces: Iterable[str]) -> None:
    """Write all of ``pieces``, in order, to stdout, or raise ``OSError``.

    ``_BATCH`` pieces at a time are joined and encoded by one incremental
    encoder (one BOM for UTF-16; a character the encoding lacks as its
    backslash escape) and go to stdout's descriptor until no byte is left,
    so no byte stays buffered and a short write under ``python -u`` is not
    lost. A stream with no descriptor, such as ``io.StringIO``, takes the
    joined pieces through one ``write``. A closed stdout, which Python sets
    to None, raises ``EBADF``.
    """
    stream = sys.stdout
    if stream is None:
        raise OSError(errno.EBADF, "stdout is closed")
    stream.flush()
    try:
        fileno = stream.fileno()
    except OSError:  # io.UnsupportedOperation: no descriptor behind the stream
        stream.write("".join(pieces))
        return
    encode = codecs.getincrementalencoder(stream.encoding)("backslashreplace").encode
    pieces = iter(pieces)
    while True:
        batch = list(islice(pieces, _BATCH))
        data = memoryview(encode("".join(batch), len(batch) < _BATCH))
        while data:
            data = data[os.write(fileno, data):]
        if len(batch) < _BATCH:
            return

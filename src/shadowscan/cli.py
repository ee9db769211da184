"""Command-line interface: resolve, classpath, scan, hijack, check, compare."""

from __future__ import annotations

import codecs
import errno
import gc
import os
import sys
from contextlib import suppress
from functools import cached_property
from importlib import import_module
from itertools import count, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn, Sequence

from shadowscan.errors import (
    DepthLimitExceeded,
    PomNotFound,
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
    from argparse import ArgumentParser

    from shadowscan.inventory import ClassInventory, EffectiveClassMap
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
effective_classes = _on_first_call("inventory", "effective_classes")
compare_ecosystems = _on_first_call("analysis", "compare_ecosystems")
detect_shadowing = _on_first_call("analysis", "detect_shadowing")
hijack_reach = _on_first_call("analysis", "hijack_reach")
hijack_surface = _on_first_call("analysis", "hijack_surface")
included_nodes = _on_first_call("analysis", "included_nodes")
check_ban_duplicate_classes = _on_first_call("mitigations", "check_ban_duplicate_classes")
check_modules = _on_first_call("mitigations", "check_modules")
check_sealed = _on_first_call("mitigations", "check_sealed")
load_allowlist = _on_first_call("mitigations", "load_allowlist")

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

_BATCH = 2048  # report pieces joined, encoded and written to stdout at a time


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


def _inputs(args: SimpleNamespace) -> dict[str, Any]:
    """The report's echo of the invocation: every option of the command but --format."""
    return {name: value for name, value in vars(args).items()
            if name not in ("command", "handler", "format")}


# Each command reads its stages from the run and returns its exit code and its
# payload; main renders the payload in the requested format only.

def cmd_resolve(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
    return EXIT_OK, {"tree": run.resolution.tree.root, "conflicts": run.resolution.conflicts}


def cmd_classpath(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
    entries = run.classpath.entries
    layout = None if args.layout == "none" else emit_layout(run.resolution.tree, LayoutMode(args.layout))
    return EXIT_OK, {"ecosystem": args.ecosystem, "root_precedes": True,
                     "entries": entries, "layout": layout}


def cmd_scan(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
    findings = detect_shadowing(run.class_map, run.resolution.tree)
    code = EXIT_SHADOWS_FOUND if findings and args.fail_on_shadow else EXIT_OK
    return code, {"ecosystem": args.ecosystem, "findings": findings}


def cmd_hijack(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
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


def cmd_check(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
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


def cmd_compare(run: Run, args: SimpleNamespace) -> tuple[int, dict[str, Any]]:
    return EXIT_OK, {"classes": compare_ecosystems(run.resolution.tree, run.inventories).entries}


# ---------------------------------------------------------------------------
# argument parsing

def _print_error(message: str) -> None:
    """Write ``error: <message>`` to stderr; nothing if stderr is closed or fails."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(f"error: {message}", file=sys.stderr)


def _refuse(message: str) -> NoReturn:
    """Refuse an option's value with argparse's error: argparse, not the plain reader, reports it."""
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(message)


def _rules_argument(value: str) -> tuple[MitigationRule, ...]:
    rules: list[MitigationRule] = []
    for token in value.split(","):
        token = token.strip()
        if token not in _RULE_TOKENS:
            _refuse(f"unknown rule {token!r} (choose from {', '.join(sorted(_RULE_TOKENS))})")
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
        _refuse(f"must be a non-negative integer, got {value!r}")
    return depth


def _allowlist_argument(value: str) -> str:
    if not value:
        _refuse("must name a file, got ''")
    return value


# The command-line grammar, read by build_parser and by the plain reader: every command takes
# the shared options, then its own, in usage order. An option is its default (or a function
# that returns it), its check (a tuple of choices, a type function, or None for a flag) and
# its help text. A need names options of which exactly one must be given.
_SHARED = {
    "--repo": (lambda: os.environ.get(REPO_ENV_VAR), str,
               f"repository root directory (default: ${REPO_ENV_VAR})"),
    "--root": (None, str, "root project coordinate group:artifact:version"),
    "--format": ("text", ("text", "json"), None),
    "--max-depth": (DEFAULT_MAX_DEPTH, _depth_argument, None),
}
_SHARED_NEEDS = (("--root",),)
_ECOSYSTEM = {"--ecosystem": ("maven", ("maven", "gradle"), None)}
_COMMANDS = {  # each command's handler, help summary and own options, then its own needs
    "resolve": (cmd_resolve, "print the resolved tree", {}),
    "classpath": (cmd_classpath, "print the ordered classpath",
                  {**_ECOSYSTEM, "--layout": ("none", ("flat", "nested", "none"), None)}),
    "scan": (cmd_scan, "report shadowed classes",
             {**_ECOSYSTEM, "--fail-on-shadow": (False, None, None)}),
    "hijack": (cmd_hijack, "hijack reach or surface of an artifact",
               {"--attacker": (None, str, "coordinate whose reach to compute"),
                "--target": (None, str, "coordinate whose surface to compute"), **_ECOSYSTEM},
               ("--attacker", "--target")),
    "check": (cmd_check, "run mitigation checks",
              {"--rules": (tuple(_RULE_TOKENS.values()), _rules_argument, None),
               "--allowlist": (None, _allowlist_argument, "file of allowed collision patterns"),
               "--root-module": (False, None, None)}),
    "compare": (cmd_compare, "diff Maven vs Gradle winners", {}),
}


def build_parser() -> ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage problems are input errors: keep exit code 1, not argparse's 2
        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            _print_error(inert(message))
            raise SystemExit(EXIT_INPUT_ERROR)

    parser = _Parser(prog="shadowscan", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, own, *needs) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        needs = (*_SHARED_NEEDS, *needs)
        # a need of one option is a required option, a need of more a required one-of group
        groups = {need: sub.add_mutually_exclusive_group(required=True)
                  for need in needs if len(need) > 1}
        for option, (default, check, text) in {**_SHARED, **own}.items():
            holder = next((group for need, group in groups.items() if option in need), sub)
            kind = ({"action": "store_true"} if check is None else
                    {"choices": check} if check.__class__ is tuple else {"type": check})
            holder.add_argument(option, default=default() if callable(default) else default,
                                required=(option,) in needs, help=text, **kind)
        sub.set_defaults(handler=handler)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns if argv is plain, else None.

    Plain is what ``_COMMANDS`` declares, with each option spelled in full and given at
    most once, and each value in its own token that does not start with ``-``.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, own, *needs = _COMMANDS[argv[0]]
    options = {**_SHARED, **own}
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for option in tokens:
        if option not in options or option in given:
            return None
        check = options[option][1]
        if check is None:  # a flag
            given[option] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as one that starts with "-"
        if value[:1] == "-" or check.__class__ is tuple and value not in check:
            return None
        try:
            given[option] = value if check.__class__ is tuple else check(value)
        except Exception:  # argparse reads the value again and reports the error
            return None
    if any(sum(option in given for option in need) != 1 for need in (*_SHARED_NEEDS, *needs)):
        return None
    values = {option[2:].replace("-", "_"): given.get(option, default() if callable(default) else default)
              for option, (default, _, _) in options.items()}
    return SimpleNamespace(command=argv[0], **values, handler=handler)


def main(argv: Sequence[str] | None = None) -> int:
    # argparse is loaded only to read an argv that the plain reader declines
    args = (_plain_args(sys.argv[1:] if argv is None else argv)
            or build_parser().parse_args(argv, SimpleNamespace()))
    if not args.repo:
        _print_error(f"no repository given (--repo or ${REPO_ENV_VAR})")
        return EXIT_INPUT_ERROR
    # check and compare have no --ecosystem: they read the Maven classpath
    run = Run(args.repo, args.root, args.max_depth, Ecosystem(getattr(args, "ecosystem", "maven")))
    try:
        code, payload = args.handler(run, args)
        inputs = _inputs(args)
        if args.format == "json":
            from shadowscan import jsonv1

            pieces = jsonv1.report_pieces(args.command, inputs, payload)
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
    if pieces.__class__ is list:  # a JSON report: sliced, not copied through an iterator
        batches = (pieces[start:start + _BATCH] for start in count(0, _BATCH))
    else:  # a text report, made as it is read
        pieces = iter(pieces)
        batches = iter(lambda: list(islice(pieces, _BATCH)), None)
    for batch in batches:
        data = memoryview(encode("".join(batch), len(batch) < _BATCH))
        while data:
            data = data[os.write(fileno, data):]
        if len(batch) < _BATCH:
            return

"""The optimized validators, analyses and report writer match their straightforward references."""

from __future__ import annotations

import copy
import io
import json
import os
import pickle
import sys
import zipfile
from enum import Enum
from random import Random
from contextlib import redirect_stderr, redirect_stdout
from typing import Any, NamedTuple
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan import cli, pom
from shadowscan.analysis import (
    ShadowFinding,
    WinnerComparison,
    compare_ecosystems,
    detect_shadowing,
)
from shadowscan.inventory import ClassInventory, effective_classes, inspect_classlist
from shadowscan.jar import inspect_jar
from shadowscan.jsonv1 import _MAX_NESTING
from shadowscan.errors import InvalidClassName, InvalidCoordinate, ReportTooDeep
from shadowscan.mitigations import (
    DuplicateClassViolation,
    SealedPackageViolation,
    check_ban_duplicate_classes,
    check_modules,
    check_sealed,
)
from shadowscan.model import (
    INCLUDED,
    Coordinate,
    Included,
    OmittedConflict,
    OmittedDuplicate,
    ResolvedNode,
    check_class_name,
    check_invariants,
)
from shadowscan.ordering import Ecosystem, LayoutMode, build_classpath, emit_layout
from shadowscan.pom import fetch_pom, parse_pom
from shadowscan.resolver import Conflict, Occurrence, resolve
from tests.helpers import (
    full_expansion_winners,
    json_report,
    memory_repo,
    parsed,
    plain_pom,
    random_conflict_repo,
    random_argv,
    random_inventories,
    random_tree,
    read_or_error,
    reference_allowed,
    reference_check_modules,
    reference_check_sealed,
    reference_class_name_ok,
    reference_compare_ecosystems,
    reference_comparison_payload,
    reference_conflicts_payload,
    reference_dfs_order,
    reference_findings_payload,
    reference_is_sealed,
    reference_inspect_classlist,
    reference_node_payload,
    reference_parse_pom,
    reference_token_ok,
    reference_verdict_payload,
)

# separators, inner-class markers, ASCII and Unicode whitespace, letters
ALPHABET = list(".:/$aZé") + [" ", "\t", "\n", "\x1c", "\x85", "\xa0", " ", "　"]
NAMES = st.one_of(st.text(alphabet=ALPHABET, max_size=12), st.text(max_size=12))


def typed(value):
    """``value`` with every NamedTuple record in it paired with its type.

    NamedTuple equality is tuple equality and ignores the class: a
    ``DuplicateClassViolation`` equals a ``SealedPackageViolation`` with the
    same values. Comparing ``typed`` values compares the classes too.
    """
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return (type(value), *map(typed, value))
    if type(value) in (tuple, list):
        return type(value)(map(typed, value))
    return value


def test_typed_tells_equal_records_of_two_classes_apart():
    winner, victim = Coordinate.of("g", "a", "1"), Coordinate.of("g", "b", "1")
    duplicate = DuplicateClassViolation("org.x", winner, (victim,))
    sealed = SealedPackageViolation("org.x", winner, (victim,))
    assert duplicate == sealed
    assert typed((duplicate,)) != typed((sealed,))
    assert typed((duplicate,)) == typed((DuplicateClassViolation("org.x", winner, (victim,)),))


def accepts(constructor, error, value) -> bool:
    try:
        constructor(value)
    except error:
        return False
    return True


@given(NAMES)
def test_class_name_rule_matches_the_per_segment_reference(value):
    accepted = accepts(check_class_name, InvalidClassName, value)
    assert accepted == reference_class_name_ok(value)


# class-list lines: names from a small pool (so some repeat), arbitrary and
# mostly invalid names, comments, known, unknown and empty directives, all
# padded with whitespace and ended by any separator str.splitlines knows
POOL = ["org.a.A", "org.a.B", "org.a.B$C", "org.b.D", "Main", "x$y", "org.a", "org.b"]
PADDING = st.sampled_from(["", " ", "\t", " \t ", "\xa0", "\u3000"])
DIRECTIVES = st.sampled_from(["@sealed", "@module", "@sealed\t", "@provides", "@", "@module  "])
LINES = st.one_of(
    st.sampled_from(POOL),
    st.sampled_from(POOL),
    NAMES,
    NAMES.map("#".__add__),
    st.tuples(DIRECTIVES, st.sampled_from(POOL + [""]) | NAMES).map(" ".join),
    st.just(""),
)
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b"])
CLASS_LISTS = st.lists(st.tuples(PADDING, LINES, PADDING, SEPARATORS).map("".join), max_size=12)


@pytest.fixture(scope="module")
def classlist_path(tmp_path_factory):
    return tmp_path_factory.mktemp("classlist") / "classes.txt"


@settings(max_examples=300)
@given(CLASS_LISTS, st.booleans())
def test_class_list_reader_matches_the_per_line_reference(classlist_path, lines, last_ended):
    text = "".join(lines)
    if lines and not last_ended:
        text = text[:-1]
    classlist_path.write_bytes(text.encode("utf-8"))
    expected = read_or_error(reference_inspect_classlist, classlist_path)
    assert read_or_error(inspect_classlist, classlist_path) == expected


# class lists shaped for the bulk read: a header of comments and directives,
# then distinct pool names, each ended by "\n", and an optional leading BOM,
# which reading drops. About half get one mutation, to line ``i`` of the body
# or to the body as a whole; most mutations send the list back to the
# per-line loop, and the rest must be read as that loop reads them.
HEADER_LINES = st.sampled_from(
    ["# a comment", "#", "#\t@sealed x", "@sealed org.a", "@sealed org.b", "@module org.mod"]
)
LINE_MUTATIONS = {
    "padded line": lambda line: " " + line,
    "tab-padded line": lambda line: line[:-1] + "\t\n",
    "CRLF": lambda line: line[:-1] + "\r\n",
    "NEL": lambda line: line[:-1] + "\x85",
    "leading dot": lambda line: "." + line,
    "trailing dot": lambda line: line[:-1] + ".\n",
    "led by #": lambda line: "#" + line,
    "led by @": lambda line: "@" + line,
    "non-ASCII name": lambda line: "é" + line,
    "BOM": lambda line: "\ufeff" + line,
}
BODY_MUTATIONS = {
    "repeat": lambda body, i: body + [body[i]],
    "no final newline": lambda body, i: body[:-1] + [body[-1][:-1]],
    "empty body": lambda body, i: [],
}


@st.composite
def bulk_class_lists(draw):
    bom = draw(st.sampled_from(["", "\ufeff"]))
    header = "".join(line + "\n" for line in draw(st.lists(HEADER_LINES, max_size=4)))
    body = [name + "\n" for name in draw(st.lists(st.sampled_from(POOL), min_size=1, unique=True))]
    mutation = draw(st.none() | st.sampled_from([*LINE_MUTATIONS, *BODY_MUTATIONS]))
    i = draw(st.integers(0, len(body) - 1))
    if mutation in LINE_MUTATIONS:
        body[i] = LINE_MUTATIONS[mutation](body[i])
    elif mutation:
        body = BODY_MUTATIONS[mutation](body, i)
    return bom + header + "".join(body)


@settings(max_examples=300)
@given(bulk_class_lists())
def test_bulk_shaped_class_lists_match_the_per_line_reference(classlist_path, text):
    classlist_path.write_bytes(text.encode("utf-8"))
    expected = read_or_error(reference_inspect_classlist, classlist_path)
    assert read_or_error(inspect_classlist, classlist_path) == expected


# manifests: attribute names in any case, values that are and are not "true",
# sections for packages with and without classes, for the unnamed package, for
# a file and under a dotted name, repeated sections, CRLF, and lines wrapped
# at any width
PACKAGES = ["org", "org.nice", "org.nice.deep", "org.other"]
CLASSES = st.lists(
    st.tuples(st.sampled_from(PACKAGES + [""]), st.sampled_from(["A", "B$C"])).map(
        lambda parts: ".".join(filter(None, parts))
    ),
    unique=True,
    max_size=6,
)
ATTRIBUTES = st.lists(st.tuples(
    st.sampled_from(["Sealed", "sealed", "SEALED", "Manifest-Version", "Created-By"]),
    st.sampled_from(["true", "TRUE", "True", "false", "yes", "1.0", ""]),
), max_size=3)
# the section name of each package, the unnamed one and one without classes included
PACKAGE_SECTIONS = {package.replace(".", "/") + "/": package for package in PACKAGES}
PACKAGE_SECTIONS.update({"/": "", "com/unused/": "com.unused"})
SECTION_NAMES = st.sampled_from([*PACKAGE_SECTIONS, "org/nice/A.class", "org.nice/"])
SECTIONS = st.lists(
    st.tuples(st.sampled_from(["Name", "name", "NAME"]), SECTION_NAMES, ATTRIBUTES), max_size=4
)


def manifest_lines(attributes, width):
    for name, value in attributes:
        line = f"{name}: {value}"
        yield line[:width]
        yield from (" " + line[start:start + width] for start in range(width, len(line), width))


@pytest.fixture(scope="module")
def jar_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jar") / "artifact.jar"


@settings(max_examples=300)
@given(CLASSES, ATTRIBUTES, SECTIONS, st.integers(1, 30), st.sampled_from(["\n", "\r\n"]))
def test_jar_sealing_matches_the_jvm_reference(jar_path, classes, main, sections, width, newline):
    lines = list(manifest_lines(main, width))
    for name_key, name, attributes in sections:
        lines += ["", *manifest_lines([(name_key, name), *attributes], width)]
    manifest = newline.join(lines) + newline
    with zipfile.ZipFile(jar_path, "w") as archive:
        archive.writestr("META-INF/MANIFEST.MF", manifest)
        for name in classes:
            archive.writestr(name.replace(".", "/") + ".class", b"")
    named = {PACKAGE_SECTIONS[name] for _, name, _ in sections if name in PACKAGE_SECTIONS}
    candidates = {name.rpartition(".")[0] for name in classes} | named
    expected = {package for package in candidates if reference_is_sealed(manifest, package)}
    assert inspect_jar(jar_path, Coordinate.of("g", "a", "1")).sealed_packages == expected


@given(NAMES)
def test_coordinate_token_rule_matches_the_per_character_reference(value):
    for build in (
        lambda token: Coordinate.of(token, "a", "1"),
        lambda token: Coordinate.of("g", token, "1"),
        lambda token: Coordinate.of("g", "a", token),
        lambda token: Coordinate(f"{token}:a:1"),
        lambda token: Coordinate(f"g:{token}:1"),
        lambda token: Coordinate(f"g:a:{token}"),
    ):
        assert accepts(build, InvalidCoordinate, value) == reference_token_ok(value)


def reference_coordinate_error(tokens: tuple[str, str, str]) -> str | None:
    """The message for the first bad token, checked one token at a time, or None."""
    for label, token in zip(("group id", "artifact id", "version"), tokens):
        if not token:
            return f"{label} must be a nonempty string"
        if not reference_token_ok(token):
            return f"{label} {token!r} must not contain ':' or whitespace"
    return None


@given(st.tuples(NAMES, NAMES, NAMES))
def test_coordinate_of_names_the_first_bad_token_as_the_per_token_reference(tokens):
    try:
        Coordinate.of(*tokens)
    except InvalidCoordinate as exc:
        assert str(exc) == reference_coordinate_error(tokens)
    else:
        assert reference_coordinate_error(tokens) is None


# valid tokens, and tokens with a ':' or a whitespace character somewhere, or empty
TOKEN_TEXTS = st.text(min_size=1, max_size=6).filter(reference_token_ok)
BAD_TOKENS = st.just("") | st.builds(
    lambda head, bad, tail: head + bad + tail,
    st.text(max_size=2), st.sampled_from([":", " ", "\t", "\n", "\x85", "\u3000"]),
    st.text(max_size=2),
)


@given(st.tuples(TOKEN_TEXTS, TOKEN_TEXTS, TOKEN_TEXTS))
def test_a_coordinate_is_its_text(tokens):
    coordinate = Coordinate.of(*tokens)
    text = ":".join(tokens)
    assert type(coordinate) is Coordinate and str(coordinate) == text
    assert type(Coordinate(text)) is Coordinate
    assert Coordinate(text) == Coordinate.of(*text.split(":")) == coordinate
    parts = (coordinate.group_id, coordinate.artifact_id, coordinate.version)
    assert parts == tokens and coordinate.ga == f"{tokens[0]}:{tokens[1]}"
    assert type(coordinate.ga) is str
    assert coordinate == text and hash(coordinate) == hash(text)
    for clone in (copy.copy(coordinate), pickle.loads(pickle.dumps(coordinate))):
        assert type(clone) is Coordinate and clone == coordinate


@given(st.tuples(TOKEN_TEXTS, TOKEN_TEXTS, TOKEN_TEXTS), st.integers(0, 2), BAD_TOKENS)
def test_a_bad_token_in_any_position_is_refused(tokens, position, bad):
    tokens = tokens[:position] + (bad,) + tokens[position + 1:]
    with pytest.raises(InvalidCoordinate):
        Coordinate.of(*tokens)
    with pytest.raises(InvalidCoordinate):
        Coordinate(":".join(tokens))


# POMs: the coordinate elements shuffled, repeated or missing, with padded,
# placeholder and now and then empty, invalid or element-only values;
# repeated dependencies sections and coordinates from small pools, so that
# some group:artifacts repeat; ignored and unknown elements; no, a default and
# a prefixed namespace; a wrong root now and then, and truncated text
COORDINATE_NAMES = ["groupId", "artifactId", "version"]
POM_VALUES = {
    name: st.sampled_from(
        valid * 6 + ["", "a b", "a:b", "<x/>g", "a\x1cb", "a\u00a0b", "a\u2028b", "a::b"]
    )
    for name, valid in [
        ("groupId", ["g", "h", "  g\n", "${group}"]),
        ("artifactId", ["a", "b", "c", "${artifact}"]),
        ("version", ["1", "2", " 1 ", "${version}"]),
    ]
}
NAMESPACES = ["", ' xmlns="http://maven.apache.org/POM/4.0.0"', ' xmlns:p="urn:p"',
              ' xmlns="urn:x" xmlns:p="urn:p"']


@st.composite
def pom_texts(draw):
    namespace = draw(st.sampled_from(NAMESPACES))
    prefixes = st.sampled_from(["", "p:"] if "xmlns:p" in namespace else [""])

    def element(name, body):
        prefix = draw(prefixes)
        return f"<{prefix}{name}>{body}</{prefix}{name}>"

    def children(extras):
        """The coordinate elements, each once in most draws, mixed into ``extras``."""
        if draw(st.integers(0, 5)):
            names = list(draw(st.permutations(COORDINATE_NAMES)))
        else:
            names = draw(st.lists(st.sampled_from(COORDINATE_NAMES), max_size=5))
        parts = [element(name, draw(POM_VALUES[name])) for name in names]
        for extra in extras:
            parts.insert(draw(st.integers(0, len(parts))), extra)
        return "".join(parts)

    def dependency():
        extras = draw(st.lists(st.sampled_from(["exclusions", "scope", "type"]), max_size=3))
        return element("dependency", children([element(name, "") for name in extras]))

    def section():
        items = draw(st.lists(st.sampled_from(["dependency"] * 3 + ["other"]), max_size=5))
        return element("dependencies", "".join(
            dependency() if item == "dependency" else element("dependencyX", "") for item in items
        ))

    extras = [
        section() if name == "dependencies" else element(name, "<x>1</x>")
        for name in draw(st.lists(st.sampled_from(
            ["dependencies", "dependencyManagement", "profiles", "properties", "modelVersion",
             "dependency"]
        ), max_size=4))
    ]
    if draw(st.booleans()):
        extras.insert(0, section())
    root_name = draw(st.sampled_from(["project"] * 9 + ["projects"]))
    text = f"<{root_name}{namespace}>{children(extras)}</{root_name}>"
    if not draw(st.integers(0, 19)):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=500)
@given(pom_texts())
def test_pom_parsing_matches_the_per_name_walk(text):
    assert parsed(parse_pom, text) == parsed(reference_parse_pom, text)


# a true random source: Hypothesis's own draws favour the first choice and the
# extremes of random(), which would hide the rarer shapes
@settings(max_examples=500)
@given(st.randoms(use_true_random=True))
def test_the_plain_reader_reads_as_elementtree_does(rng):
    text = plain_pom(rng)
    plain = pom._read_plain(text)
    if plain is not None:
        assert plain == pom._read_tree(text)
    assert parsed(parse_pom, text) == parsed(reference_parse_pom, text)


# seeded sources: Hypothesis's own draws never reached more than 40 distinct
# classes in 100 examples of either property; a seeded Random did in 4 and 7
SEEDED = st.integers(0, 2**32 - 1).map(Random)


@given(SEEDED)
def test_check_sealed_matches_the_list_reference(rng):
    inventories = random_inventories(rng, max_artifacts=20, max_classes=60, seal=True)
    class_map = effective_classes(inventories)
    assert typed(check_sealed(inventories, class_map)) == typed(
        reference_check_sealed(inventories, class_map)
    )


@given(SEEDED, st.booleans())
def test_check_modules_matches_the_list_reference(rng, root_is_module):
    inventories = random_inventories(rng, max_artifacts=20, max_classes=60, seal=True)
    assert typed(check_modules(inventories, root_is_module)) == typed(
        reference_check_modules(inventories, root_is_module)
    )


@settings(max_examples=250)
@given(SEEDED, st.booleans())
def test_the_plain_argv_reader_reads_as_argparse_does(rng, repo_in_environment):
    with mock.patch.dict(os.environ):
        if repo_in_environment:
            os.environ[cli.REPO_ENV_VAR] = "env-repo"
        else:
            os.environ.pop(cli.REPO_ENV_VAR, None)
        parser = cli.build_parser()
        for _ in range(20):
            argv = random_argv(rng)
            plain = cli._plain_args(argv)
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    parsed = parser.parse_args(argv)
            except SystemExit:  # a usage error or help: argparse must read it
                assert plain is None, argv
            else:
                if plain is not None:
                    assert list(vars(plain).items()) == list(vars(parsed).items()), argv


# dotted names over few short segments, so that names share prefixes and
# packages and a pattern drawn from one name often covers another
SEGMENTS = st.sampled_from(["a", "ab", "b", "A", "Ab", "B"])
CLASS_NAMES = st.lists(SEGMENTS, min_size=1, max_size=4).map(".".join)


@st.composite
def allowlist_patterns(draw):
    """An exact name, a ``pkg.*``, a ``pkg.Name*`` or, rarely, a bare ``*``, which allows all."""
    name = draw(CLASS_NAMES)
    package, _, simple = name.rpartition(".")
    form = draw(st.sampled_from(["exact", "package", "name-prefix"] * 3 + ["star"]))
    if form == "star":
        return "*"
    if form == "package" and package:
        return package + ".*"
    if form == "name-prefix":
        return name[: len(name) - len(simple) + draw(st.integers(1, len(simple)))] + "*"
    return name


@settings(max_examples=300)
@given(
    st.lists(st.lists(CLASS_NAMES, unique=True, max_size=12), min_size=1, max_size=4),
    st.lists(allowlist_patterns(), max_size=6),
)
def test_allowlist_matching_matches_the_per_pattern_reference(provided, patterns):
    inventories = [
        ClassInventory(Coordinate.of("org.gen", f"art{n}", "1.0"), tuple(names), frozenset())
        for n, names in enumerate(provided)
    ]
    class_map = effective_classes(inventories)
    expected = tuple(
        DuplicateClassViolation(name, providers[0], providers[1:])
        for name, providers in sorted(class_map.bindings.items())
        if len(providers) > 1 and not reference_allowed(name, patterns)
    )
    verdict = check_ban_duplicate_classes(class_map, patterns)
    assert typed(verdict.violations) == typed(expected)


@given(st.randoms(use_true_random=False))
def test_compare_ecosystems_matches_the_two_map_reference(rng):
    tree = random_tree(rng, max_depth=4, max_children=3)
    coordinates = build_classpath(tree, Ecosystem.MAVEN).entries
    inventories = random_inventories(rng, max_classes=60, coordinates=coordinates)
    by_coordinate = {inventory.coordinate: inventory for inventory in inventories}
    assert typed(compare_ecosystems(tree, inventories)) == typed(
        reference_compare_ecosystems(tree, by_coordinate)
    )


# JSON values: non-ASCII, control-character and lone-surrogate strings, big
# ints of either sign, and arrays written from lists or tuples
STRINGS = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = st.none() | st.booleans() | st.integers(-(2**80), 2**80) | STRINGS
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=30,
)


def dumped(command, inputs, payload) -> str:
    """What the report was before the writer: json.dumps of the whole document."""
    document = {"schema_version": 1, "command": command, "inputs": inputs, "payload": payload}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


@given(STRINGS, st.dictionaries(STRINGS, DOCUMENTS, max_size=3), DOCUMENTS)
def test_report_writer_matches_json_dumps(command, inputs, payload):
    assert json_report(command, inputs, payload) == dumped(command, inputs, payload)


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "r\u00e9ght\n"


class Row(NamedTuple):
    name: Any
    items: Any
    extra: Any = None


class Cell:
    """A record that is no tuple: a ``__slots__`` class that names ``_fields``.

    ``_members`` writes any class that names ``_fields`` as a record, not only a NamedTuple.
    """

    __slots__ = _fields = ("label", "count")

    def __init__(self, label, count):
        self.label = label
        self.count = count


class Blank(NamedTuple):
    """A record with no members."""


class Tagged(NamedTuple):
    """A record that names derived members, whose keys sort among its fields'."""

    tag: Any
    items: Any

    _derived = ("echo", "empty")

    @property
    def echo(self):
        return self.tag

    @property
    def empty(self):
        return not self.items


# members that are properties, by name: the report's contract, read back here
# with getattr rather than through the writer's getters
DERIVED = {
    ShadowFinding: ("winner_depth",), WinnerComparison: ("differs",), Tagged: ("echo", "empty"),
    ResolvedNode: ("depth",), Included: ("kind",), OmittedConflict: ("kind",),
    OmittedDuplicate: ("kind",),
}


def expanded(value):
    """``value`` as the plain JSON document a report writes; TypeError where it has none."""
    kind = type(value)
    if isinstance(value, str) or value is None or kind in (int, bool):
        return value
    if kind in (list, tuple):
        return [expanded(item) for item in value]
    if kind is dict:
        return {key: expanded(item) for key, item in value.items()}
    if not hasattr(kind, "_fields"):
        raise TypeError(f"{kind.__name__} is not a report value")
    names = [*kind._fields, *DERIVED.get(kind, ())]
    return {name: expanded(getattr(value, name)) for name in names}


TOKENS = st.text(alphabet="ab\u00e9.-_", min_size=1, max_size=3)
SCALAR_KINDS = [
    STRINGS,
    st.sampled_from(Side),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.builds(Coordinate.of, TOKENS, TOKENS, TOKENS),
]
RECORD_SCALARS = st.one_of(SCALAR_KINDS)


def arrays(items):
    return st.lists(items, max_size=3) | st.lists(items, max_size=3).map(tuple)


# What one member holds across an array's records: scalars of one type or
# arrays of them, which the columns take; or mixed scalars, scalars mixed with
# arrays, or now and then a value only the iterative writer takes or none does
# (a float, a nested record, an array of arrays).
ONE_KIND_COLUMNS = st.sampled_from(SCALAR_KINDS) | st.sampled_from(SCALAR_KINDS).map(arrays)
COLUMNS = st.one_of(
    ONE_KIND_COLUMNS,
    st.sampled_from([
        RECORD_SCALARS, arrays(RECORD_SCALARS), RECORD_SCALARS | arrays(RECORD_SCALARS),
    ]),
    st.sampled_from([st.just(1.5), st.builds(Cell, RECORD_SCALARS, RECORD_SCALARS),
                     st.just([[1], []])]).map(lambda odd: odd | RECORD_SCALARS),
)


@st.composite
def record_arrays(draw):
    """An array of records, mostly of one class, under up to three levels of arrays and objects."""
    columns = draw(st.sampled_from([ONE_KIND_COLUMNS] * 3 + [COLUMNS]))
    a, b, c = (draw(columns) for _ in range(3))
    paths = draw(st.sampled_from(SCALAR_KINDS).map(arrays) | st.just(arrays(RECORD_SCALARS)))
    strategies = [
        st.builds(Row, a, b, c),
        st.builds(Cell, a, b),
        st.just(Blank()),
        st.builds(ShadowFinding, a, b, c, paths),
        st.builds(WinnerComparison, a, b, c),
        st.builds(Tagged, a, b),
    ]
    if draw(st.integers(0, 4)):
        strategy = draw(st.sampled_from(strategies))
    else:
        strategy = st.one_of(strategies)
    document = draw(st.lists(strategy, max_size=6))
    if draw(st.booleans()):
        document = tuple(document)
    for wrapper in draw(st.lists(st.sampled_from(["array", "object"]), max_size=3)):
        document = [document] if wrapper == "array" else {"key": document}
    return document


@settings(max_examples=500)
@given(record_arrays())
def test_record_arrays_match_json_dumps_of_their_expansion(payload):
    try:
        expected = dumped("records", {}, expanded(payload))
    except TypeError:
        with pytest.raises(TypeError):
            json_report("records", {}, payload)
    else:
        assert json_report("records", {}, payload) == expected


# Arrays that are equal and hash alike but are written differently, such as
# (1,) and (True,), or that are written alike but are unequal: [] and ().
LOOKALIKE_ARRAYS = [
    (1,), (True,), (0,), (False,), (1, 0), (True, False), [], (), [1],
    (Coordinate("g:a:1"),), ("g:a:1",),
]


@settings(max_examples=300)
@given(st.data())
def test_records_sharing_a_few_arrays_match_json_dumps_of_their_expansion(data):
    pool = data.draw(st.lists(st.sampled_from(LOOKALIKE_ARRAYS), min_size=1, max_size=4))
    column = st.sampled_from(pool)
    records = data.draw(st.lists(
        st.builds(Row, st.sampled_from(["a", "b"]), column, column), min_size=2, max_size=30,
    ))
    assert json_report("records", {}, records) == dumped("records", {}, expanded(records))


def test_an_int_and_a_bool_array_that_compare_equal_keep_their_own_text():
    records = [Row("a", (1,)), Row("b", (True,)), Row("c", (1,))]
    text = json_report("records", {}, records)
    assert text == dumped("records", {}, expanded(records))
    assert text.count("true") == 1


# Record trees: records with one member that holds records of their own class,
# as a resolved tree's nodes hold their children. The writer takes a whole
# tree at once and hands back to the value-by-value loop what it cannot take.

TOO_DEEP = (
    f"the JSON report would nest deeper than {_MAX_NESTING} levels, "
    "the most JSON readers accept; use --format text"
)


def deep_dumped(command, payload):
    """``dumped`` of ``payload``'s expansion; both recurse once or more per nesting level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        return dumped(command, {}, expanded(payload))
    finally:
        sys.setrecursionlimit(limit)


def node_chain(length, leaf_status=INCLUDED):
    """A chain of ``length`` nodes below its root, built from the leaf up.

    Each path holds only its node's depth: the writer takes the paths as
    they are, and full paths would make the report quadratic in ``length``.
    """
    node = ResolvedNode(Coordinate(f"g:c{length}:1"), (length,), length, leaf_status)
    for depth in reversed(range(length)):
        node = ResolvedNode(Coordinate(f"g:c{depth}:1"), (depth,) if depth else (), depth, INCLUDED, (node,))
    return node


# the root sits at nesting level 2 of a resolve report, and each tree level
# adds two: the deepest node's path and status members reach _MAX_NESTING here
AT_THE_LIMIT = (_MAX_NESTING - 4) // 2


@pytest.mark.parametrize("leaf_status", [INCLUDED, OmittedConflict(Coordinate("g:x:1")), OmittedDuplicate(())])
def test_a_chain_whose_deepest_array_sits_at_the_nesting_limit_is_written(leaf_status):
    payload = {"tree": node_chain(AT_THE_LIMIT, leaf_status)}
    report = json_report("resolve", {}, payload)
    assert report == deep_dumped("resolve", payload)
    assert "\n" + "  " * _MAX_NESTING + f"{AT_THE_LIMIT}\n" in report
    assert "  " * (_MAX_NESTING + 1) not in report


@pytest.mark.parametrize(
    ("length", "leaf_status"),
    [(AT_THE_LIMIT + 1, INCLUDED), (AT_THE_LIMIT, OmittedDuplicate((0,)))],
    ids=["a-level-deeper", "a-status-path-past-the-limit"],
)
def test_a_chain_one_level_past_the_nesting_limit_is_refused(length, leaf_status):
    with pytest.raises(ReportTooDeep) as refused:
        json_report("resolve", {}, {"tree": node_chain(length, leaf_status)})
    assert str(refused.value) == TOO_DEEP


def test_a_450_level_chain_is_written_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    payload = {"tree": node_chain(450)}
    report = json_report("resolve", {}, payload)
    assert report == deep_dumped("resolve", payload)


def test_hand_built_trees_with_list_children_shared_subtrees_and_other_records():
    leaf = ResolvedNode(Coordinate("g:leaf:1"), (0, 0), 3, OmittedDuplicate((True, 0)))
    other = ResolvedNode(Coordinate("g:other:1"), (0, 1), 4, OmittedDuplicate((1, 0)))
    shared = ResolvedNode(Coordinate("g:shared:1"), (0,), 1, INCLUDED, [leaf, other, leaf])
    foreign = ResolvedNode(Coordinate("g:foreign:1"), (2,), 5, INCLUDED,
                           (Occurrence(Coordinate("g:o:1"), (2, 0)), leaf))
    trees = [
        ResolvedNode(Coordinate("g:root:1"), (), 0, INCLUDED, [shared, shared]),
        ResolvedNode(Coordinate("g:root:1"), (), 0, INCLUDED, (shared, foreign, leaf)),
        ResolvedNode(Coordinate("g:root:1"), (), 0, INCLUDED, []),
    ]
    for tree in trees:
        for payload in ({"tree": tree}, {"trees": [tree, tree]}, [[tree]]):
            assert json_report("resolve", {}, payload) == dumped("resolve", {}, expanded(payload))


@pytest.mark.parametrize("copies", [1, 2])
def test_a_cyclic_tree_is_refused_as_too_deep(copies):
    # a list member can hold its own node: the tree never ends, and with two
    # copies it doubles at every level, so it must be refused while going down
    node = ResolvedNode(Coordinate("g:loop:1"), (), 0, INCLUDED, [])
    node.children.extend([node] * copies)
    with pytest.raises(ReportTooDeep) as refused:
        json_report("resolve", {}, {"tree": node})
    assert str(refused.value) == TOO_DEEP


def test_conflicts_with_a_single_loser_or_an_empty_path_match_json_dumps():
    a, b, c = Coordinate("g:a:1"), Coordinate("g:a:2"), Coordinate("g:a:3")
    conflicts = [
        Conflict("g:a", Occurrence(a, ()), (Occurrence(b, (0,)),)),
        Conflict("g:a", Occurrence(a, (1,)), (Occurrence(b, ()), Occurrence(c, (2, 0)))),
        Conflict("g:a", Occurrence(a, (True,)), ()),
        Conflict("g:a", Occurrence(a, (1,)), [Occurrence(c, [])]),
    ]
    for payload in ({"conflicts": conflicts}, {"conflicts": conflicts[:1] * 3}, [conflicts[2:]]):
        assert json_report("resolve", {}, payload) == dumped("resolve", {}, expanded(payload))


PATH_ITEMS = st.integers(0, 3) | st.booleans()
STATUSES = st.one_of(
    st.just(INCLUDED),
    st.builds(OmittedConflict, st.sampled_from([Coordinate("g:w:1"), Coordinate("g:w:2"), "g:w:1"])),
    st.builds(OmittedDuplicate, arrays(PATH_ITEMS)),
)


@st.composite
def node_trees(draw):
    """A tree of hand-built nodes under up to two wrappers: nodes share subtrees,
    children sit in lists or tuples, and now and then one is another record."""
    nodes = []
    for index in range(draw(st.integers(1, 12))):
        children = draw(st.lists(st.sampled_from(nodes), max_size=3)) if nodes else []
        if draw(st.integers(0, 9)) == 0:
            children.append(Occurrence(Coordinate("g:o:1"), (index,)))
        if draw(st.booleans()):
            children = tuple(children)
        path = tuple(draw(st.lists(PATH_ITEMS, max_size=3)))
        nodes.append(ResolvedNode(Coordinate(f"g:n{index}:1"), path, index, draw(STATUSES), children))
    document = nodes[-1]
    for wrapper in draw(st.lists(st.sampled_from(["array", "object"]), max_size=2)):
        document = [document, document] if wrapper == "array" else {"key": document}
    return document


@settings(max_examples=200)
@given(node_trees())
def test_hand_built_trees_match_json_dumps_of_their_expansion(payload):
    assert json_report("resolve", {}, payload) == dumped("resolve", {}, expanded(payload))


@given(st.randoms(use_true_random=False))
def test_tree_report_matches_the_node_payload_reference(rng):
    root = random_tree(rng, max_depth=4, max_children=3).root
    assert json_report("resolve", {}, {"tree": root}) == dumped(
        "resolve", {}, {"tree": reference_node_payload(root)}
    )


@given(st.integers(0, 2**32))
def test_resolution_report_matches_the_payload_references(seed):
    poms, root_text = random_conflict_repo(Random(seed))
    repo = memory_repo(poms)
    resolution = resolve(repo, fetch_pom(repo, Coordinate(root_text)))
    expected = {
        "tree": reference_node_payload(resolution.tree.root),
        "conflicts": reference_conflicts_payload(resolution),
    }
    payload = {"tree": resolution.tree.root, "conflicts": resolution.conflicts}
    assert json_report("resolve", {}, payload) == dumped("resolve", {}, expected)


@st.composite
def deep_wide_repos(draw):
    """An acyclic POM set of up to 65 artifacts and the length of its longest path.

    Artifact j hangs below an earlier one: the one just before it (a chain as
    deep as the default depth limit), one of the first few (a wide, shallow
    tree) or any. Extra edges make duplicates, and a pool of fewer
    group:artifacts than artifacts makes version conflicts.
    """
    count = draw(st.one_of(st.just(65), st.integers(2, 65)))
    shape = draw(st.sampled_from(["chain", "fan", "random"]))
    fan = draw(st.integers(1, 4))
    pool = draw(st.sampled_from([count, draw(st.integers(1, count))]))
    texts = ["org.gen:root:1.0"] + [
        f"org.gen:lib{j if pool == count else draw(st.integers(0, pool - 1))}:{j}.0"
        for j in range(1, count)
    ]
    edges = []
    for j in range(1, count):
        low, high = {"chain": (j - 1, j - 1), "fan": (0, min(j, fan) - 1), "random": (0, j - 1)}[shape]
        edges.append((draw(st.integers(low, high)), j))
    for _ in range(draw(st.integers(0, 6))):
        parent = draw(st.integers(0, count - 2))
        edges.append((parent, draw(st.integers(parent + 1, count - 1))))
    declared: list[list[int]] = [[] for _ in texts]
    for parent, child in draw(st.permutations(edges)):
        ga = texts[child].rpartition(":")[0]
        if all(texts[other].rpartition(":")[0] != ga for other in declared[parent]):
            declared[parent].append(child)
    longest = [0] * count
    for position in reversed(range(count)):
        longest[position] = max((1 + longest[child] for child in declared[position]), default=0)
    poms = {text: [texts[child] for child in declared[at]] for at, text in enumerate(texts)}
    return poms, longest[0]


@settings(max_examples=200)
@given(deep_wide_repos())
def test_deep_and_wide_trees_match_the_full_expansion_oracle(repo_and_depth):
    poms, max_depth = repo_and_depth
    repo = memory_repo(poms)
    root = fetch_pom(repo, Coordinate("org.gen:root:1.0"))
    tree = resolve(repo, root, max_depth=max_depth).tree
    check_invariants(tree)
    included = {
        str(node.coordinate.ga): (node.coordinate.version, node.path)
        for node in tree.nodes
        if node.included
    }
    assert included == full_expansion_winners(poms, "org.gen:root:1.0", max_depth)
    assert list(tree.nodes) == sorted(tree.nodes, key=lambda node: (node.depth, node.path))


@settings(max_examples=200)
@given(deep_wide_repos())
def test_maven_order_of_deep_and_wide_trees_is_the_preorder_walk(repo_and_depth):
    poms, max_depth = repo_and_depth
    repo = memory_repo(poms)
    tree = resolve(repo, fetch_pom(repo, Coordinate("org.gen:root:1.0")), max_depth).tree
    walked = [node.coordinate for node in reference_dfs_order(tree, include_omitted=False)[1:]]
    assert list(build_classpath(tree, Ecosystem.MAVEN).entries) == walked
    artifact_ids = [coordinate.artifact_id for coordinate in walked]
    assert emit_layout(tree, LayoutMode.FLAT).lines[3:] == tuple(
        f"+-{artifact_id}.class" for artifact_id in artifact_ids
    )
    assert emit_layout(tree, LayoutMode.NESTED).lines[5:] == tuple(
        f"  |  +-{artifact_id}.jar" for artifact_id in artifact_ids
    )


@given(st.randoms(use_true_random=False), st.booleans())
def test_findings_verdicts_and_comparison_match_the_payload_references(rng, root_is_module):
    tree = random_tree(rng, max_depth=4, max_children=3)
    coordinates = build_classpath(tree, Ecosystem.MAVEN).entries
    inventories = random_inventories(rng, max_classes=60, coordinates=coordinates, seal=True)
    class_map = effective_classes(inventories)
    findings = detect_shadowing(class_map, tree)
    verdicts = [
        check_ban_duplicate_classes(class_map, ()),
        check_sealed(inventories, class_map),
        check_modules(inventories, root_is_module),
    ]
    comparison = compare_ecosystems(tree, inventories)
    payload = {"findings": findings, "verdicts": verdicts, "classes": comparison.entries}
    expected = {
        "findings": reference_findings_payload(findings),
        "verdicts": [reference_verdict_payload(verdict) for verdict in verdicts],
        "classes": reference_comparison_payload(comparison),
    }
    assert json_report("mixed", {}, payload) == dumped("mixed", {}, expected)

"""POM parsing and repository loading."""

from __future__ import annotations

import errno
import logging
import os
import re
import shutil
import time
import zipfile
from pathlib import Path
from random import Random

import pytest

from shadowscan import jar
from shadowscan.cli import main
from shadowscan.errors import (
    CoordinateMismatch,
    CorruptArchive,
    DuplicateDeclaration,
    InvalidCoordinate,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    NotAZip,
    PomNotFound,
    ShadowscanError,
)
from shadowscan.jar import inspect_jar
from shadowscan.model import Coordinate
from shadowscan.pom import (
    _PLAIN_TOKEN,
    POM_LIMIT,
    Repository,
    _read_plain,
    _read_tree,
    fetch_pom,
    load_repository,
    parse_pom,
    read_text_file,
)
from shadowscan.resolver import resolve
from tests.helpers import (
    FIXTURE_ROOTS,
    FIXTURES,
    coord,
    make_repo,
    parsed,
    plain_pom,
    reference_parse_pom,
)

POC_COORDINATES = [
    coord(text)
    for text in (
        "org.example:victim:1.0",
        "org.test:nicelibrary:1.2",
        "org.evil:attackerlibrary:1.0",
        "org.evil:fakelibrary:1.0",
    )
]
# expat's refusal of a default namespace bound to the xml or xmlns namespace name
RESERVED_NAMESPACE = "prefix must not be bound to one of the reserved namespace names"

SAMPLE_APP_COORDINATES = [
    coord(f"com.example:{name}:1.0")
    for name in ("Project", "D1", "D11", "D111", "D112", "D2", "D21", "D211", "D22", "D221")
]

SAFE_ORDER_POM = """
<project>
  <groupId>org.example</groupId>
  <artifactId>victim</artifactId>
  <version>1.0</version>
  <dependencies>
    <dependency>
      <groupId>org.test</groupId>
      <artifactId>nicelibrary</artifactId>
      <version>1.2</version>
    </dependency>
    <dependency>
      <groupId>org.evil</groupId>
      <artifactId>attackerlibrary</artifactId>
      <version>1.0</version>
    </dependency>
  </dependencies>
</project>
"""

ATTACK_ORDER_POM = """
<project>
  <groupId>org.example</groupId>
  <artifactId>victim</artifactId>
  <version>1.0</version>
  <dependencies>
    <dependency>
      <groupId>org.evil</groupId>
      <artifactId>attackerlibrary</artifactId>
      <version>1.0</version>
    </dependency>
    <dependency>
      <groupId>org.test</groupId>
      <artifactId>nicelibrary</artifactId>
      <version>1.2</version>
    </dependency>
  </dependencies>
</project>
"""


class TestParsePom:
    def test_declarations_keep_textual_order(self):
        document = parse_pom(SAFE_ORDER_POM)
        assert [str(d) for d in document.dependencies] == [
            "org.test:nicelibrary:1.2",
            "org.evil:attackerlibrary:1.0",
        ]

    def test_swapped_declarations_swap_indices(self):
        document = parse_pom(ATTACK_ORDER_POM)
        assert [str(d) for d in document.dependencies] == [
            "org.evil:attackerlibrary:1.0",
            "org.test:nicelibrary:1.2",
        ]

    def test_no_dependencies_element(self):
        document = parse_pom(
            "<project><groupId>g</groupId><artifactId>a</artifactId>"
            "<version>1</version></project>"
        )
        assert document.dependencies == ()

    def test_not_well_formed(self):
        with pytest.raises(MalformedXml):
            parse_pom("<project><groupId>g</groupId>")

    def test_wrong_root_element(self):
        with pytest.raises(MalformedXml):
            parse_pom("<pom><groupId>g</groupId></pom>")

    @pytest.mark.parametrize("missing", ["groupId", "artifactId", "version"])
    def test_missing_project_coordinate(self, missing):
        elements = {
            "groupId": "<groupId>g</groupId>",
            "artifactId": "<artifactId>a</artifactId>",
            "version": "<version>1</version>",
        }
        elements[missing] = ""
        with pytest.raises(MissingCoordinate):
            parse_pom(f"<project>{''.join(elements.values())}</project>")

    def test_empty_dependency_version(self):
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>  </version></dependency></dependencies></project>"
        )
        with pytest.raises(MissingCoordinate):
            parse_pom(text)

    def test_duplicate_group_artifact(self):
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies>"
            "<dependency><groupId>x</groupId><artifactId>y</artifactId><version>1</version></dependency>"
            "<dependency><groupId>x</groupId><artifactId>y</artifactId><version>2</version></dependency>"
            "</dependencies></project>"
        )
        with pytest.raises(DuplicateDeclaration, match="^x:y declared more than once$"):
            parse_pom(text)

    def test_a_later_missing_coordinate_wins_over_a_duplicate(self):
        # every dependency is read before the duplicate check runs
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies>"
            "<dependency><groupId>x</groupId><artifactId>y</artifactId><version>1</version></dependency>"
            "<dependency><groupId>x</groupId><artifactId>y</artifactId><version>2</version></dependency>"
            "<dependency><groupId>x</groupId><artifactId>z</artifactId></dependency>"
            "</dependencies></project>"
        )
        with pytest.raises(MissingCoordinate, match="dependency #2 of g:a:1"):
            parse_pom(text)

    def test_namespaced_elements_match_by_local_name(self):
        text = (
            '<project xmlns="http://maven.apache.org/POM/4.0.0">'
            "<groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>1</version></dependency></dependencies></project>"
        )
        document = parse_pom(text)
        assert str(document.dependencies[0]) == "x:y:1"

    @pytest.mark.parametrize("comment", ["", "<!-- c -->"], ids=["plain", "commented"])
    @pytest.mark.parametrize(("uri", "error"), [
        ("urn:a}b", "syntax error"),
        ("http://www.w3.org/XML/1998/namespace", RESERVED_NAMESPACE),
        ("http://www.w3.org/2000/xmlns/", RESERVED_NAMESPACE),
    ], ids=["close-brace", "xml-namespace", "xmlns-namespace"])
    def test_a_close_brace_in_a_namespace_uri_is_refused_as_malformed(
        self, tmp_path, capsys, uri, error, comment,
    ):
        # XML allows "}" in a namespace URI, but ElementTree's expat parser
        # separates URI and local name with it and refuses the document, as it
        # refuses a default namespace bound to a reserved URI. The plain reader
        # declines all three, so the POM is refused alike with or without a
        # comment (which only ElementTree reads). This pins that input error
        # (exit 1, one line, no traceback) until it is mended
        text = (
            f'<project xmlns="{uri}"><groupId>g</groupId><artifactId>a</artifactId>'
            f"<version>1</version>{comment}</project>"
        )
        with pytest.raises(MalformedXml):
            parse_pom(text)
        make_repo(tmp_path, {"g:a:1": []})
        pom = tmp_path / "g" / "a" / "1" / "pom.xml"
        pom.write_text(text, encoding="utf-8")
        code = main(["resolve", "--repo", str(tmp_path), "--root", "g:a:1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"error: {pom} (g:a:1): not well-formed XML: {error}: line 1, column 0\n"

    def test_unknown_elements_ignored_silently(self, caplog):
        text = (
            "<project><modelVersion>4.0.0</modelVersion><groupId>g</groupId>"
            "<artifactId>a</artifactId><version>1</version><name>whatever</name></project>"
        )
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            parse_pom(text)
        assert not caplog.records

    def test_ignored_sections_warn(self, caplog):
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<properties><x>1</x></properties><profiles/><dependencyManagement/>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>1</version><exclusions/></dependency></dependencies></project>"
        )
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            parse_pom(text)
        messages = " ".join(record.getMessage() for record in caplog.records)
        for name in ("properties", "profiles", "dependencyManagement", "exclusions"):
            assert name in messages

    def test_property_placeholder_kept_opaque_with_warning(self, caplog):
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>${db.version}</version></dependency></dependencies></project>"
        )
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            document = parse_pom(text)
        assert document.dependencies[0].version == "${db.version}"
        assert any("${db.version}" in record.getMessage() for record in caplog.records)

    def test_coordinate_grammar_still_applies(self):
        text = (
            "<project><groupId>g</groupId><artifactId>a</artifactId>"
            "<version>1 beta</version></project>"
        )
        with pytest.raises(InvalidCoordinate):
            parse_pom(text)

    def test_parse_is_deterministic(self):
        assert parse_pom(SAFE_ORDER_POM) == parse_pom(SAFE_ORDER_POM)


# POMs of hostile size that the plain reader must decline after reading them
# whole: each is built at about ``size`` characters
PROJECT = (
    '<project xmlns="http://maven.apache.org/POM/4.0.0">'
    "<groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
)


def dependencies_section(size: int) -> str:
    """An unclosed dependencies section of about ``size`` characters."""
    return "<dependencies>" + "".join(
        f"<dependency><groupId>g</groupId><artifactId>a{i}</artifactId><version>1</version>"
        "</dependency>\n" for i in range(size // 95)
    )


def repeated_dependencies(size: int, end: str) -> str:
    """About ``size`` characters of a section of dependencies that each end with ``end``."""
    return "<dependencies>" + "".join(
        f"<dependency><groupId>g</groupId><artifactId>a{i}</artifactId><version>1</version>{end}\n"
        for i in range(size // (84 + len(end)))
    )


HOSTILE_SHAPES = {
    "many leaves, then a bad end tag":
        lambda size: PROJECT + "<name>x</name>\n" * (size // 15) + "<name>x</nam></project>",
    "a whitespace run, then junk": lambda size: PROJECT + " " * size + "junk</project>",
    "many dependencies, then truncation": lambda size: PROJECT + dependencies_section(size),
    "many dependencies in an unclosed section":
        lambda size: PROJECT + dependencies_section(size) + "</project>",
    "an unclosed dependency": lambda size: PROJECT + "<dependencies><dependency>"
        + "<groupId>g</groupId>\n" * (size // 21) + "</project>",
    "deep nesting": lambda size: PROJECT + "<nested-element-name>" * (size // 21),
    "alternating whitespace": lambda size: PROJECT + " \t" * (size // 2) + "\n<",
    # aimed at the conventional dependency token: each attempt reads three leaves, then fails
    "conventional dependencies that never close":
        lambda size: PROJECT + repeated_dependencies(size, "") + "</dependencies></project>",
    "near-miss dependencies, a non-space in the last gap":
        lambda size: PROJECT + repeated_dependencies(size, "x</dependency>") + "</dependencies></project>",
}


def outcome(text: str, parse) -> object:
    try:
        return parse(text)
    except ShadowscanError as exc:
        return type(exc), str(exc)


def decline_seconds(text: str) -> float:
    """The least of five CPU times that the plain reader takes to decline the text.

    The thread's own CPU time leaves out the time other processes hold the
    CPU, which on a busy machine made wall-clock ratios swing past 30.
    """
    times = []
    for _ in range(5):
        start = time.thread_time()
        assert _read_plain(text) is None
        times.append(time.thread_time() - start)
    return min(times)


class TestPlainReader:
    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_a_hostile_pom_is_declined_in_linear_time_and_read_as_elementtree_reads_it(
        self, shape,
    ):
        texts = [HOSTILE_SHAPES[shape](size) for size in (2**19, 2**22)]
        for text in texts:
            assert outcome(text, parse_pom) == outcome(text, reference_parse_pom)
        small, large = map(decline_seconds, texts)
        assert large <= 16 * small

    def test_seeded_plain_shaped_poms_read_as_elementtree_and_the_per_name_walk_read_them(self):
        # Hypothesis draws the same shapes in test_equivalence.py; these seeds
        # hold the gate where it is not installed
        for seed in range(3000):
            text = plain_pom(Random(seed))
            plain = _read_plain(text)
            if plain is not None:
                assert plain == _read_tree(text), seed
            assert parsed(parse_pom, text) == parsed(reference_parse_pom, text), seed

    def test_most_seeded_plain_shaped_poms_take_the_plain_reader_and_its_one_token_dependency(self):
        texts = [plain_pom(Random(seed)) for seed in range(500)]
        accepted = [text for text in texts if _read_plain(text) is not None]
        assert len(accepted) >= 200
        tokens = [[token for token in _PLAIN_TOKEN.finditer(text) if token[1] is not None]
                  for text in accepted]
        assert sum(map(bool, tokens)) >= 150

    def test_every_fixture_pom_with_dependencies_reads_them_in_one_token_each(self):
        for path in FIXTURES.rglob("pom.xml"):
            text = path.read_text(encoding="utf-8")
            dependencies = _read_plain(text)[3]
            tokens = [token for token in _PLAIN_TOKEN.finditer(text) if token[1] is not None]
            assert len(tokens) == len(dependencies) == text.count("<dependency>"), path

    @pytest.mark.parametrize("command", [["resolve"], ["scan"], ["check", "--root-module"]])
    def test_a_scope_leaf_in_every_dependency_keeps_the_reports(
        self, tmp_path, monkeypatch, capsys, command,
    ):
        # the fixture's dependencies are all conventional; with a scope leaf each is
        # read leaf by leaf, and the reports must not tell the two readings apart
        scoped = tmp_path / "cwa-server"
        shutil.copytree(FIXTURES / "cwa-server", scoped)
        for path in scoped.rglob("pom.xml"):
            text, count = re.subn(
                "<dependency>", "<dependency><scope>compile</scope>", path.read_text(encoding="utf-8"),
            )
            path.write_text(text, encoding="utf-8")
            assert not any(token[1] is not None for token in _PLAIN_TOKEN.finditer(text))
            assert len(_read_plain(text)[3]) == count
        argv = [*command, "--repo", "cwa-server", "--root", FIXTURE_ROOTS["cwa-server"],
                "--format", "json"]
        reports = []
        for directory in (FIXTURES, tmp_path):
            monkeypatch.chdir(directory)
            reports.append((main(argv), capsys.readouterr()))
        assert reports[0] == reports[1]
        assert reports[0][1].out and not reports[0][1].err

    def test_a_lone_surrogate_is_left_to_elementtree(self):
        text = "<project><groupId>\ud800</groupId></project>"
        assert _read_plain(text) is None
        with pytest.raises(UnicodeEncodeError):
            parse_pom(text)


class TestLoadRepository:
    def test_counts_fixture_poms(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        assert len(repo.entries) == 0
        for coordinate in POC_COORDINATES:
            assert repo.lookup(coordinate).coordinate == coordinate
        assert set(repo.entries) == set(POC_COORDINATES)

    def test_empty_directory(self, tmp_path):
        repo = load_repository(tmp_path)
        assert len(repo.entries) == 0

    def test_missing_root(self, tmp_path):
        with pytest.raises(IoFailure):
            load_repository(tmp_path / "nope")

    def test_coordinate_mismatch(self, tmp_path):
        make_repo(tmp_path, {"org.test:nicelibrary:1.2": []})
        pom = tmp_path / "org.test" / "nicelibrary" / "1.2" / "pom.xml"
        pom.write_text(pom.read_text().replace("1.2", "1.3"), encoding="utf-8")
        repo = load_repository(tmp_path)
        with pytest.raises(CoordinateMismatch):
            fetch_pom(repo, coord("org.test:nicelibrary:1.2"))

    def test_undecodable_pom_fails_at_first_fetch(self, tmp_path):
        make_repo(tmp_path, {"g:a:1": []})
        (tmp_path / "g" / "a" / "1" / "pom.xml").write_bytes(b"<project>\xff</project>")
        repo = load_repository(tmp_path)
        with pytest.raises(IoFailure):
            fetch_pom(repo, coord("g:a:1"))

    def test_content_sources_indexed(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        nice = repo.lookup(coord("org.test:nicelibrary:1.2"))
        assert nice.content_path is not None and nice.content_path.name == "classes.txt"
        victim = repo.lookup(coord("org.example:victim:1.0"))
        assert victim.content_path is None

    def test_a_failed_jar_lookup_ends_the_scan_without_reading_the_class_list(
        self, tmp_path, monkeypatch, capsys
    ):
        # the suite may run as root, where a chmod cannot provoke EACCES
        make_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": []}, {"g:a:1": ["g.a.Main"]})
        jar = f"{tmp_path}/g/a/1/artifact.jar"
        real_lstat = os.lstat

        def failing_lstat(path, *args, **kwargs):
            if path == jar:
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return real_lstat(path, *args, **kwargs)

        monkeypatch.setattr(os, "lstat", failing_lstat)
        assert main(["scan", "--repo", str(tmp_path), "--root", "g:root:1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot read {jar}: [Errno 13] Permission denied: '{jar}'\n"

    def test_reparsing_fixture_documents_is_stable(self):
        first = load_repository(FIXTURES / "sample-app")
        second = load_repository(FIXTURES / "sample-app")
        for coordinate in SAMPLE_APP_COORDINATES:
            assert fetch_pom(first, coordinate) == fetch_pom(second, coordinate)
        assert first.entries.keys() == second.entries.keys() == set(SAMPLE_APP_COORDINATES)


class TestFetchPom:
    def test_fetch_existing(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        document = fetch_pom(repo, coord("org.test:nicelibrary:1.2"))
        assert document.coordinate == coord("org.test:nicelibrary:1.2")

    def test_fetch_absent_version(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        with pytest.raises(PomNotFound):
            fetch_pom(repo, coord("org.test:nicelibrary:9.9"))

    def test_attacker_library_declares_its_carrier(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        document = fetch_pom(repo, coord("org.evil:attackerlibrary:1.0"))
        assert [str(d) for d in document.dependencies] == ["org.evil:fakelibrary:1.0"]

    def test_fetch_succeeds_exactly_for_indexed_layout(self, tmp_path):
        make_repo(tmp_path, {"g:a:1": [], "g:b:2": []})
        repo = load_repository(tmp_path)
        assert fetch_pom(repo, coord("g:a:1")).coordinate == coord("g:a:1")
        assert fetch_pom(repo, coord("g:b:2")).coordinate == coord("g:b:2")
        with pytest.raises(PomNotFound):
            fetch_pom(repo, coord("g:c:1"))

    @pytest.mark.parametrize("root", [".", "/", "//", "/srv/repo", "repo", "repo/sub", "../up"])
    def test_the_path_is_spelled_as_pathlib_joins_it(self, monkeypatch, root):
        checked = []
        monkeypatch.setattr(os, "stat", lambda path: checked.append(path))
        entry = Repository(Path(root), {}).lookup(coord("org.g:art-1:1.0"))
        assert entry.pom_path == checked[0] == str(Path(root, "org.g", "art-1", "1.0", "pom.xml"))

    def test_a_token_holding_nul_is_not_found(self, tmp_path):
        make_repo(tmp_path, {"g:a:1": []})
        repo = load_repository(tmp_path)
        for coordinate in (
            Coordinate.of("g\0", "a", "1"),
            Coordinate.of("g", "a\0", "1"),
            Coordinate.of("g", "a", "1\0"),
        ):
            with pytest.raises(PomNotFound):
                fetch_pom(repo, coordinate)
        assert len(repo.entries) == 0

    def test_a_pom_directory_is_an_entry_that_cannot_be_read(self, tmp_path):
        (tmp_path / "g" / "a" / "1" / "pom.xml").mkdir(parents=True)
        repo = load_repository(tmp_path)
        with pytest.raises(IoFailure):
            fetch_pom(repo, coord("g:a:1"))
        assert list(repo.entries) == [coord("g:a:1")]

    def test_a_failed_existence_check_is_an_io_failure(self, tmp_path, monkeypatch):
        make_repo(tmp_path, {"g:a:1": []})
        repo = load_repository(tmp_path)

        pom = tmp_path / "g" / "a" / "1" / "pom.xml"
        real_stat = os.stat

        def failing_stat(path, *args, **kwargs):
            if path == str(pom):
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", failing_stat)
        with pytest.raises(IoFailure) as excinfo:
            fetch_pom(repo, coord("g:a:1"))
        assert str(excinfo.value) == f"cannot read {pom}: [Errno 13] Permission denied: '{pom}'"

    def test_parses_each_reached_pom_once_and_no_other(self, tmp_path, monkeypatch):
        poms = {
            "g:root:1": ["g:a:1", "g:b:1"],
            "g:a:1": ["g:x:1"],
            "g:b:1": ["g:x:1", "g:y:1"],
            "g:x:1": [],
            "g:y:1": ["g:x:2"],
            "g:x:2": ["g:unreached:1"],
            "g:unreached:1": [],
        }
        repo = load_repository(make_repo(tmp_path, poms))
        parsed = []

        def counting_parse(text, source=""):
            document = parse_pom(text, source)
            parsed.append(str(document.coordinate))
            return document

        monkeypatch.setattr("shadowscan.pom.parse_pom", counting_parse)
        root = fetch_pom(repo, coord("g:root:1"))
        resolve(repo, root)
        assert sorted(parsed) == ["g:a:1", "g:b:1", "g:root:1", "g:x:1", "g:y:1"]
        assert fetch_pom(repo, coord("g:root:1")) is root
        assert fetch_pom(repo, coord("g:x:1")) is fetch_pom(repo, coord("g:x:1"))
        assert len(parsed) == 5


class TestBoundedPomRead:
    """A reached POM is read only if it is a regular file of at most POM_LIMIT bytes."""

    def test_a_pom_one_byte_over_the_cap_is_refused(self, tmp_path):
        pom = tmp_path / "g" / "a" / "1" / "pom.xml"
        pom.parent.mkdir(parents=True)
        with pom.open("wb") as file:
            file.truncate(POM_LIMIT + 1)  # sparse: no data blocks are written
        with pytest.raises(IoFailure, match=f"larger than {POM_LIMIT} bytes"):
            fetch_pom(load_repository(tmp_path), coord("g:a:1"))

    def test_a_pom_at_the_cap_is_read(self, tmp_path):
        make_repo(tmp_path, {"g:a:1": []})
        pom = tmp_path / "g" / "a" / "1" / "pom.xml"
        with pom.open("ab") as file:
            file.write(b" " * (POM_LIMIT - pom.stat().st_size))
        assert fetch_pom(load_repository(tmp_path), coord("g:a:1")).coordinate == coord("g:a:1")

    def test_a_pom_linked_to_a_device_is_refused(self, tmp_path):
        pom = tmp_path / "g" / "a" / "1" / "pom.xml"
        pom.parent.mkdir(parents=True)
        pom.symlink_to(os.devnull)
        with pytest.raises(IoFailure, match="not a regular file"):
            fetch_pom(load_repository(tmp_path), coord("g:a:1"))

    def test_a_file_larger_than_fstat_reports_is_read_to_the_cap(self, tmp_path, monkeypatch):
        # procfs files report size 0 and still hold text
        path = tmp_path / "pom.xml"
        path.write_text("0123456789", encoding="utf-8")
        real_fstat = os.fstat

        def sizeless_fstat(fd):
            info = real_fstat(fd)
            return os.stat_result((*info[:6], 0, *info[7:10]))

        monkeypatch.setattr(os, "fstat", sizeless_fstat)
        assert read_text_file(path, 10) == "0123456789"
        with pytest.raises(IoFailure, match="larger than 9 bytes"):
            read_text_file(path, 9)


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestNoDescriptorLeak:
    """Every refusal of a read closes the descriptor it opened."""

    @staticmethod
    def refuses(read, path, error, match):
        before = open_descriptors()
        with pytest.raises(error, match=match):
            read(path)
        assert open_descriptors() == before

    @pytest.fixture
    def fifo(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        return path

    @staticmethod
    def read_text(path):
        return read_text_file(path, 16)

    @staticmethod
    def read_jar(path):
        return inspect_jar(path, coord("g:a:1"))

    def test_text_of_a_directory(self, tmp_path):
        self.refuses(self.read_text, tmp_path, IoFailure, "not a regular file")

    def test_text_of_a_fifo(self, fifo):
        self.refuses(self.read_text, fifo, IoFailure, "not a regular file")

    def test_text_over_the_cap(self, tmp_path):
        path = tmp_path / "pom.xml"
        path.write_bytes(b"x" * 17)
        self.refuses(self.read_text, path, IoFailure, "larger than 16 bytes")

    def test_undecodable_text(self, tmp_path):
        path = tmp_path / "pom.xml"
        path.write_bytes(b"\xef\xbb\xbfok\xff")
        self.refuses(self.read_text, path, IoFailure, "can't decode byte 0xff in position 2")

    def test_text_whose_read_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "pom.xml"
        path.write_bytes(b"<project/>")

        def failing_read(fd, size):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "read", failing_read)
        self.refuses(self.read_text, path, IoFailure, "Input/output error")

    def test_archive_that_is_a_directory(self, tmp_path):
        self.refuses(self.read_jar, tmp_path, IoFailure, "not a regular file")

    def test_archive_that_is_a_fifo(self, fifo):
        self.refuses(self.read_jar, fifo, IoFailure, "not a regular file")

    def test_archive_that_is_not_a_zip(self, tmp_path):
        path = tmp_path / "artifact.jar"
        path.write_bytes(b"not an archive")
        self.refuses(self.read_jar, path, NotAZip, "is not a ZIP archive")

    def test_archive_whose_manifest_inflates_past_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jar, "_MANIFEST_LIMIT", 16)
        path = tmp_path / "artifact.jar"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("META-INF/MANIFEST.MF", "Manifest-Version: 1.0\n")
        self.refuses(self.read_jar, path, CorruptArchive, "inflates past 16 bytes")

    def test_archive_with_an_undecodable_entry_name(self, tmp_path):
        path = tmp_path / "artifact.jar"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("A\u00e9.class", b"")  # a non-ASCII name sets the UTF-8 flag
        path.write_bytes(path.read_bytes().replace("A\u00e9".encode(), b"A\xff\xff"))
        self.refuses(self.read_jar, path, CorruptArchive, "can't decode byte 0xff")

    def test_archive_whose_fstat_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.jar"
        path.write_bytes(b"")

        def failing_fstat(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fstat", failing_fstat)
        self.refuses(self.read_jar, path, IoFailure, "Input/output error")


class TestParseWarnings:
    def test_every_warning_of_a_read_pom_names_its_path_and_coordinate(self, tmp_path, caplog):
        version = "${revision}"
        pom = tmp_path / "g" / "a" / version / "pom.xml"
        pom.parent.mkdir(parents=True)
        pom.write_text(
            f"<project><groupId>g</groupId><artifactId>a</artifactId><version>{version}</version>"
            "<properties/><dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>${y.version}</version><exclusions/></dependency></dependencies></project>",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            fetch_pom(load_repository(tmp_path), Coordinate.of("g", "a", version))
        source = f"{pom} (g:a:{version}): "
        assert [record.getMessage() for record in caplog.records] == [
            source + "project: property placeholder '${revision}' is not interpolated",
            source + "project g:a:${revision}: ignoring <properties>",
            source + "dependency #0 of g:a:${revision}: "
            "property placeholder '${y.version}' is not interpolated",
            source + "dependency x:y:${y.version}: ignoring <exclusions>",
        ]

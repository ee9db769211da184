"""POM parsing and repository loading."""

from __future__ import annotations

import logging

import pytest

from shadowscan.errors import (
    CoordinateMismatch,
    DuplicateDeclaration,
    InvalidCoordinate,
    IoFailure,
    MalformedXml,
    MissingCoordinate,
    PomNotFound,
)
from shadowscan.pom import fetch_pom, load_repository, parse_pom
from shadowscan.resolver import resolve
from tests.helpers import FIXTURES, coord, make_repo

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
        assert [str(d.coordinate) for d in document.dependencies] == [
            "org.test:nicelibrary:1.2",
            "org.evil:attackerlibrary:1.0",
        ]
        assert [d.declaration_index for d in document.dependencies] == [0, 1]

    def test_swapped_declarations_swap_indices(self):
        document = parse_pom(ATTACK_ORDER_POM)
        assert [str(d.coordinate) for d in document.dependencies] == [
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
        with pytest.raises(DuplicateDeclaration):
            parse_pom(text)

    def test_namespaced_elements_match_by_local_name(self):
        text = (
            '<project xmlns="http://maven.apache.org/POM/4.0.0">'
            "<groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
            "<version>1</version></dependency></dependencies></project>"
        )
        document = parse_pom(text)
        assert str(document.dependencies[0].coordinate) == "x:y:1"

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
        assert document.dependencies[0].coordinate.version == "${db.version}"
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


class TestLoadRepository:
    def test_counts_fixture_poms(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        assert len(repo.entries) == 4

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
        nice = repo.entries[coord("org.test:nicelibrary:1.2")]
        assert nice.content_path is not None and nice.content_path.name == "classes.txt"
        victim = repo.entries[coord("org.example:victim:1.0")]
        assert victim.content_path is None

    def test_reparsing_fixture_documents_is_stable(self):
        first = load_repository(FIXTURES / "sample-app")
        second = load_repository(FIXTURES / "sample-app")
        assert first.entries.keys() == second.entries.keys()
        for key, entry in first.entries.items():
            assert entry.document == second.entries[key].document


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
        assert [str(d.coordinate) for d in document.dependencies] == ["org.evil:fakelibrary:1.0"]

    def test_fetch_succeeds_exactly_for_indexed_layout(self, tmp_path):
        make_repo(tmp_path, {"g:a:1": [], "g:b:2": []})
        repo = load_repository(tmp_path)
        assert fetch_pom(repo, coord("g:a:1")).coordinate == coord("g:a:1")
        assert fetch_pom(repo, coord("g:b:2")).coordinate == coord("g:b:2")
        with pytest.raises(PomNotFound):
            fetch_pom(repo, coord("g:c:1"))

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

        def counting_parse(text):
            document = parse_pom(text)
            parsed.append(str(document.coordinate))
            return document

        monkeypatch.setattr("shadowscan.pom.parse_pom", counting_parse)
        root = fetch_pom(repo, coord("g:root:1"))
        resolve(repo, root)
        assert sorted(parsed) == ["g:a:1", "g:b:1", "g:root:1", "g:x:1", "g:y:1"]
        assert fetch_pom(repo, coord("g:root:1")) is root
        assert fetch_pom(repo, coord("g:x:1")) is fetch_pom(repo, coord("g:x:1"))
        assert len(parsed) == 5

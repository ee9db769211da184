"""JAR and class-list inspection."""

from __future__ import annotations

import errno
import os
import re
import zipfile
from random import Random
from unittest import mock

import pytest

from shadowscan.errors import (
    CorruptArchive,
    DuplicateClassName,
    InvalidClassName,
    InvalidEntryName,
    IoFailure,
    MissingContent,
    NotAZip,
)
from shadowscan import inventory as inventory_module
from shadowscan.inventory import ClassInventory, inspect_classlist, inventory_all
from shadowscan.jar import _MANIFEST_LIMIT, inspect_jar
from shadowscan.model import package_of
from shadowscan.ordering import Ecosystem, build_classpath
from shadowscan.pom import CLASSLIST_LIMIT, fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import FIXTURES, coord, make_repo, read_or_error, reference_inspect_classlist
from tests.test_readme import fenced_blocks

COORD = coord("org.test:sample:1.0")


def make_jar(path, entries=(), manifest=None):
    with zipfile.ZipFile(path, "w") as archive:
        if manifest is not None:
            archive.writestr("META-INF/MANIFEST.MF", manifest)
        for name in entries:
            archive.writestr(name, b"")
    return path


class TestInspectJar:
    def test_class_entry_maps_to_dotted_name(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org/test/NiceClass.class"])
        inventory = inspect_jar(jar, COORD)
        assert inventory.classes == ("org.test.NiceClass",)
        assert inventory.sealed_packages == frozenset()

    def test_non_class_entries_ignored(self, tmp_path):
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/test/A.class", "org/test/data.properties", "readme.txt", "org/test/"],
        )
        assert [str(c) for c in inspect_jar(jar, COORD).classes] == ["org.test.A"]

    def test_meta_inf_entries_excluded(self, tmp_path):
        jar = make_jar(
            tmp_path / "a.jar",
            ["META-INF/x/Generated.class", "META-INF/versions/9/org/test/A.class", "org/test/A.class"],
        )
        assert [str(c) for c in inspect_jar(jar, COORD).classes] == ["org.test.A"]

    def test_module_descriptor_detected_and_excluded(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["module-info.class", "org/test/A.class"])
        assert inspect_jar(jar, COORD).classes == ("org.test.A",)

    def test_nested_module_descriptor_is_not_a_module_marker(self, tmp_path):
        # a descriptor below the top level is not a class either
        jar = make_jar(tmp_path / "a.jar", ["org/test/module-info.class", "org/test/A.class"])
        assert inspect_jar(jar, COORD).classes == ("org.test.A",)

    def test_inner_classes_kept_verbatim(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org/test/Outer$Inner.class"])
        assert [str(c) for c in inspect_jar(jar, COORD).classes] == ["org.test.Outer$Inner"]

    def test_repeated_entries_deduplicated(self, tmp_path):
        jar = tmp_path / "a.jar"
        with zipfile.ZipFile(jar, "w") as archive:
            archive.writestr("org/test/A.class", b"")
            with pytest.warns(UserWarning, match="Duplicate name"):
                archive.writestr("org/test/A.class", b"")
        assert [str(c) for c in inspect_jar(jar, COORD).classes] == ["org.test.A"]

    def test_bad_entry_path(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org//Bad.class"])
        with pytest.raises(InvalidEntryName):
            inspect_jar(jar, COORD)

    def test_a_bad_entry_name_names_the_archive(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["a b/C.class"])
        with pytest.raises(InvalidEntryName) as excinfo:
            inspect_jar(jar, COORD)
        assert str(excinfo.value) == f"{jar}: entry 'a b/C.class' is not convertible to a class name"

    def test_not_a_zip(self, tmp_path):
        bogus = tmp_path / "a.jar"
        bogus.write_bytes(b"definitely not an archive")
        with pytest.raises(NotAZip):
            inspect_jar(bogus, COORD)

    def test_unreadable_archive_is_an_io_failure(self, tmp_path, monkeypatch):
        # file modes do not stop root, so the refusal to open is simulated
        jar = make_jar(tmp_path / "artifact.jar", ["org/test/A.class"])
        real_open = os.open

        def refusing_open(file, *args, **kwargs):
            if file == jar or file == str(jar):
                raise PermissionError(errno.EACCES, "Permission denied", str(jar))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing_open)
        with pytest.raises(IoFailure, match=f"cannot read {jar}: .*Permission denied"):
            inspect_jar(jar, COORD)

    def test_corrupt_entry_data(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org/test/A.class"], manifest="Sealed: true\n")
        raw = jar.read_bytes()
        jar.write_bytes(raw.replace(b"Sealed: true", b"Xealed: true", 1))
        with pytest.raises(CorruptArchive):
            inspect_jar(jar, COORD)


class TestManifestSealing:
    def test_main_attribute_seals_every_package(self, tmp_path):
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/nice/ClassA.class", "org/nice/ClassB.class"],
            manifest="Manifest-Version: 1.0\nSealed: true\n",
        )
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_per_entry_sections_seal_single_packages(self, tmp_path):
        manifest = (
            "Manifest-Version: 1.0\n"
            "\n"
            "Name: org/nice/\n"
            "Sealed: true\n"
            "\n"
            "Name: org/other/\n"
            "Sealed: false\n"
        )
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/nice/A.class", "org/other/B.class"],
            manifest=manifest,
        )
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_a_package_section_overrides_the_main_attribute(self, tmp_path):
        manifest = "Manifest-Version: 1.0\nSealed: true\n\nName: org/other/\nSealed: false\n"
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/nice/A.class", "org/other/B.class"],
            manifest=manifest,
        )
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_attribute_names_are_case_insensitive(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org/nice/A.class"], manifest="sealed: true\n")
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_the_unnamed_package_is_never_sealed(self, tmp_path):
        # the JVM checks sealing only for classes whose name holds a "."
        jar = make_jar(
            tmp_path / "a.jar",
            ["Main.class", "org/nice/A.class"],
            manifest="Manifest-Version: 1.0\nSealed: true\n",
        )
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_continuation_lines_unfold(self, tmp_path):
        # a 72-byte wrapped Name value continues on the next line after a space
        manifest = (
            "Manifest-Version: 1.0\n"
            "\n"
            "Name: org/averyveryveryveryverylongpackagesegmentthatkeepsgoing\n"
            " andgoing/\n"
            "Sealed: true\n"
        )
        package = "org.averyveryveryveryverylongpackagesegmentthatkeepsgoingandgoing"
        jar = make_jar(tmp_path / "a.jar", [], manifest=manifest)
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({package})

    def test_manifest_inflating_past_the_limit_is_rejected(self, tmp_path):
        manifest = "Manifest-Version: 1.0\n" + "X" * _MANIFEST_LIMIT
        jar = tmp_path / "a.jar"
        with zipfile.ZipFile(jar, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("META-INF/MANIFEST.MF", manifest)
        assert jar.stat().st_size < _MANIFEST_LIMIT // 100
        with pytest.raises(CorruptArchive, match="inflates past"):
            inspect_jar(jar, COORD)

    def test_manifest_at_the_limit_is_read(self, tmp_path):
        manifest = "Manifest-Version: 1.0\nSealed: true\n"
        manifest += "X" * (_MANIFEST_LIMIT - len(manifest))
        jar = tmp_path / "a.jar"
        with zipfile.ZipFile(jar, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("META-INF/MANIFEST.MF", manifest)
            archive.writestr("org/nice/A.class", b"")
        assert inspect_jar(jar, COORD).sealed_packages == frozenset({"org.nice"})

    def test_unsealed_manifest(self, tmp_path):
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/nice/A.class"],
            manifest="Manifest-Version: 1.0\n",
        )
        assert inspect_jar(jar, COORD).sealed_packages == frozenset()


class TestInspectClasslist:
    def write(self, tmp_path, text):
        path = tmp_path / "classes.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_a_class_list_one_byte_over_the_cap_is_refused(self, tmp_path):
        path = tmp_path / "classes.txt"
        with path.open("wb") as file:
            file.truncate(CLASSLIST_LIMIT + 1)  # sparse: no data blocks are written
        with pytest.raises(IoFailure, match=f"larger than {CLASSLIST_LIMIT} bytes"):
            inspect_classlist(path, COORD)

    def test_single_class(self, tmp_path):
        inventory = inspect_classlist(self.write(tmp_path, "org.test.NiceClass\n"), COORD)
        assert inventory.classes == ("org.test.NiceClass",)

    def test_comments_and_blanks_skipped(self, tmp_path):
        text = "# header\n\norg.test.A\n   \n# trailing\norg.test.B\n"
        inventory = inspect_classlist(self.write(tmp_path, text), COORD)
        assert [str(c) for c in inventory.classes] == ["org.test.A", "org.test.B"]

    def test_sealed_directive(self, tmp_path):
        text = "@sealed org.nice\norg.nice.ClassA\norg.nice.ClassB\n"
        inventory = inspect_classlist(self.write(tmp_path, text), COORD)
        assert inventory.sealed_packages == frozenset({"org.nice"})

    def test_module_directive(self, tmp_path):
        # accepted and validated, but it adds nothing to the inventory
        inventory = inspect_classlist(
            self.write(tmp_path, "@module org.test.sample\norg.test.A\n"), COORD
        )
        assert inventory == ClassInventory(COORD, ("org.test.A",))

    def test_invalid_module_name_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "org.test.A\n@module org/bad\n")
        with pytest.raises(InvalidClassName, match=f"^{re.escape(str(path))}:2: .*'org/bad'"):
            inspect_classlist(path, COORD)

    def test_duplicate_class(self, tmp_path):
        with pytest.raises(DuplicateClassName):
            inspect_classlist(self.write(tmp_path, "org.test.A\norg.test.A\n"), COORD)

    def test_invalid_class_name(self, tmp_path):
        with pytest.raises(InvalidClassName):
            inspect_classlist(self.write(tmp_path, "org..Broken\n"), COORD)

    def test_unknown_directive(self, tmp_path):
        with pytest.raises(InvalidClassName):
            inspect_classlist(self.write(tmp_path, "@provides org.test.A\n"), COORD)

    def test_directive_without_argument(self, tmp_path):
        with pytest.raises(InvalidClassName):
            inspect_classlist(self.write(tmp_path, "@sealed\n"), COORD)


def per_line_reads(path) -> int:
    """How often ``inspect_classlist`` runs its per-line loop on ``path``.

    Once, on the header alone, when the body is read in bulk; a second time,
    on the whole list, when it falls back.
    """
    with mock.patch.object(
        inventory_module, "_read_lines", wraps=inventory_module._read_lines
    ) as read_lines:
        read_or_error(inspect_classlist, path)
    return read_lines.call_count


class TestBulkRead:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("# h\n org.a.A\n", id="padded line"),
            pytest.param("org.a.A \n", id="trailing space"),
            pytest.param("org.a.A\t\n", id="tab"),
            pytest.param("org.a.A\r\norg.a.B\r\n", id="CRLF"),
            pytest.param("org.a.A\rorg.a.B\n", id="CR"),
            pytest.param("org.a.A\x0borg.a.B\n", id="vertical tab"),
            pytest.param("org.a.A\x0corg.a.B\n", id="form feed"),
            pytest.param("org.a.A\x1corg.a.B\n", id="file separator"),
            pytest.param("org.a.A\x1f\n", id="unit separator"),
            pytest.param("org.a.A\x85org.a.B\n", id="NEL"),
            pytest.param("org/a/A\n", id="slash"),
            pytest.param("org..A\n", id="empty segment"),
            pytest.param(".org.A\n", id="leading dot"),
            pytest.param("org.a.A\n.org.B\n", id="leading dot after a line"),
            pytest.param("org.A.\n", id="trailing dot"),
            pytest.param("org.a.A\n.\n", id="dot line"),
            pytest.param("# h\n\norg.a.A\n", id="blank first body line"),
            pytest.param("org.a.A\n\norg.a.B\n", id="blank line"),
            pytest.param("org.a.A\n# c\norg.a.B\n", id="comment in the body"),
            pytest.param("org.a.A\n@sealed org.a\n", id="directive in the body"),
            pytest.param("org.a.A\norg.a.B\norg.a.A\n", id="repeated name"),
            pytest.param("# c\x85org.a.A\norg.a.B\n", id="class line in the header"),
            pytest.param("# c\rorg.a.A\norg.a.A\n", id="header class repeated in the body"),
            pytest.param("org.a.É\n", id="non-ASCII name"),
            pytest.param("org.a.A\n\ufefforg.a.B\n", id="BOM inside"),
            pytest.param("org.a.A\norg.a.B", id="no final newline"),
            pytest.param("@sealed org.a\n", id="empty body"),
            pytest.param("@sealed org.a", id="header without final newline"),
            pytest.param("", id="empty file"),
        ],
    )
    def test_each_trigger_falls_back_to_the_per_line_reference(self, tmp_path, text):
        path = tmp_path / "classes.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert per_line_reads(path) == 2
        expected = read_or_error(reference_inspect_classlist, path)
        assert read_or_error(inspect_classlist, path) == expected

    def test_a_header_error_is_raised_before_the_body_is_looked_at(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("# h\n@sealed org/a\norg.a.A\n", encoding="utf-8")
        with pytest.raises(InvalidClassName, match=f"^{re.escape(str(path))}:2: "):
            inspect_classlist(path, COORD)
        assert per_line_reads(path) == 1

    @pytest.mark.parametrize(
        "path", sorted(FIXTURES.rglob("classes.txt")), ids=lambda path: str(path.relative_to(FIXTURES))
    )
    def test_every_fixture_list_is_read_in_bulk(self, path):
        assert per_line_reads(path) == 1
        assert inspect_classlist(path, COORD) == reference_inspect_classlist(path, COORD)

    def test_the_readme_example_and_a_leading_bom_are_read_in_bulk(self, tmp_path):
        (listing,) = [body for _, body in fenced_blocks("Repository layout") if "@module" in body]
        path = tmp_path / "classes.txt"
        for text in (listing, "\ufeff" + listing):
            path.write_text(text, encoding="utf-8")
            assert per_line_reads(path) == 1
            assert inspect_classlist(path, COORD) == reference_inspect_classlist(path, COORD)


def classlist_text(inventory: ClassInventory, module: str | None = None) -> str:
    """The class-list text of an inventory, with an optional ``@module`` line."""
    lines = [f"@module {module}"] if module else []
    lines.extend(f"@sealed {package}" for package in sorted(inventory.sealed_packages))
    lines.extend(inventory.classes)
    return "".join(line + "\n" for line in lines)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_render_then_reinspect_is_identity(self, seed, tmp_path):
        rng = Random(seed)
        classes = [
            f"org.p{rng.randint(0, 3)}.Class{i}" for i in range(rng.randint(1, 12))
        ]
        rng.shuffle(classes)
        inventory = ClassInventory(
            COORD,
            tuple(classes),
            sealed_packages=frozenset(
                map(package_of, rng.sample(classes, k=rng.randint(0, len(classes))))
            ),
        )
        module = "org.test.mod" if rng.getrandbits(1) else None
        path = tmp_path / "round.txt"
        path.write_text(classlist_text(inventory, module), encoding="utf-8")
        assert inspect_classlist(path, COORD) == inventory

    def test_jar_and_classlist_fixtures_agree(self, tmp_path):
        jar = make_jar(
            tmp_path / "a.jar",
            ["org/nice/ClassA.class", "org/nice/ClassB.class"],
            manifest="Manifest-Version: 1.0\nSealed: true\n",
        )
        listing = tmp_path / "classes.txt"
        listing.write_text("@sealed org.nice\norg.nice.ClassA\norg.nice.ClassB\n", encoding="utf-8")
        assert inspect_jar(jar, COORD) == inspect_classlist(listing, COORD)


class TestInventoryAll:
    def test_fixture_inventories_in_classpath_order(self):
        repo = load_repository(FIXTURES / "poc-attack-order")
        tree = resolve(repo, fetch_pom(repo, coord("org.example:victim:1.0"))).tree
        inventories = inventory_all(repo, build_classpath(tree, Ecosystem.MAVEN))
        assert [entry.coordinate.artifact_id for entry in inventories] == [
            "attackerlibrary", "fakelibrary", "nicelibrary",
        ]

    def test_empty_classpath(self, tmp_path):
        repo = load_repository(make_repo(tmp_path, {"g:root:1": []}))
        tree = resolve(repo, fetch_pom(repo, coord("g:root:1"))).tree
        assert inventory_all(repo, build_classpath(tree, Ecosystem.MAVEN)) == []

    def test_missing_content(self, tmp_path):
        repo = load_repository(make_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": []}))
        tree = resolve(repo, fetch_pom(repo, coord("g:root:1"))).tree
        with pytest.raises(MissingContent):
            inventory_all(repo, build_classpath(tree, Ecosystem.MAVEN))

    def test_jar_preferred_over_classlist(self, tmp_path):
        make_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": []}, {"g:a:1": ["org.text.Only"]})
        version_dir = tmp_path / "g" / "a" / "1"
        make_jar(version_dir / "artifact.jar", ["org/jar/Only.class"])
        repo = load_repository(tmp_path)
        tree = resolve(repo, fetch_pom(repo, coord("g:root:1"))).tree
        inventories = inventory_all(repo, build_classpath(tree, Ecosystem.MAVEN))
        assert [str(c) for c in inventories[0].classes] == ["org.jar.Only"]

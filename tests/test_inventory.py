"""JAR and class-list inspection."""

from __future__ import annotations

import zipfile
from random import Random

import pytest

from shadowscan.errors import (
    CorruptArchive,
    DuplicateClassName,
    InvalidClassName,
    InvalidEntryName,
    MissingContent,
    NotAZip,
)
from shadowscan.inventory import (
    _MANIFEST_LIMIT,
    ClassInventory,
    inspect_classlist,
    inspect_jar,
    inventory_all,
    render_classlist,
)
from shadowscan.model import FullyQualifiedClassName
from shadowscan.ordering import Ecosystem, build_classpath
from shadowscan.pom import fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import FIXTURES, coord, make_repo

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
        assert inventory.classes == (FullyQualifiedClassName("org.test.NiceClass"),)
        assert not inventory.is_module
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
        inventory = inspect_jar(jar, COORD)
        assert inventory.is_module
        assert inventory.module_name is None
        assert [str(c) for c in inventory.classes] == ["org.test.A"]

    def test_nested_module_descriptor_is_not_a_module_marker(self, tmp_path):
        jar = make_jar(tmp_path / "a.jar", ["org/test/module-info.class", "org/test/A.class"])
        inventory = inspect_jar(jar, COORD)
        assert not inventory.is_module
        assert [str(c) for c in inventory.classes] == ["org.test.A"]

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

    def test_not_a_zip(self, tmp_path):
        bogus = tmp_path / "a.jar"
        bogus.write_bytes(b"definitely not an archive")
        with pytest.raises(NotAZip):
            inspect_jar(bogus, COORD)

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

    def test_single_class(self, tmp_path):
        inventory = inspect_classlist(self.write(tmp_path, "org.test.NiceClass\n"), COORD)
        assert inventory.classes == (FullyQualifiedClassName("org.test.NiceClass"),)

    def test_comments_and_blanks_skipped(self, tmp_path):
        text = "# header\n\norg.test.A\n   \n# trailing\norg.test.B\n"
        inventory = inspect_classlist(self.write(tmp_path, text), COORD)
        assert [str(c) for c in inventory.classes] == ["org.test.A", "org.test.B"]

    def test_sealed_directive(self, tmp_path):
        text = "@sealed org.nice\norg.nice.ClassA\norg.nice.ClassB\n"
        inventory = inspect_classlist(self.write(tmp_path, text), COORD)
        assert inventory.sealed_packages == frozenset({"org.nice"})

    def test_module_directive(self, tmp_path):
        inventory = inspect_classlist(
            self.write(tmp_path, "@module org.test.sample\norg.test.A\n"), COORD
        )
        assert inventory.is_module
        assert inventory.module_name == "org.test.sample"

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


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_render_then_reinspect_is_identity(self, seed, tmp_path):
        rng = Random(seed)
        classes = [
            FullyQualifiedClassName(f"org.p{rng.randint(0, 3)}.Class{i}")
            for i in range(rng.randint(1, 12))
        ]
        rng.shuffle(classes)
        inventory = ClassInventory(
            COORD,
            tuple(classes),
            sealed_packages=frozenset(
                cls.package for cls in rng.sample(classes, k=rng.randint(0, len(classes)))
            ),
            is_module=bool(rng.getrandbits(1)),
            module_name=None,
        )
        if inventory.is_module:
            inventory = ClassInventory(
                COORD, inventory.classes, inventory.sealed_packages, True, "org.test.mod"
            )
        path = tmp_path / "round.txt"
        path.write_text(render_classlist(inventory), encoding="utf-8")
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

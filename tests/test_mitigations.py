"""Mitigation checks: duplicate-class ban, sealed packages, module split packages."""

from __future__ import annotations

from random import Random

import pytest

from shadowscan.analysis import detect_shadowing
from shadowscan.cli import Run
from shadowscan.errors import InvalidPattern, IoFailure
from shadowscan.inventory import ClassInventory, effective_classes, inspect_classlist
from shadowscan.mitigations import (
    ALLOWLIST_LIMIT,
    MitigationRule,
    check_ban_duplicate_classes,
    check_modules,
    check_pattern,
    check_sealed,
    load_allowlist,
)
from shadowscan.model import check_class_name
from tests.helpers import FIXTURES, coord, random_inventories


def inventory(text, *classes, sealed=()):
    return ClassInventory(
        coord(text), tuple(map(check_class_name, classes)), frozenset(sealed)
    )


# each malformed pattern and the message it is refused with
INVALID_PATTERNS = {
    "": "empty pattern",
    "org.*.test": "'org.*.test': '*' may only appear as the final character",
    "*front": "'*front': '*' may only appear as the final character",
    ".*": "'.*' has an empty package prefix",
    "org..x": "'org..x' is not a valid class or package pattern",
    "org.x *": "'org.x *' is not a valid class or package pattern",
}


def disallowed(allowlist, *names):
    """Of ``names``, each shadowed in a second artifact, those ``allowlist`` leaves as violations."""
    class_map = effective_classes([inventory("g:first:1", *names), inventory("g:second:1", *names)])
    verdict = check_ban_duplicate_classes(class_map, allowlist)
    return [violation.class_name for violation in verdict.violations]


class TestPatterns:
    def test_exact_match(self):
        names = ("org.test.NiceClass", "org.test.NiceClassX")
        assert disallowed(["org.test.NiceClass"], *names) == ["org.test.NiceClassX"]

    def test_package_prefix(self):
        names = ("org.test.NiceClass", "org.test.sub.Deep", "org.testing.Other")
        assert disallowed(["org.test.*"], *names) == ["org.testing.Other"]

    def test_final_segment_prefix(self):
        names = ("org.test.NiceClass", "org.test.NiceHelper", "org.test.Other")
        assert disallowed(["org.test.Nice*"], *names) == ["org.test.Other"]

    def test_bare_star_matches_everything(self):
        assert disallowed(["*"], "anything.at.All", "Top") == []

    @pytest.mark.parametrize("pattern", ["org.test.NiceClass", "org.test.*", "org.test.Nice*", "*", "Top"])
    def test_a_valid_pattern_is_returned_unchanged(self, pattern):
        assert check_pattern(pattern) is pattern

    @pytest.mark.parametrize("pattern", INVALID_PATTERNS)
    def test_invalid_patterns(self, pattern):
        with pytest.raises(InvalidPattern) as excinfo:
            check_pattern(pattern)
        assert str(excinfo.value) == INVALID_PATTERNS[pattern]

    def test_allowlist_file(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# expected collisions\n\norg.test.*\norg.other.Exact\n", encoding="utf-8")
        assert load_allowlist(path) == ("org.test.*", "org.other.Exact")

    def test_a_malformed_allowlist_line_is_named(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# expected collisions\n\norg.*.test\n", encoding="utf-8")
        message = f"{path}:3: 'org.*.test': '*' may only appear as the final character"
        with pytest.raises(InvalidPattern) as excinfo:
            load_allowlist(path)
        assert str(excinfo.value) == message

    def test_a_raw_malformed_pattern_keeps_the_bare_message(self):
        class_map = effective_classes([])
        with pytest.raises(InvalidPattern) as excinfo:
            check_ban_duplicate_classes(class_map, ["org.*.test"])
        assert str(excinfo.value) == "'org.*.test': '*' may only appear as the final character"

    def test_an_allowlist_one_byte_over_the_cap_is_refused(self, tmp_path):
        path = tmp_path / "allow.txt"
        with path.open("wb") as file:
            file.truncate(ALLOWLIST_LIMIT + 1)  # sparse: no data blocks are written
        with pytest.raises(IoFailure, match=f"larger than {ALLOWLIST_LIMIT} bytes"):
            load_allowlist(path)


class TestBanDuplicateClasses:
    def test_attack_fixture_fails_with_one_violation(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        verdict = check_ban_duplicate_classes(run.class_map)
        assert verdict.rule is MitigationRule.BAN_DUPLICATE_CLASSES
        assert not verdict.passed
        assert len(verdict.violations) == 1
        violation = verdict.violations[0]
        assert str(violation.class_name) == "org.test.NiceClass"
        assert str(violation.winner) == "org.evil:fakelibrary:1.0"

    def test_allowlist_silences_the_expected_collision(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        verdict = check_ban_duplicate_classes(run.class_map, {"org.test.*"})
        assert verdict.passed

    def test_clean_map_passes(self):
        run = Run(FIXTURES / "sample-app", "com.example:Project:1.0")
        assert check_ban_duplicate_classes(run.class_map).passed

    @pytest.mark.parametrize("seed", range(40))
    def test_fails_exactly_when_shadowing_is_detected(self, seed):
        inventories = random_inventories(Random(seed), max_artifacts=10, max_classes=30)
        class_map = effective_classes(inventories)
        verdict = check_ban_duplicate_classes(class_map)
        has_shadow = any(len(providers) > 1 for providers in class_map.bindings.values())
        assert verdict.passed == (not has_shadow)


class TestSealed:
    def test_partial_replacement_of_a_sealed_package_is_flagged(self):
        run = Run(FIXTURES / "sealed-partial", "org.example:app:1.0")
        verdict = check_sealed(run.inventories, run.class_map)
        assert not verdict.passed
        assert len(verdict.violations) == 1
        violation = verdict.violations[0]
        assert violation.package == "org.nice"
        assert str(violation.sealed_by) == "org.nice:corelib:1.0"
        assert {str(w) for w in violation.winners} == {
            "org.evil:impostor:1.0",
            "org.nice:corelib:1.0",
        }

    def test_full_package_replacement_is_not_flagged(self):
        run = Run(FIXTURES / "sealed-full", "org.example:app:1.0")
        verdict = check_sealed(run.inventories, run.class_map)
        assert verdict.passed

    def test_no_sealed_packages_passes(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        assert check_sealed(run.inventories, run.class_map).passed

    def test_extra_class_smuggled_into_a_sealed_package_is_flagged(self):
        inventories = [
            inventory("g:evil:1", "org.nice.Extra"),
            inventory("g:nice:1", "org.nice.ClassA", sealed=["org.nice"]),
        ]
        verdict = check_sealed(inventories, effective_classes(inventories))
        assert not verdict.passed


class TestModules:
    def test_split_package_fails_when_root_is_modular(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        verdict = check_modules(run.inventories, root_is_module=True)
        assert not verdict.passed
        split = {violation.package: violation for violation in verdict.violations}
        assert "org.test" in split
        assert {str(p) for p in split["org.test"].providers} == {
            "org.evil:fakelibrary:1.0",
            "org.test:nicelibrary:1.2",
        }

    def test_inactive_without_a_modular_root(self):
        run = Run(FIXTURES / "poc-attack-order", "org.example:victim:1.0")
        verdict = check_modules(run.inventories, root_is_module=False)
        assert verdict.passed
        assert verdict.diagnostic is not None and "inactive" in verdict.diagnostic

    def test_disjoint_packages_pass(self):
        run = Run(FIXTURES / "sample-app", "com.example:Project:1.0")
        assert check_modules(run.inventories, root_is_module=True).passed

    def test_named_modules_participate_like_automatic_ones(self, tmp_path):
        # a class list that declares @module splits a package like one that does not
        named = tmp_path / "named.txt"
        named.write_text("@module mod.a\norg.x.One\n", encoding="utf-8")
        inventories = [
            inspect_classlist(named, coord("g:a:1")),
            inventory("g:b:1", "org.x.Two"),
        ]
        verdict = check_modules(inventories, root_is_module=True)
        assert not verdict.passed
        assert verdict.violations[0].package == "org.x"

    def test_violations_depend_only_on_the_package_to_providers_map(self):
        # same package map, different class names: identical verdicts
        first = [
            inventory("g:a:1", "org.x.One", "org.y.Solo"),
            inventory("g:b:1", "org.x.Two"),
        ]
        second = [
            inventory("g:a:1", "org.x.Other", "org.y.Different"),
            inventory("g:b:1", "org.x.Unrelated", "org.x.More"),
        ]
        assert (
            check_modules(first, root_is_module=True)
            == check_modules(second, root_is_module=True)
        )


class TestVerdictInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_an_attack_never_slips_past_both_build_gates(self, seed):
        # whenever a deep-winner finding exists, the duplicate ban (empty
        # allowlist) or the modular split-package check must fail
        rng = Random(seed + 1000)
        from tests.helpers import random_tree
        from shadowscan.ordering import Ecosystem, build_classpath

        tree = random_tree(rng, max_depth=3, max_children=3)
        entries = build_classpath(tree, Ecosystem.MAVEN).entries
        inventories = []
        shared = "org.shared.Thing"
        for index, entry in enumerate(entries):
            classes = [f"org.own.a{index}.Cls"]
            if rng.random() < 0.4:
                classes.append(shared)
            inventories.append(inventory(str(entry), *classes))
        class_map = effective_classes(inventories)
        findings = detect_shadowing(class_map, tree)
        if any(finding.winner_depth > 1 for finding in findings):
            dup = check_ban_duplicate_classes(class_map)
            modules = check_modules(inventories, root_is_module=True)
            assert not dup.passed or not modules.passed

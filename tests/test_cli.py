"""Command-line behavior: output, exit codes, determinism."""

from __future__ import annotations

import codecs
import errno
import importlib
import json
import logging
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest

from shadowscan import cli, text
from shadowscan.analysis import ShadowFinding
from shadowscan.cli import _MAX_NESTING, _json_report, main
from shadowscan.errors import ReportTooDeep
from shadowscan.mitigations import MitigationRule, MitigationVerdict
from shadowscan.model import OmittedConflict, ResolvedNode
from shadowscan.pom import fetch_pom, load_repository
from shadowscan.resolver import resolve
from tests.helpers import FIXTURES, coord, load_spans, make_repo, write_pom
from tests.test_tracer_bindings import COMMANDS

SAMPLE = ["--repo", str(FIXTURES / "sample-app"), "--root", "com.example:Project:1.0"]
ATTACK = ["--repo", str(FIXTURES / "poc-attack-order"), "--root", "org.example:victim:1.0"]
SAFE = ["--repo", str(FIXTURES / "poc-safe-order"), "--root", "org.example:victim:1.0"]
CWA = ["--repo", str(FIXTURES / "cwa-server"), "--root", "app.coronawarn:cwa-parent:3.2.0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """``python *argv`` in a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


class TestResolveCommand:
    def test_clean_tree_text(self, capsys):
        code, out, _ = run(capsys, "resolve", *SAMPLE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "com.example:Project:1.0"
        assert "+-com.example:D1:1.0" in lines
        assert "|  +-com.example:D11:1.0" in lines
        assert "no conflicts" in lines
        assert sum("com.example" in line for line in lines) == 10

    def test_conflict_marks_in_text(self, capsys, tmp_path):
        make_repo(
            tmp_path,
            {
                "g:root:1": ["g:a:1", "g:b:1"],
                "g:a:1": ["g:x:1.0"],
                "g:b:1": ["g:x:2.0"],
                "g:x:1.0": [],
                "g:x:2.0": [],
            },
        )
        code, out, _ = run(capsys, "resolve", "--repo", str(tmp_path), "--root", "g:root:1")
        assert code == 0
        assert "(omitted: conflict, winner g:x:1.0)" in out
        assert "conflicts:" in out

    def test_duplicate_marks_in_text(self, capsys, tmp_path):
        make_repo(
            tmp_path,
            {"g:root:1": ["g:a:1", "g:b:1"], "g:a:1": ["g:c:1"], "g:b:1": ["g:c:1"], "g:c:1": []},
        )
        code, out, _ = run(capsys, "resolve", "--repo", str(tmp_path), "--root", "g:root:1")
        assert code == 0
        assert out.splitlines() == [
            "g:root:1",
            "+-g:a:1",
            "|  +-g:c:1",
            "+-g:b:1",
            "   +-g:c:1 (omitted: duplicate of path [0, 0])",
            "",
            "no conflicts",
        ]

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "resolve", *SAMPLE, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["command"] == "resolve"
        assert report["inputs"]["root"] == "com.example:Project:1.0"
        assert report["payload"]["tree"]["coordinate"] == "com.example:Project:1.0"
        assert report["payload"]["conflicts"] == []

    def test_missing_repo_path_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "resolve", "--repo", "/no/such/dir", "--root", "g:a:1")
        assert code == 1
        assert "error:" in err

    def test_unresolvable_dependency_exits_two(self, capsys, tmp_path):
        make_repo(tmp_path, {"g:root:1": ["g:ghost:1"]})
        code, _, err = run(capsys, "resolve", "--repo", str(tmp_path), "--root", "g:root:1")
        assert code == 2
        assert "g:ghost:1" in err

    def test_absent_root_coordinate_exits_two(self, capsys, tmp_path):
        make_repo(tmp_path, {"g:root:1": []})
        code, _, err = run(capsys, "resolve", "--repo", str(tmp_path), "--root", "g:other:1")
        assert code == 2

    def test_bad_root_coordinate_string_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "resolve", *SAMPLE[:-1], "not-a-coordinate")
        assert code == 1

    def test_exceeded_depth_limit_is_a_resolution_error(self, capsys, tmp_path):
        make_repo(tmp_path, {"g:root:1": ["g:a:1"], "g:a:1": ["g:b:1"], "g:b:1": []})
        code, _, err = run(
            capsys, "resolve", "--repo", str(tmp_path), "--root", "g:root:1",
            "--max-depth", "1",
        )
        assert code == 2
        assert "limit" in err


class TestClasspathCommand:
    def test_maven_entries(self, capsys):
        code, out, _ = run(capsys, "classpath", *SAMPLE)
        assert code == 0
        assert out.splitlines()[:3] == [
            "com.example:D1:1.0", "com.example:D11:1.0", "com.example:D111:1.0",
        ]

    def test_gradle_entries_start_with_direct_deps(self, capsys):
        code, out, _ = run(capsys, "classpath", *SAMPLE, "--ecosystem", "gradle")
        assert out.splitlines()[:2] == ["com.example:D1:1.0", "com.example:D2:1.0"]

    def test_flat_layout_appended(self, capsys):
        code, out, _ = run(capsys, "classpath", *SAMPLE, "--layout", "flat")
        assert "+-META-INF" in out
        assert out.splitlines()[-1] == "+-D221.class"

    def test_nested_layout_appended(self, capsys):
        code, out, _ = run(capsys, "classpath", *SAMPLE, "--layout", "nested")
        assert "  +-lib" in out
        assert out.splitlines()[-1] == "  |  +-D221.jar"

    def test_root_only_project(self, capsys, tmp_path):
        make_repo(tmp_path, {"g:root:1": []})
        code, out, _ = run(capsys, "classpath", "--repo", str(tmp_path), "--root", "g:root:1")
        assert code == 0
        assert "(empty classpath)" in out


class TestScanCommand:
    def test_attack_order_reports_the_finding(self, capsys):
        code, out, _ = run(capsys, "scan", *ATTACK)
        assert code == 0
        assert "org.test.NiceClass" in out
        assert "org.evil:fakelibrary:1.0" in out

    def test_fail_on_shadow_gates_with_exit_three(self, capsys):
        code, _, _ = run(capsys, "scan", *ATTACK, "--fail-on-shadow")
        assert code == 3

    def test_safe_order_keeps_winner_at_nicelibrary(self, capsys):
        code, out, _ = run(capsys, "scan", *SAFE)
        assert code == 0
        assert "winner: org.test:nicelibrary:1.2" in out

    def test_clean_fixture_is_quiet(self, capsys):
        code, out, _ = run(capsys, "scan", *SAMPLE, "--fail-on-shadow")
        assert code == 0
        assert "no class collisions" in out

    def test_json_findings(self, capsys):
        code, out, _ = run(capsys, "scan", *ATTACK, "--format", "json")
        report = json.loads(out)
        findings = report["payload"]["findings"]
        assert len(findings) == 1
        assert findings[0]["class_name"] == "org.test.NiceClass"
        assert findings[0]["winner"] == "org.evil:fakelibrary:1.0"
        assert findings[0]["winner_path"] == [0, 0]


class TestHijackCommand:
    def test_target_surface_contains_the_compromised_validator(self, capsys):
        code, out, _ = run(
            capsys, "hijack", *CWA, "--target", "org.postgresql:postgresql:42.6.0"
        )
        assert code == 0
        assert "com.github.everit:everit-json-schema:1.14.1" in out

    def test_attacker_reach_includes_later_direct_dep(self, capsys):
        code, out, _ = run(
            capsys,
            "hijack",
            "--repo", str(FIXTURES / "deep-hijack"),
            "--root", "com.example:Project:1.0",
            "--attacker", "com.example:D111:1.0",
        )
        assert code == 0
        assert "com.example:D2:1.0" in out

    def test_last_entry_has_empty_reach(self, capsys):
        code, out, _ = run(capsys, "hijack", *SAMPLE, "--attacker", "com.example:D221:1.0")
        assert code == 0
        assert "(empty)" in out

    def test_unknown_artifact_exits_two(self, capsys):
        code, _, err = run(capsys, "hijack", *SAMPLE, "--attacker", "com.example:ghost:1.0")
        assert code == 2

    @pytest.mark.parametrize("option", ["--attacker", "--target"])
    def test_an_empty_coordinate_is_an_input_error(self, capsys, option):
        code, out, err = run(capsys, "hijack", *SAMPLE, option, "")
        assert (code, out, err) == (1, "", "error: expected group:artifact:version, got ''\n")

    def test_attacker_and_target_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["hijack", *SAMPLE, "--attacker", "g:a:1", "--target", "g:b:1"])
        assert excinfo.value.code == 1


class TestCheckCommand:
    def test_duplicate_rule_gates_the_attack_fixture(self, capsys):
        code, out, _ = run(capsys, "check", *ATTACK, "--rules", "dup")
        assert code == 4
        assert "ban-duplicate-classes: FAIL" in out

    def test_modules_rule_needs_the_root_module_flag(self, capsys):
        code, out, _ = run(capsys, "check", *ATTACK, "--rules", "modules")
        assert code == 0
        assert "inactive" in out
        code, out, _ = run(capsys, "check", *ATTACK, "--rules", "modules", "--root-module")
        assert code == 4
        assert "package org.test" in out

    def test_sealed_rule_on_both_sealing_fixtures(self, capsys):
        code, out, _ = run(
            capsys, "check",
            "--repo", str(FIXTURES / "sealed-partial"), "--root", "org.example:app:1.0",
            "--rules", "sealed",
        )
        assert code == 4
        assert "sealed-jars: FAIL" in out
        code, out, _ = run(
            capsys, "check",
            "--repo", str(FIXTURES / "sealed-full"), "--root", "org.example:app:1.0",
            "--rules", "sealed",
        )
        assert code == 0

    def test_all_rules_pass_on_the_clean_fixture(self, capsys):
        code, out, _ = run(capsys, "check", *SAMPLE, "--root-module")
        assert code == 0
        assert out.count("PASS") == 3

    def test_allowlist_file(self, capsys, tmp_path):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("org.test.*\n", encoding="utf-8")
        code, _, _ = run(capsys, "check", *ATTACK, "--rules", "dup", "--allowlist", str(allowlist))
        assert code == 0

    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *SAMPLE, "--rules", "dup,bogus"])
        assert excinfo.value.code == 1

    def test_empty_allowlist_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *SAMPLE, "--allowlist", ""])
        assert excinfo.value.code == 1
        assert "argument --allowlist: must name a file" in capsys.readouterr().err

    @pytest.mark.parametrize("rules", ["dup", "sealed", "modules"])
    def test_a_missing_artifact_is_reported_before_a_malformed_allowlist(
        self, capsys, tmp_path, rules
    ):
        make_repo(tmp_path / "repo", {"g:root:1": ["g:a:1"], "g:a:1": []}, {"g:root:1": ["g.R"]})
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("org.x*y\n", encoding="utf-8")
        code, out, err = run(
            capsys, "check", "--repo", str(tmp_path / "repo"), "--root", "g:root:1",
            "--rules", rules, "--allowlist", str(allowlist),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: g:a:1 has no artifact.jar or classes.txt")

    @pytest.mark.parametrize("rules", ["dup", "sealed", "modules"])
    def test_malformed_allowlist_pattern_is_an_input_error(self, capsys, tmp_path, rules):
        # the allowlist is checked as it is read, whichever rules run
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("org.test.*x\n", encoding="utf-8")
        code, out, err = run(
            capsys, "check", *ATTACK, "--rules", rules, "--allowlist", str(allowlist)
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {allowlist}:1: 'org.test.*x': '*' may only appear as the final character\n"
        )


class TestCompareCommand:
    def test_attack_fixture_flags_the_difference(self, capsys):
        code, out, _ = run(capsys, "compare", *ATTACK)
        assert code == 0
        assert "org.test.NiceClass" in out and "DIFFERS" in out

    def test_clean_fixture_is_empty(self, capsys):
        code, out, _ = run(capsys, "compare", *SAMPLE)
        assert code == 0
        assert "no duplicated classes" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "compare", *ATTACK, "--format", "json")
        report = json.loads(out)
        assert report["payload"]["classes"] == [
            {
                "class_name": "org.test.NiceClass",
                "maven_winner": "org.evil:fakelibrary:1.0",
                "gradle_winner": "org.test:nicelibrary:1.2",
                "differs": True,
            }
        ]


class TestPlumbing:
    def test_repo_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SHADOWSCAN_REPO", str(FIXTURES / "sample-app"))
        code, out, _ = run(capsys, "resolve", "--root", "com.example:Project:1.0")
        assert code == 0

    def test_missing_repo_everywhere_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.delenv("SHADOWSCAN_REPO", raising=False)
        code, _, err = run(capsys, "resolve", "--root", "g:a:1")
        assert code == 1
        assert "SHADOWSCAN_REPO" in err

    def test_json_output_is_stable_across_runs(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "scan", *ATTACK, "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-m", "shadowscan", "resolve", *SAMPLE],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "com.example:Project:1.0"


# every command, with the options it requires
ALL_COMMANDS = [
    ["resolve"], ["classpath"], ["scan"], ["hijack", "--target", "org.test:nicelibrary:1.2"],
    ["check"], ["compare"],
]


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda command: command[0])
def test_negative_max_depth_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, *ATTACK, "--max-depth", "-1"])
    assert excinfo.value.code == 1
    assert "--max-depth" in capsys.readouterr().err


def test_non_integer_max_depth_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resolve", *ATTACK, "--max-depth", "abc"])
    assert excinfo.value.code == 1
    assert "--max-depth: must be a non-negative integer, got 'abc'" in capsys.readouterr().err


def usage_error(capsys, argv):
    """The usage text and the ``error:`` line that ``main(argv)`` writes to stderr on exit 1."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    usage, _, message = capsys.readouterr().err.partition("error: ")
    return usage, "error: " + message


@pytest.mark.parametrize(
    ("options", "shown"),
    [
        ([], "unrecognized arguments: \\x1b[31mX\n"),
        # argparse quotes this value with repr, whose "\" is doubled like any other
        (["--format"], "argument --format: invalid choice: '\\\\x1b[31mX'"),
    ],
    ids=["argument", "repr-of-an-argument"],
)
def test_a_usage_error_is_written_inert(capsys, options, shown):
    usage, line = usage_error(capsys, ["resolve", *SAMPLE, *options, "\x1b[31mX"])
    assert usage == usage_error(capsys, ["resolve", *SAMPLE, *options, "X"])[0]
    assert line.startswith("error: " + shown)
    assert line.endswith("\n") and line[:-1].isprintable()


def test_a_byte_order_mark_cannot_hide_a_shadowed_class(capsys, tmp_path):
    # the nice library's class list and the allowlist are saved with a UTF-8 BOM
    repo = make_repo(
        tmp_path / "repo",
        {"g:app:1": ["g:evil:1", "g:nice:1"], "g:evil:1": [], "g:nice:1": []},
        {"g:evil:1": ["org.test.NiceClass"], "g:nice:1": ["org.test.NiceClass"]},
    )
    listing = repo / "g" / "nice" / "1" / "classes.txt"
    listing.write_bytes(codecs.BOM_UTF8 + listing.read_bytes())
    args = ["--repo", str(repo), "--root", "g:app:1"]
    code, out, _ = run(capsys, "scan", *args)
    assert code == 0
    assert out.splitlines() == [
        "1 class collision(s):",
        "  org.test.NiceClass",
        "    winner: g:evil:1 (depth 1, path [0])",
        "    shadowed: g:nice:1",
    ]
    code, out, _ = run(capsys, "check", "--rules", "dup", *args)
    assert (code, out) == (4, "ban-duplicate-classes: FAIL (1 violation(s))\n"
                              "  org.test.NiceClass: winner g:evil:1 shadows g:nice:1\n")
    allowlist = tmp_path / "allow.txt"
    allowlist.write_bytes(codecs.BOM_UTF8 + b"org.test.NiceClass\n")
    code, _, _ = run(capsys, "check", "--rules", "dup", "--allowlist", str(allowlist), *args)
    assert code == 0


# g:b:1's POM text for each parse fault, and the error that follows its file's name;
# TestLazyPomParsing covers a truncated POM
POM_HEAD = "<project><groupId>g</groupId><artifactId>b</artifactId><version>1</version>"
DEPENDENCY = (
    "<dependency><groupId>g</groupId><artifactId>{}</artifactId>"
    "<version>{}</version></dependency>"
)
POM_FAULTS = {
    "missing-group": (
        "<project><artifactId>b</artifactId><version>1</version></project>",
        "project: missing or empty <groupId>",
    ),
    "repeated-dependency": (
        POM_HEAD + "<dependencies>" + DEPENDENCY.format("c", 1) + DEPENDENCY.format("c", 2)
        + "</dependencies></project>",
        "g:c declared more than once",
    ),
    "invalid-artifact-id": (
        POM_HEAD + "<dependencies>" + DEPENDENCY.format("c c", 1) + "</dependencies></project>",
        "artifact id 'c c' must not contain ':' or whitespace",
    ),
}


@pytest.mark.parametrize("fault", list(POM_FAULTS))
def test_a_pom_parse_error_names_the_file(capsys, tmp_path, fault):
    text, message = POM_FAULTS[fault]
    repo = make_repo(tmp_path, {"g:a:1": ["g:b:1"], "g:b:1": []})
    pom = repo / "g" / "b" / "1" / "pom.xml"
    pom.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "resolve", "--repo", str(repo), "--root", "g:a:1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {pom} (g:b:1): {message}")


class TestConfinement:
    """A coordinate token that is a path step names no POM, even where a file would be found."""

    # each coordinate, and where joining its tokens onto the root unguarded would land
    DECOYS = {"..:x:a": "../x/a", ".:root:1": "root/1", "a/b:c:1": "a/b/c/1"}

    @pytest.mark.parametrize("dependency", list(DECOYS))
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda command: command[0])
    def test_path_step_tokens_cannot_be_resolved(self, capsys, tmp_path, command, dependency):
        repo = make_repo(tmp_path / "repo", {"g:app:1": [dependency]})
        for text, decoy in self.DECOYS.items():
            (repo / decoy).mkdir(parents=True)
            write_pom(repo / decoy, coord(text), [])
        code, out, err = run(capsys, *command, "--repo", str(repo), "--root", "g:app:1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot resolve {dependency}")


class TestLazyPomParsing:
    """Only the POMs that resolution reaches are read, so only they can fail a command."""

    COMMANDS = [["resolve"], ["scan"], ["check", "--rules", "sealed,modules"], ["compare"]]

    @staticmethod
    def attack_copy(tmp_path):
        repo = tmp_path / "repo"
        shutil.copytree(FIXTURES / "poc-attack-order", repo)
        return repo

    def json_outputs(self, capsys, repo):
        args = ["--repo", str(repo), "--root", "org.example:victim:1.0", "--format", "json"]
        return [run(capsys, *command, *args) for command in self.COMMANDS]

    @staticmethod
    def truncate(pom):
        text = pom.read_text(encoding="utf-8")
        pom.write_text(text[: len(text) // 2], encoding="utf-8")

    @pytest.mark.parametrize("defect", ["truncated", "mismatched"])
    def test_unreached_bad_pom_changes_nothing(self, capsys, tmp_path, defect):
        repo = self.attack_copy(tmp_path)
        clean = self.json_outputs(capsys, repo)
        directory = repo / "org.stray" / "unreached" / "1.0"
        directory.mkdir(parents=True)
        version = "2.0" if defect == "mismatched" else "1.0"
        write_pom(directory, coord(f"org.stray:unreached:{version}"), [])
        if defect == "truncated":
            self.truncate(directory / "pom.xml")
        assert self.json_outputs(capsys, repo) == clean
        assert [code for code, _, _ in clean] == [0, 0, 0, 0]

    def test_unreached_directory_with_an_invalid_name_is_skipped(self, capsys, tmp_path):
        repo = self.attack_copy(tmp_path)
        clean = self.json_outputs(capsys, repo)
        pom = repo / "org.stray" / "un reached" / "1.0" / "pom.xml"
        pom.parent.mkdir(parents=True)
        pom.write_text("<project/>\n", encoding="utf-8")
        stray = self.json_outputs(capsys, repo)
        assert [(code, out) for code, out, _ in stray] == [(code, out) for code, out, _ in clean]
        assert [code for code, _, _ in stray] == [0, 0, 0, 0]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_reached_malformed_pom_is_an_input_error(self, capsys, tmp_path, command):
        repo = self.attack_copy(tmp_path)
        pom = repo / "org.evil" / "fakelibrary" / "1.0" / "pom.xml"
        self.truncate(pom)
        code, out, err = run(
            capsys, *command, "--repo", str(repo), "--root", "org.example:victim:1.0",
            "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {pom} (org.evil:fakelibrary:1.0): not well-formed XML")


def test_a_reached_fifo_pom_is_an_input_error_not_a_hang(tmp_path):
    # run in a child process: reading a FIFO without a writer would block forever
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURES / "poc-attack-order", repo)
    pom = repo / "org.test" / "nicelibrary" / "1.2" / "pom.xml"
    pom.unlink()
    os.mkfifo(pom)
    result = run_child(
        "-m", "shadowscan", "resolve", "--repo", str(repo), "--root", "org.example:victim:1.0"
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: cannot read {pom}: not a regular file\n"


@pytest.mark.parametrize("rules", ["dup,sealed,modules", "sealed"])
def test_a_fifo_allowlist_is_an_input_error_not_a_hang(tmp_path, rules):
    # run in a child process: reading a FIFO without a writer would block forever
    allowlist = tmp_path / "allow.txt"
    os.mkfifo(allowlist)
    result = run_child(
        "-m", "shadowscan", "check", *ATTACK, "--rules", rules, "--allowlist", str(allowlist)
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: cannot read {allowlist}: not a regular file\n"


@pytest.mark.parametrize("beside_a_class_list", [True, False])
def test_a_reached_fifo_archive_is_an_input_error_not_a_hang(tmp_path, beside_a_class_list):
    # run in a child process: opening a FIFO without a writer would block forever;
    # a present artifact.jar is the content source, so a class list beside it is not read
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURES / "poc-attack-order", repo)
    directory = repo / "org.test" / "nicelibrary" / "1.2"
    if not beside_a_class_list:
        (directory / "classes.txt").unlink()
    jar = directory / "artifact.jar"
    os.mkfifo(jar)
    result = run_child(
        "-m", "shadowscan", "scan", "--repo", str(repo), "--root", "org.example:victim:1.0"
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: cannot read {jar}: not a regular file\n"


def test_a_fifo_archive_is_an_io_failure_not_a_hang(tmp_path):
    # run in a child process: opening a FIFO without a writer would block forever
    jar = tmp_path / "artifact.jar"
    os.mkfifo(jar)
    script = (
        "import sys\n"
        "from shadowscan.errors import IoFailure\n"
        "from shadowscan.inventory import inspect_jar\n"
        "from shadowscan.model import Coordinate\n"
        "try:\n"
        "    inspect_jar(sys.argv[1], Coordinate('g:a:1'))\n"
        "except IoFailure as exc:\n"
        "    print(exc)\n"
    )
    result = run_child("-c", script, str(jar))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"cannot read {jar}: not a regular file\n"


def test_a_reached_directory_pom_is_not_a_regular_file(capsys, tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURES / "poc-attack-order", repo)
    pom = repo / "org.test" / "nicelibrary" / "1.2" / "pom.xml"
    pom.unlink()
    pom.mkdir()
    code, out, err = run(capsys, "resolve", "--repo", str(repo), "--root", "org.example:victim:1.0")
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {pom}: not a regular file\n"


@pytest.mark.parametrize("rules", ["dup,sealed,modules", "sealed"])
def test_a_directory_allowlist_is_not_a_regular_file(capsys, tmp_path, rules):
    code, out, err = run(capsys, "check", *ATTACK, "--rules", rules, "--allowlist", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {tmp_path}: not a regular file\n"


@pytest.mark.parametrize("beside_a_class_list", [True, False])
def test_a_reached_directory_archive_is_not_a_regular_file(capsys, tmp_path, beside_a_class_list):
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURES / "poc-attack-order", repo)
    directory = repo / "org.test" / "nicelibrary" / "1.2"
    if not beside_a_class_list:
        (directory / "classes.txt").unlink()
    jar = directory / "artifact.jar"
    jar.mkdir()
    code, out, err = run(capsys, "scan", "--repo", str(repo), "--root", "org.example:victim:1.0")
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {jar}: not a regular file\n"


class TestPathSpelling:
    """Messages name a reached file as ``pathlib`` spells it, however ``--repo`` is spelled.

    Each case gives ``--repo`` from a working directory (both relative to
    the test's directory, where the repository is ``x``) and the prefix of
    every path a message names.
    """

    CASES = {
        "dot": (".", "x", ""),
        "dot-slash": ("./x/", ".", "x/"),
        "double-slash": ("x//", ".", "x/"),
        "absolute": ("{tmp}//x/", ".", "{tmp}/x/"),
    }

    @pytest.fixture(params=CASES)
    def spelled(self, request, tmp_path, monkeypatch):
        """The ``--repo`` argument, the repository and the prefix, with the working directory set."""
        repo_arg, cwd, prefix = (
            value.format(tmp=tmp_path) for value in self.CASES[request.param]
        )
        repo = make_repo(
            tmp_path / "x", {"g:root:1": ["g:b:1"], "g:b:1": []}, {"g:b:1": ["org.b.B"]}
        )
        monkeypatch.chdir(tmp_path / cwd)
        return ["--repo", repo_arg, "--root", "g:root:1"], repo, prefix

    def test_an_unreadable_pom(self, capsys, spelled):
        args, repo, prefix = spelled
        (repo / "g" / "b" / "1" / "pom.xml").write_bytes(b"\xff")
        assert run(capsys, "resolve", *args) == (1, "", (
            f"error: cannot read {prefix}g/b/1/pom.xml: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        ))

    def test_a_mismatched_pom(self, capsys, spelled):
        args, repo, prefix = spelled
        write_pom(repo / "g" / "b" / "1", coord("g:b:2"), [])
        assert run(capsys, "resolve", *args) == (1, "", (
            f"error: {prefix}g/b/1/pom.xml declares g:b:2 but its directory implies g:b:1\n"
        ))

    def test_an_unreadable_class_list(self, capsys, spelled):
        args, repo, prefix = spelled
        (repo / "g" / "b" / "1" / "classes.txt").write_bytes(b"\xff")
        assert run(capsys, "scan", *args) == (1, "", (
            f"error: cannot read {prefix}g/b/1/classes.txt: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        ))

    def test_a_parse_warning(self, capsys, caplog, spelled):
        args, repo, prefix = spelled
        pom = repo / "g" / "root" / "1" / "pom.xml"
        pom.write_text(
            pom.read_text(encoding="utf-8").replace("</project>", "<properties/></project>"),
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            assert run(capsys, "resolve", *args)[0] == 0
        assert [record.getMessage() for record in caplog.records] == [
            f"{prefix}g/root/1/pom.xml (g:root:1): project g:root:1: ignoring <properties>"
        ]


@pytest.fixture(scope="module")
def large_scan(tmp_path_factory):
    """``python`` arguments of a JSON scan whose report, about 1.2 MB, outgrows a pipe's buffer."""
    names = [f"org.big.p{number % 10}.C{number:05d}" for number in range(6000)]
    repo = make_repo(
        tmp_path_factory.mktemp("large"),
        {"g:root:1": ["g:a:1", "g:b:1"], "g:a:1": [], "g:b:1": []},
        {"g:a:1": names, "g:b:1": names},
    )
    return ["-m", "shadowscan", "scan", "--repo", str(repo), "--root", "g:root:1",
            "--format", "json"]


def stdout_child_env(unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def write_error(code):
    return f"error: cannot write the report: [Errno {code}] {os.strerror(code)}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("large", [False, True])
def test_a_full_stdout_is_an_input_error(large_scan, unbuffered, large):
    # a small report stays in the stream's buffer when its write fails, and
    # must not fail once more when the interpreter flushes stdout at exit
    argv = large_scan if large else ["-m", "shadowscan", "resolve", *SAMPLE, "--format", "json"]
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, *argv], stdout=full, stderr=subprocess.PIPE,
            env=stdout_child_env(unbuffered), timeout=60,
        )
    assert (result.returncode, result.stderr) == (1, write_error(errno.ENOSPC))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_stops_early_is_an_input_error(large_scan, unbuffered):
    # unbuffered, a write to a closing pipe is short before it fails; the text
    # layer would drop the rest and the run would end with exit code 0
    with subprocess.Popen(
        [sys.executable, *large_scan], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=stdout_child_env(unbuffered),
    ) as process:
        try:
            assert process.stdout.read(10) == b'{\n  "comma'
            process.stdout.close()
            _, err = process.communicate(timeout=60)
        finally:
            process.kill()
    assert (process.returncode, err) == (1, write_error(errno.EPIPE))


def run_with_closed(stream, root):
    """``python -m shadowscan resolve`` of CWA from a shell that closed ``stream`` (1 or 2)."""
    script = f'exec "$0" -m shadowscan resolve "$@" {stream}>&-'
    argv = ["sh", "-c", script, sys.executable, "--repo", CWA[1], "--root", root]
    return subprocess.run(argv, capture_output=True, env=stdout_child_env(False), timeout=60)


def test_a_closed_stdout_is_an_input_error():
    result = run_with_closed(1, CWA[3])
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: cannot write the report: [Errno 9] stdout is closed\n"


def test_a_closed_stdout_keeps_a_resolution_error():
    result = run_with_closed(1, "g:missing:1")
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: g:missing:1 ")
    assert result.stderr.count(b"\n") == 1


def test_a_closed_stderr_still_writes_the_report():
    result = run_with_closed(2, CWA[3])
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(b"app.coronawarn:cwa-parent:3.2.0\n")


def test_a_closed_stderr_drops_the_error_line():
    result = run_with_closed(2, "g:missing:1")
    assert (result.returncode, result.stdout, result.stderr) == (2, b"", b"")


def test_a_large_report_reaches_stdout_whole(large_scan):
    result = subprocess.run(
        [sys.executable, *large_scan], capture_output=True,
        env=stdout_child_env(True), timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert len(json.loads(result.stdout)["payload"]["findings"]) == 6000


def shadowed_name_repo(root, name, twice=False):
    """``--repo``/``--root`` of two dependencies that both list ``name``; ``twice`` in the first."""
    repo = make_repo(
        root,
        {"g:root:1": ["g:a:1", "g:b:1"], "g:a:1": [], "g:b:1": []},
        {"g:a:1": [name] * (2 if twice else 1), "g:b:1": [name]},
    )
    return ["--repo", str(repo), "--root", "g:root:1"]


@pytest.mark.parametrize(
    ("name", "shown"),
    [
        ("org.test.X\x1b[2KY", "org.test.X\\x1b[2KY"),
        ("org.test.\u202egnp.Evil", "org.test.\\u202egnp.Evil"),
        ("org.test.X\\x1bY", "org.test.X\\\\x1bY"),
    ],
    ids=["escape-sequence", "bidi-override", "backslash"],
)
def test_a_class_name_is_written_inert_in_text_output(capsys, tmp_path, name, shown):
    # the attacker names the classes of a transitive artifact; a terminal must
    # show them, not act on them, and an escape must not be forged with "\\"
    code, out, err = run(capsys, "scan", *shadowed_name_repo(tmp_path / "scan", name))
    assert (code, err) == (0, "")
    assert f"  {shown}\n" in out.splitlines(keepends=True)
    assert out.replace("\n", "").isprintable()
    code, out, err = run(capsys, "scan", *shadowed_name_repo(tmp_path / "dup", name, twice=True))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(f": {shown} listed twice\n")
    assert err[:-1].isprintable()


def test_a_name_that_stdout_cannot_encode_is_written_as_its_escape(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "shadowscan", "scan", *shadowed_name_repo(tmp_path, "org.test.Café")],
        capture_output=True, env=dict(stdout_child_env(False), PYTHONIOENCODING="ascii"), timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert b"  org.test.Caf\\xe9\n" in result.stdout.splitlines(keepends=True)


@pytest.mark.parametrize("large", [False, True], ids=["one-batch", "many-batches"])
def test_a_stateful_encoding_starts_the_report_with_one_byte_order_mark(monkeypatch, large_scan, large):
    # one incremental encoder spans the batches, so a UTF-16 report is its one-shot encoding
    argv = large_scan[2:] if large else ["resolve", *SAMPLE, "--format", "json"]
    pieces = []
    monkeypatch.setattr(cli, "_write_stdout", pieces.extend)
    assert main(argv) == 0
    assert (len(pieces) > 10 * cli._BATCH) == large
    result = subprocess.run(
        [sys.executable, "-m", "shadowscan", *argv], capture_output=True,
        env=dict(stdout_child_env(False), PYTHONIOENCODING="utf-16"), timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == "".join(pieces).encode("utf-16")
    assert result.stdout.startswith(codecs.BOM_UTF16) and result.stdout.count(codecs.BOM_UTF16) == 1


def many_findings():
    """10 000 findings over a few winners and victims, the shape of a large scan report."""
    return [
        ShadowFinding(
            f"org.big.p{number % 10}.Class{number:05d}", coord(f"org.big:winner{number % 50}:1.0"),
            (coord(f"org.big:victim{number % 7}:1.0"), coord("org.big:victim:2.0")),
            (number % 3, number % 5, 1),
        )
        for number in range(10_000)
    ]


def written_peak(monkeypatch, path, render):
    """The tracemalloc peak of rendering a report and writing it to ``path`` through stdout."""
    with path.open("w", encoding="utf-8") as stream, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stream)
        tracemalloc.start()
        try:
            cli._write_stdout(render())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_a_record_array_report_is_written_without_a_second_copy(monkeypatch, tmp_path):
    # the report's pieces and one joined batch at a time are held, never the whole report twice
    payload = {"findings": many_findings()}
    path = tmp_path / "report.json"
    peak = written_peak(monkeypatch, path, lambda: cli._json_report_pieces("scan", {}, payload))
    assert path.read_text(encoding="utf-8") == _json_report("scan", {}, payload)
    assert peak < 2 * path.stat().st_size


def test_a_text_report_is_written_without_a_second_copy(monkeypatch, tmp_path):
    # the view's lines are made as stdout takes them, so the text is never held whole
    payload = {"findings": many_findings()}
    path = tmp_path / "report.txt"
    peak = written_peak(monkeypatch, path, lambda: text.render("scan", payload, {}))
    expected = "".join(text.render("scan", payload, {}))
    assert expected.startswith("10000 class collision(s):\n  org.big.p0.Class00000\n")
    assert path.read_text(encoding="utf-8") == expected
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", *ATTACK],
        ["scan", *ATTACK, "--fail-on-shadow"],
        ["resolve", "--repo", str(FIXTURES / "sample-app"), "--root", "g:missing:1"],
    ],
    ids=["check-fails", "scan-finds-shadows", "root-not-found"],
)
def test_the_module_entry_point_matches_main(capsysbinary, argv, output_format):
    argv = [*argv, "--format", output_format]
    code = main(argv)
    captured = capsysbinary.readouterr()
    result = subprocess.run(
        [sys.executable, "-m", "shadowscan", *argv], capture_output=True,
        env=stdout_child_env(False), timeout=60,
    )
    assert code in (2, 3, 4)
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)


def test_the_entry_point_skips_teardown_only_after_main_returns():
    # an exit handler runs in the interpreter's teardown, which os._exit skips
    script = (
        "import atexit, sys\n"
        "atexit.register(print, 'teardown', file=sys.stderr)\n"
        "from shadowscan.cli import run\n"
        "run()\n"
    )
    report = run_child("-c", script, "resolve", *SAMPLE)
    assert (report.returncode, report.stderr) == (0, "")
    assert report.stdout.startswith("com.example:Project:1.0\n")
    usage = run_child("-c", script, "resolve", "--root", "g:a:1", "--max-depth", "x")
    assert usage.returncode == 1
    assert usage.stderr.endswith("teardown\n")


def test_the_installed_command_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module_name, _, name = target["shadowscan"].partition(":")
    entry = getattr(importlib.import_module(module_name), name)
    assert callable(entry) and entry is cli.run


def modules_added_by_importing_the_cli():
    result = run_child(
        "-c",
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import shadowscan.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
    )
    assert result.returncode == 0, result.stderr
    added = json.loads(result.stdout)
    assert "shadowscan.cli" in added
    return added


def test_importing_the_cli_loads_no_logging():
    # parse warnings import logging on the first warning, so start-up never does
    assert "logging" not in modules_added_by_importing_the_cli()


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, and with it ast, dis and tokenize
    added = modules_added_by_importing_the_cli()
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_parse_warnings_reach_stderr_as_bare_lines(tmp_path):
    poms = {"g:root:1": ["g:a:1"], "g:a:1": []}
    plain = make_repo(tmp_path / "plain", poms)
    noisy = make_repo(tmp_path / "noisy", poms)
    pom = noisy / "g" / "root" / "1" / "pom.xml"
    text = pom.read_text(encoding="utf-8")
    text = text.replace("  <dependencies>", "  <properties><x>1</x></properties>\n  <dependencies>")
    text = text.replace("    </dependency>", "      <exclusions/>\n    </dependency>")
    pom.write_text(text, encoding="utf-8")
    expected, result = (
        run_child("-m", "shadowscan", "resolve", "--repo", str(repo), "--root", "g:root:1")
        for repo in (plain, noisy)
    )
    assert (expected.returncode, expected.stderr) == (0, "")
    assert (result.returncode, result.stdout) == (0, expected.stdout)
    source = f"{pom} (g:root:1): "
    assert result.stderr == (
        f"{source}project g:root:1: ignoring <properties>\n"
        f"{source}dependency g:a:1: ignoring <exclusions>\n"
    )


def test_parse_warnings_escape_terminal_controls(tmp_path):
    make_repo(tmp_path, {"g:root:1": ["g:a:1"]})
    pom = tmp_path / "g" / "root" / "1" / "pom.xml"
    text = pom.read_text(encoding="utf-8").replace(
        "<artifactId>a</artifactId>", "<artifactId>b&#x9b;2J</artifactId><exclusions/>"
    )
    pom.write_text(text, encoding="utf-8")
    result = run_child("-m", "shadowscan", "resolve", "--repo", str(tmp_path), "--root", "g:root:1")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"{pom} (g:root:1): dependency g:b\\x9b2J:1: ignoring <exclusions>\n"
        "error: cannot resolve g:b\\x9b2J:1, requested by the node at path []\n"
    )


class TestDeepChain:
    """A chain far deeper than the interpreter's recursion limit, allowed by --max-depth."""

    LENGTH = 1000

    @pytest.fixture(scope="class")
    def chain_args(self, tmp_path_factory):
        texts = [f"org.chain:c{level}:1.0" for level in range(self.LENGTH + 1)]
        poms = {text: [following] for text, following in zip(texts, texts[1:])}
        poms[texts[-1]] = []
        classes = {
            text: ["org.chain.Shared", f"org.chain.C{level}"] for level, text in enumerate(texts)
        }
        repo = make_repo(tmp_path_factory.mktemp("chain"), poms, classes)
        return ["--repo", str(repo), "--root", texts[0], "--max-depth", str(self.LENGTH + 100)]

    def test_classpath(self, capsys, chain_args):
        code, out, _ = run(capsys, "classpath", *chain_args)
        assert code == 0
        expected = [f"org.chain:c{level}:1.0" for level in range(1, self.LENGTH + 1)]
        assert out.splitlines() == expected

    def test_scan(self, capsys, chain_args):
        code, out, _ = run(capsys, "scan", *chain_args, "--format", "json")
        assert code == 0
        [finding] = json.loads(out)["payload"]["findings"]
        assert finding["class_name"] == "org.chain.Shared"
        assert finding["winner"] == "org.chain:c1:1.0"
        assert len(finding["shadowed_victims"]) == self.LENGTH - 1

    def test_text_resolve(self, capsys, chain_args):
        code, out, _ = run(capsys, "resolve", *chain_args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "org.chain:c0:1.0"
        assert lines[1] == "+-org.chain:c1:1.0"
        assert lines[self.LENGTH] == "   " * (self.LENGTH - 1) + f"+-org.chain:c{self.LENGTH}:1.0"
        assert lines[self.LENGTH + 1 :] == ["", "no conflicts"]

    def test_json_resolve_is_refused_as_an_input_error(self, capsys, chain_args):
        # two nesting levels per tree level: 1 000 levels exceed what JSON readers accept
        code, out, err = run(capsys, "resolve", *chain_args, "--format", "json")
        assert (code, out) == (1, "")
        assert err == (
            f"error: the JSON report would nest deeper than {_MAX_NESTING} levels, "
            "the most JSON readers accept; use --format text\n"
        )

    def test_a_spawned_json_resolve_is_refused_before_its_first_byte(self, chain_args):
        result = subprocess.run(
            [sys.executable, "-m", "shadowscan", "resolve", *chain_args, "--format", "json"],
            capture_output=True, env=stdout_child_env(False), timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"error: the JSON report would nest deeper than ")


class Pair(tuple):
    """A tuple subclass without ``_fields``: not a record, so not JSON."""


@dataclass(frozen=True)
class Point:
    """A dataclass names no ``_fields``: not a record, so not JSON."""

    x: int


class TestJsonReport:
    @staticmethod
    def nested(pairs):
        """A payload of `pairs` object/array pairs, the shape of a tree's nodes, around
        ["leaf"], and the report's expected lines."""
        payload = ["leaf"]
        for _ in range(pairs):
            payload = {"children": [payload]}
        opening, closing = [], []
        for level in range(1, 2 * pairs, 2):
            opening += ["  " * level + "{", "  " * (level + 1) + '"children": [']
            closing = ["  " * (level + 1) + "]", "  " * level + "}"] + closing
        inner = 2 * pairs + 1
        lines = [
            "{", '  "command": "resolve",', '  "inputs": {},', '  "payload": {', *opening[1:],
            "  " * inner + "[", "  " * (inner + 1) + '"leaf"', "  " * inner + "]",
            *closing[:-1], "  },", '  "schema_version": 1', "}",
        ]
        return payload, lines

    def test_payload_nested_to_the_limit(self):
        # the report object, the pairs and the innermost array: far deeper
        # than the interpreter's recursion limit allows a recursive encoder
        pairs = (_MAX_NESTING - 2) // 2
        assert 1 + 2 * pairs + 1 == _MAX_NESTING
        payload, lines = self.nested(pairs)
        assert _json_report("resolve", {}, payload) == "\n".join(lines) + "\n"

    def test_payload_nested_past_the_limit_is_refused(self):
        payload, _ = self.nested((_MAX_NESTING - 2) // 2)
        with pytest.raises(ReportTooDeep, match=f"deeper than {_MAX_NESTING} levels"):
            _json_report("resolve", {}, [payload])

    @staticmethod
    def findings_under(arrays):
        """Two findings under ``arrays`` arrays, so that the items of their path
        and victim arrays sit at nesting level ``arrays + 4``, and the same
        payload with each finding written out as a plain object."""
        findings = [
            ShadowFinding("org.x.A", coord("g:a:1"), (coord("g:b:1"), coord("g:c:1")), (0, 1)),
            ShadowFinding("org.x.B", coord("g:a:1"), (), (2,)),
        ]
        payload = findings
        plain = [
            {
                "class_name": finding.class_name,
                "shadowed_victims": list(map(str, finding.shadowed_victims)),
                "winner": str(finding.winner),
                "winner_depth": finding.winner_depth,
                "winner_path": list(finding.winner_path),
            }
            for finding in findings
        ]
        for _ in range(arrays):
            payload, plain = [payload], [plain]
        return payload, plain

    def test_record_array_nested_to_the_limit(self):
        # the report object and the wrapping arrays hold the findings array at
        # level _MAX_NESTING - 3, so each finding's arrays reach the limit
        payload, plain = self.findings_under(_MAX_NESTING - 4)
        report = _json_report("scan", {}, payload)
        assert report == _json_report("scan", {}, plain)
        assert "  " * _MAX_NESTING + '"g:c:1"\n' in report
        assert "  " * (_MAX_NESTING + 1) not in report

    def test_record_array_nested_past_the_limit_is_refused(self):
        payload, _ = self.findings_under(_MAX_NESTING - 3)
        with pytest.raises(ReportTooDeep, match=f"deeper than {_MAX_NESTING} levels"):
            _json_report("scan", {}, payload)

    def test_a_named_tuple_record_is_an_object_of_its_fields_and_derived_members(self):
        verdict = MitigationVerdict(MitigationRule.SEALED_JARS)
        finding = ShadowFinding("org.x.A", coord("g:a:1"), (coord("g:b:1"),), (0, 1))
        node = ResolvedNode(coord("g:x:2"), (1, 0), 4, OmittedConflict(coord("g:x:1")))
        payload = {"verdict": verdict, "finding": finding, "node": node}
        report = json.loads(_json_report("check", {}, payload))
        assert report["payload"] == {
            "verdict": {
                "rule": "sealed-jars", "violations": [], "diagnostic": None, "passed": True,
            },
            "finding": {
                "class_name": "org.x.A", "winner": "g:a:1", "shadowed_victims": ["g:b:1"],
                "winner_path": [0, 1], "winner_depth": 2,
            },
            "node": {
                "coordinate": "g:x:2", "path": [1, 0], "bfs_index": 4, "children": [],
                "status": {"winner": "g:x:1", "kind": "omitted-conflict"}, "depth": 2,
            },
        }

    @pytest.mark.parametrize("value", [1.5, {1}, object(), b"bytes", Pair((1, 2)), Point(1)])
    def test_an_unsupported_type_is_rejected(self, value):
        with pytest.raises(TypeError):
            _json_report("resolve", {}, {"value": value})


def test_a_traced_scan_runs_and_counts_content_bytes():
    # the tracer's counters read repo.entries after inventory, so every entry
    # the run reads content from must be in that view by then
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        code, out, err = tracer.run(main, ["scan", *ATTACK, "--format", "json"])
    assert (code, err) == (0, b"")
    assert json.loads(out)["command"] == "scan"
    assert tracer.counts["inventory.content_bytes"] > 0


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_traced_command_computes_each_stage_once(argv):
    # every command reads its stages from one cli.Run; compare reads the
    # inventory list that inventory_all returns, and builds the Maven and the
    # Gradle classpath once each
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        code, out, err = tracer.run(main, [*argv, *CWA, "--format", "json"])
    assert err == b""
    assert json.loads(out)["command"] == argv[0]
    names = [span[spans.NAME] for span in tracer.spans]
    for stage in ("pom.load_repository", "resolver.resolve", "inventory.inventory_all",
                  "analysis.effective_classes"):
        assert names.count(stage) <= 1, stage
    assert "inventory.load_inventory" not in names
    if argv[0] == "compare":
        assert code == 0
        assert tracer.counts["inventory.content_bytes"] > 0
        assert names.count("ordering.build_classpath") == 2
        assert names.count("inventory.inventory_all") == 1
    else:
        assert names.count("ordering.build_classpath") <= 1


def test_the_traced_benchmark_counts_every_resolved_node(tmp_path):
    # spans._resolution_counts walks report.tree.root by .children and .included
    poms = {
        "g:root:1": ["g:a:1", "g:b:1"],
        "g:a:1": ["g:x:1.0"],
        "g:b:1": ["g:x:2.0", "g:a:1"],
        "g:x:1.0": [],
        "g:x:2.0": [],
    }
    repo = load_repository(make_repo(tmp_path, poms))
    report = resolve(repo, fetch_pom(repo, coord("g:root:1")))
    counts = load_spans()._resolution_counts(report, ())
    assert counts == {"resolver.nodes": 6, "resolver.omitted": 2, "resolver.conflicts": 1}
    assert counts["resolver.nodes"] == len(report.tree.nodes)

"""Command-line behavior: output, exit codes, determinism."""

from __future__ import annotations

import importlib
import importlib.util
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from shadowscan.cli import _MAX_NESTING, _json_report, main
from shadowscan.errors import ReportTooDeep
from tests.helpers import FIXTURES, coord, make_repo, write_pom

SAMPLE = ["--repo", str(FIXTURES / "sample-app"), "--root", "com.example:Project:1.0"]
ATTACK = ["--repo", str(FIXTURES / "poc-attack-order"), "--root", "org.example:victim:1.0"]
SAFE = ["--repo", str(FIXTURES / "poc-safe-order"), "--root", "org.example:victim:1.0"]
CWA = ["--repo", str(FIXTURES / "cwa-server"), "--root", "app.coronawarn:cwa-parent:3.2.0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_malformed_allowlist_pattern_is_an_input_error(self, capsys, tmp_path):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("org.*.broken\n", encoding="utf-8")
        code, _, err = run(capsys, "check", *ATTACK, "--allowlist", str(allowlist))
        assert code == 1
        assert "pattern" in err or "'*'" in err


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

    def test_unreached_directory_with_an_invalid_name_is_skipped(self, capsys, caplog, tmp_path):
        repo = self.attack_copy(tmp_path)
        clean = self.json_outputs(capsys, repo)
        pom = repo / "org.stray" / "un reached" / "1.0" / "pom.xml"
        pom.parent.mkdir(parents=True)
        pom.write_text("<project/>\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="shadowscan.pom"):
            stray = self.json_outputs(capsys, repo)
        assert [(code, out) for code, out, _ in stray] == [(code, out) for code, out, _ in clean]
        assert [code for code, _, _ in stray] == [0, 0, 0, 0]
        warnings = [record.getMessage() for record in caplog.records]
        assert len(warnings) == len(self.COMMANDS)
        assert all(message.startswith(f"skipping {pom}: ") for message in warnings)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_reached_malformed_pom_is_an_input_error(self, capsys, tmp_path, command):
        repo = self.attack_copy(tmp_path)
        self.truncate(repo / "org.evil" / "fakelibrary" / "1.0" / "pom.xml")
        code, out, err = run(
            capsys, *command, "--repo", str(repo), "--root", "org.example:victim:1.0",
            "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: not well-formed XML")


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

    @pytest.mark.parametrize("value", [1.5, {1}, object(), b"bytes"])
    def test_an_unsupported_type_is_rejected(self, value):
        with pytest.raises(TypeError):
            _json_report("resolve", {}, {"value": value})


def test_every_call_the_traced_benchmark_wraps_is_bound():
    # shadowbench/spans.py swaps each (module, attribute) for a span wrapper;
    # a name a refactor drops from its module would crash `run.py --trace 1`
    path = Path(__file__).resolve().parent.parent / "shadowbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("shadowbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_CALLS
    for module_name, attribute, _, _ in spans.LAYER_CALLS:
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), (
            f"{module_name}.{attribute}"
        )

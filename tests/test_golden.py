"""Every command's stdout on the bundled fixtures is byte-identical to a recorded report.

``golden_reports.json`` maps "<fixture> <command> <format>" to the exit code
and the SHA-256 of stdout, with ``--repo fixtures/<fixture>`` given relative
to the project root. A change to the recorded bytes is a change to schema v1
or to the text output, and has to be made on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from shadowscan import cli
from tests.helpers import FIXTURE_ROOTS, FIXTURES

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text(encoding="utf-8"))

# (attacker, target) of the hijack commands, chosen so both answers are nonempty
HIJACK = {
    "cwa-server": ("org.evil:json-schema-commons:1.0", "org.postgresql:postgresql:42.6.0"),
    "deep-hijack": ("com.example:D111:1.0", "com.example:D221:1.0"),
    "poc-attack-order": ("org.evil:fakelibrary:1.0", "org.test:nicelibrary:1.2"),
    "poc-safe-order": ("org.evil:attackerlibrary:1.0", "org.evil:fakelibrary:1.0"),
    "sample-app": ("com.example:D2:1.0", "com.example:D112:1.0"),
    "sealed-full": ("org.evil:impostor:1.0", "org.nice:corelib:1.0"),
    "sealed-partial": ("org.evil:impostor:1.0", "org.nice:corelib:1.0"),
}
COMMANDS = {
    "resolve": ["resolve"],
    "classpath": ["classpath"],
    "classpath-flat": ["classpath", "--layout", "flat"],
    "classpath-nested": ["classpath", "--layout", "nested"],
    "scan": ["scan"],
    "scan-gradle": ["scan", "--ecosystem", "gradle"],
    "hijack-attacker": ["hijack", "--attacker", "{attacker}"],
    "hijack-target": ["hijack", "--target", "{target}"],
    "check": ["check", "--root-module"],
    "check-plain": ["check"],
    "compare": ["compare"],
}
TEXT_RENDERERS = [
    "_tree_lines", "_conflict_lines", "_finding_lines", "_verdict_lines", "_comparison_lines",
    "_classpath_lines", "_hijack_lines",
]
JSON_RENDERERS = ["_json_report", "_json_text"]


def run(capsys, fixture: str, command: str, output_format: str) -> tuple[int, str]:
    attacker, target = HIJACK[fixture]
    argv = [arg.format(attacker=attacker, target=target) for arg in COMMANDS[command]]
    argv += ["--repo", f"fixtures/{fixture}", "--root", FIXTURE_ROOTS[fixture]]
    code = cli.main([*argv, "--format", output_format])
    return code, capsys.readouterr().out


def test_every_fixture_command_and_format_is_recorded():
    assert sorted(GOLDEN) == sorted(
        f"{fixture} {command} {output_format}"
        for fixture in FIXTURE_ROOTS for command in COMMANDS for output_format in ("text", "json")
    )
    assert sorted(path.name for path in FIXTURES.iterdir()) == sorted(FIXTURE_ROOTS)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_matches_the_recorded_bytes(capsys, monkeypatch, key):
    monkeypatch.chdir(FIXTURES.parent)
    fixture, command, output_format = key.split()
    code, out = run(capsys, fixture, command, output_format)
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == GOLDEN[key]


@pytest.mark.parametrize(
    ("output_format", "unused"), [("json", TEXT_RENDERERS), ("text", JSON_RENDERERS)]
)
def test_only_the_requested_format_is_rendered(capsys, monkeypatch, output_format, unused):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{output_format} output rendered the other format")

    for name in unused:
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(FIXTURES.parent)
    for command in COMMANDS:
        code, out = run(capsys, "poc-attack-order", command, output_format)
        assert code in (cli.EXIT_OK, cli.EXIT_MITIGATION_FAILED) and out

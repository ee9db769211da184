"""Every command's stdout on the bundled fixtures is byte-identical to a recorded report.

``golden_reports.json`` maps "<fixture> <command> <format>" to the exit code
and the SHA-256 of stdout, with ``--repo fixtures/<fixture>`` given relative
to the project root. A change to the recorded bytes is a change to schema v1
or to the text output, and has to be made on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import shadowscan
from shadowscan import cli, jsonv1, text
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
JSON_RENDERERS = ["report_pieces", "pieces", "_column", "_record_tree"]


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


@pytest.mark.parametrize("fixture", sorted(FIXTURE_ROOTS))
def test_every_record_array_and_tree_is_written_column_by_column(capsys, monkeypatch, fixture):
    # a member that the column encoder refuses keeps the bytes, but sends its
    # records to the value-by-value loop, which writes them about 2x slower
    assembled = []
    column, record_tree = jsonv1._column, jsonv1._record_tree

    def checked_column(values, *args):
        found = column(values, *args)
        if sys._getframe(1).f_code.co_name == "pieces":  # an array of records, one record or more
            assert found is not None, f"_column handed {values!r:.200} back to the value loop"
            assembled.append("_column")
        return found

    def checked_tree(root, *args):
        assert record_tree(root, *args), f"_record_tree handed {root!r:.200} back to the value loop"
        assembled.append("_record_tree")
        return True

    monkeypatch.setattr(jsonv1, "_column", checked_column)
    monkeypatch.setattr(jsonv1, "_record_tree", checked_tree)
    monkeypatch.chdir(FIXTURES.parent)
    for command in COMMANDS:
        assert run(capsys, fixture, command, "json")[1]
    assert sorted(set(assembled)) == ["_column", "_record_tree"]


@pytest.mark.parametrize(
    ("output_format", "unused"),
    [("json", (text, TEXT_RENDERERS)), ("text", (jsonv1, JSON_RENDERERS))],
)
def test_only_the_requested_format_is_rendered(capsys, monkeypatch, output_format, unused):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{output_format} output rendered the other format")

    module, names = unused
    for name in names:
        monkeypatch.setattr(module, name, refuse)
    # a run does not even import the other format's module
    monkeypatch.delitem(sys.modules, module.__name__)
    monkeypatch.delattr(shadowscan, module.__name__.rpartition(".")[2])
    monkeypatch.chdir(FIXTURES.parent)
    for command in COMMANDS:
        code, out = run(capsys, "poc-attack-order", command, output_format)
        assert code in (cli.EXIT_OK, cli.EXIT_MITIGATION_FAILED) and out
    assert module.__name__ not in sys.modules

"""The README's examples run as written, so a stale snippet fails the suite."""

from __future__ import annotations

import re
from pathlib import Path

from shadowscan import cli
from shadowscan.inventory import inspect_classlist
from tests.helpers import coord

README = Path(__file__).resolve().parent.parent / "README.md"


def section_text(section: str) -> str:
    """The README's text under the ``## section`` heading, up to the next such heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def fenced_blocks(section: str) -> list[tuple[str, str]]:
    """The (language, body) of every fenced block under the ``## section`` heading."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", section_text(section), flags=re.MULTILINE | re.DOTALL)


def test_the_cli_section_names_every_command_and_option():
    text = section_text("CLI")
    for command, (_, _, options, *_) in cli._COMMANDS.items():
        assert re.search(rf"`{command}[ `]", text), command
        for option in (*cli._SHARED, *options):
            # a whole option: --root is not found in --root-module
            assert re.search(rf"{option}(?![\w-])", text), (command, option)


def test_the_library_example_runs_from_the_repo_root(monkeypatch, capsys):
    (code,) = [body for language, body in fenced_blocks("Library") if language == "python"]
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "org.test.NiceClass loads from org.evil:fakelibrary:1.0 at depth 2",
        "can shadow it: org.evil:attackerlibrary:1.0 org.evil:fakelibrary:1.0",
    ]


def test_the_class_list_example_parses(tmp_path):
    (listing,) = [body for _, body in fenced_blocks("Repository layout") if "@module" in body]
    path = tmp_path / "classes.txt"
    path.write_text(listing, encoding="utf-8")
    inventory = inspect_classlist(path, coord("org.nice:nice:1.0"))
    assert inventory.classes == ("org.nice.ClassA", "org.nice.ClassB")
    assert inventory.sealed_packages == {"org.nice"}

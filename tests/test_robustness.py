"""Random corruption of a reached POM or class list ends in an exit code, never a crash."""

from __future__ import annotations

import contextlib
import io
import shutil

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from shadowscan.cli import main
from tests.helpers import FIXTURES

# fixture -> its root; the root reaches every POM and class list in the fixture
ROOTS = {"poc-attack-order": "org.example:victim:1.0", "sealed-partial": "org.example:app:1.0"}
COMMANDS = [["resolve"], ["scan"], ["check"], ["compare"]]


@pytest.fixture(scope="module")
def repos(tmp_path_factory):
    base = tmp_path_factory.mktemp("corrupted")
    copies = {}
    for fixture in ROOTS:
        copies[fixture] = base / fixture
        shutil.copytree(FIXTURES / fixture, copies[fixture])
    return copies


def _inputs(repo):
    return sorted(
        path for path in repo.glob("*/*/*/*") if path.name in ("pom.xml", "classes.txt")
    )


def _corrupt(data, original: bytes) -> bytes:
    corrupted = bytearray(original)
    edits = data.draw(
        st.lists(st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255)),
                 min_size=1, max_size=6)
    )
    for offset, value in edits:
        corrupted[offset] = value
    if data.draw(st.booleans()):
        del corrupted[data.draw(st.integers(0, len(corrupted))):]
    return bytes(corrupted)


@given(st.data())
def test_every_command_exits_with_a_stable_code(repos, data):
    fixture = data.draw(st.sampled_from(sorted(ROOTS)))
    target = data.draw(st.sampled_from(_inputs(repos[fixture])))
    original = target.read_bytes()
    target.write_bytes(_corrupt(data, original))
    try:
        for command in COMMANDS:
            argv = [*command, "--repo", str(repos[fixture]), "--root", ROOTS[fixture],
                    "--format", data.draw(st.sampled_from(["text", "json"]))]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in range(5), (argv, code)
            assert "Traceback" not in err.getvalue()
    finally:
        target.write_bytes(original)

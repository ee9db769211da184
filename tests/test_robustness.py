"""Random corruption of a reached POM, class list or JAR, or a FIFO, directory or device
in place of a class list or beside it as a JAR, ends in an exit code, never a crash or a hang."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import signal
import zipfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan.cli import main
from shadowscan.errors import ShadowscanError
from shadowscan.jar import inspect_jar
from tests.helpers import FIXTURES, coord

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


class Hang(Exception):
    """A command outlived its time limit; not an OSError, so no reader maps it to IoFailure."""


def _hang(signum, frame):
    raise Hang


@contextlib.contextmanager
def _time_limit(seconds):
    # SIGALRM interrupts a blocking open or read, such as on a FIFO without a writer
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _replaced(data, target):
    """``target``, a reached class list, swapped for a FIFO, a directory or a link to
    /dev/null, or such a file put beside it as ``artifact.jar``, which comes first."""
    path = target.with_name(data.draw(st.sampled_from([target.name, "artifact.jar"])))
    moved = target.with_name(target.name + ".moved")
    if path == target:
        target.rename(moved)
    kind = data.draw(st.sampled_from(["fifo", "directory", "devnull"]))
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "directory":
        path.mkdir()
    else:
        path.symlink_to(os.devnull)
    try:
        yield
    finally:
        if kind == "directory":
            path.rmdir()
        else:
            path.unlink()
        if path == target:
            moved.rename(target)


@given(st.data())
def test_every_command_exits_with_a_stable_code(repos, data):
    fixture = data.draw(st.sampled_from(sorted(ROOTS)))
    target = data.draw(st.sampled_from(_inputs(repos[fixture])))
    original = target.read_bytes()
    if target.name == "classes.txt" and data.draw(st.booleans()):
        damaged = _replaced(data, target)
    else:
        target.write_bytes(_corrupt(data, original))
        damaged = contextlib.nullcontext()
    try:
        with damaged:
            for command in COMMANDS:
                argv = [*command, "--repo", str(repos[fixture]), "--root", ROOTS[fixture],
                        "--format", data.draw(st.sampled_from(["text", "json"]))]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    with _time_limit(10):
                        code = main(argv)
                assert code in range(5), (argv, code)
                assert "Traceback" not in err.getvalue()
    finally:
        target.write_bytes(original)


MANIFEST = (
    "Manifest-Version: 1.0\nSealed: true\n\n"
    "Name: org/nice/\nSealed: true\n"
)
JAR_ENTRIES = [
    "org/nice/A.class", "org/nice/B.class", "org/evil/A.class", "org/evil/inner/C$D.class",
    "module-info.class", "readme.txt",
]


@pytest.fixture(scope="module")
def jar(tmp_path_factory):
    """A 7-entry deflated JAR and the byte ranges that corruption aims at."""
    path = tmp_path_factory.mktemp("jar") / "artifact.jar"
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("META-INF/MANIFEST.MF", MANIFEST)
        for number, name in enumerate(JAR_ENTRIES):
            archive.writestr(name, bytes(range(number, 256)) * 4)
    data = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        manifest = archive.getinfo("META-INF/MANIFEST.MF")
        local = manifest.header_offset
        directory = archive.start_dir  # the manifest's record comes first
        regions = [
            (0, len(data)),
            (local, local + 30 + len(manifest.filename) + manifest.compress_size),
            (directory, len(data)),
            (directory, directory + 46 + len(manifest.filename)),
        ]
    return path, data, regions


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_a_corrupted_jar_raises_only_shadowscan_errors(jar, rng):
    # offsets come from a seeded Random: Hypothesis's own integers favour the
    # ends of a range, and a header field is a few bytes in its middle
    path, original, regions = jar
    low, high = rng.choice(regions)
    corrupted = bytearray(original)
    for _ in range(rng.randint(1, 4)):
        corrupted[rng.randrange(low, high)] = rng.randrange(256)
    path.write_bytes(bytes(corrupted))
    try:
        inspect_jar(path, coord("org.test:sample:1.0"))
    except ShadowscanError:
        pass
    finally:
        path.write_bytes(original)

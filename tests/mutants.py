"""Kept mutants: breakages of the program that named tests must catch.

Each entry changes one module under ``src/shadowscan`` by exact text and
names the tests that must fail on the change, and the change whose notes in
CHANGES.md first described it. Run ``python tests/mutants.py [name ...]``
from the project root: it copies ``src/`` to a temporary directory, checks
that the named tests pass on the unchanged copy, then applies one mutant at
a time and runs its tests in one ``pytest`` process, never in parallel. It
prints each mutant as killed or survived with the time taken, and exits
non-zero if a mutant survives, if its old text does not occur exactly once
(the code moved: update the entry), or if its tests do not run.

pytest does not collect this file: it is not named ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

SEEDED_PLAIN = ("tests/test_pom.py::TestPlainReader::"
                "test_seeded_plain_shaped_poms_read_as_elementtree_and_the_per_name_walk_read_them")


class Mutant(NamedTuple):
    name: str
    module: str  # a file under src/shadowscan
    edits: tuple[tuple[str, str], ...]  # (old text, which occurs once; new text), applied in order
    tests: tuple[str, ...]  # pytest node ids, each of which must fail
    change: int  # the number of the change whose CHANGES.md entry named the mutant


MUTANTS = [
    Mutant(
        "plain-reserved-uri-accepted", "pom.py",
        (("head is None or head[1] in _RESERVED_NAMESPACES or ", "head is None or "),),
        (SEEDED_PLAIN, "tests/test_pom.py::TestParsePom::"
                       "test_a_close_brace_in_a_namespace_uri_is_refused_as_malformed"),
        30,
    ),
    Mutant(
        # the dependency tags give way to a leaf of their name, and a leaf in a
        # section is passed over, so <dependency></dependency> is lost
        "plain-leaf-before-tag", "pom.py",
        (("(/?dependenc(?:y|ies)|/project)",
          r"(/?dependenc(?:y|ies)(?!>[^\x00-\x08\x0b-\x1f&<]*</dependenc(?:y|ies)>)|/project)"),
         ("            elif section is not None and opened is None:  # a leaf of the project or a dependency\n"
          "                return None\n",
          "            elif section is not None and opened is None:  # a leaf of the project or a dependency\n"
          "                pass\n")),
        (SEEDED_PLAIN,),
        30,
    ),
    Mutant(
        "plain-second-section-appended", "pom.py",
        (("            section = []\n            if dependencies is None:\n"
          "                dependencies = section\n",
          "            if dependencies is None:\n                dependencies = []\n"
          "            section = dependencies\n"),),
        (SEEDED_PLAIN,),
        30,
    ),
    Mutant(
        "plain-conventional-dependency-outside-a-section", "pom.py",
        (("                if section is None or opened is not None:\n                    return None\n",
          "                if section is None:\n                    continue\n"
          "                if opened is not None:\n                    return None\n"),),
        (SEEDED_PLAIN,),
        34,
    ),
    Mutant(
        "one-match-coordinate-without-placeholder-fallback", "pom.py",
        (('if child_names == _COORDINATES and "${" not in text and ',
          "if child_names == _COORDINATES and "),),
        (SEEDED_PLAIN,),
        34,
    ),
    Mutant(
        # a padded or spaced text passes the check and keeps its whitespace
        "one-match-coordinate-without-whitespace-fallback", "pom.py",
        (("_COORDINATE_TEXT.fullmatch(text):", '_COORDINATE_TEXT.fullmatch("".join(text.split())):'),),
        (SEEDED_PLAIN,),
        34,
    ),
    Mutant(
        # the one-set check keyed by coordinate, so a group:artifact declared
        # again at another version passes
        "duplicate-check-keyed-by-coordinate", "pom.py",
        (("if len({dependency.ga for dependency in dependencies}) < len(dependencies):",
          "if len(set(dependencies)) < len(dependencies):"),),
        (SEEDED_PLAIN, "tests/test_pom.py::TestParsePom::test_duplicate_group_artifact"),
        34,
    ),
]


def apply(source: str, mutant: Mutant) -> str | None:
    """The mutated text, or None if an old text does not occur exactly once."""
    for old, new in mutant.edits:
        if source.count(old) != 1:
            return None
        source = source.replace(old, new)
    return source


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code and output for the tests, importing the program from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return completed.returncode, completed.stdout + completed.stderr


def failed(output: str, test: str) -> bool:
    return any(line.startswith(f"FAILED {test}") for line in output.splitlines())


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="shadowscan-mutants-") as work:
        src = Path(work) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        started = time.perf_counter()
        code, output = run_tests(src, tests)
        print(f"unmutated: exit code {code} in {time.perf_counter() - started:.1f} s")
        if code != 0:
            print(output)
            return 1
        for mutant in chosen:
            path = src / "shadowscan" / mutant.module
            original = path.read_text(encoding="utf-8")
            mutated = apply(original, mutant)
            if mutated is None:
                print(f"STALE     {mutant.name}: an old text does not occur once in {mutant.module}")
                bad += 1
                continue
            path.write_text(mutated, encoding="utf-8")
            started = time.perf_counter()
            try:
                code, output = run_tests(src, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            survivors = [test for test in mutant.tests if not failed(output, test)]
            if code == 1 and not survivors:
                print(f"killed    {mutant.name} ({seconds:.1f} s)")
                continue
            bad += 1
            print(f"SURVIVED  {mutant.name} ({seconds:.1f} s, exit code {code}): "
                  f"{', '.join(survivors) or 'the tests did not run'}")
            print(output)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

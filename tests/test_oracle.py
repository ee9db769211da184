"""Every command of the benchmark's mix, whole report against its independent oracle.

``shadowbench/oracle.py`` derives each expected report from the generator's
in-memory ``Workspace`` and never from ``shadowscan``: the tree and the
conflicts, both classpaths and their bindings, the findings, the three
verdicts and the comparison. Hypothesis draws small workspaces here; each is
written to disk and read back by ``cli.main``, in-process, for each command
of ``run.MIX``. A defect that only shows when stages combine fails here even
if no hand-made fixture holds it.

Not covered, because the oracle does not derive them: ``classpath``,
``hijack``, allowlists and a ``--max-depth`` below the tree's depth.
"""

from __future__ import annotations

import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan import cli

BENCH = str(Path(__file__).resolve().parent.parent / "shadowbench")
sys.path.insert(0, BENCH)
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # none under shadowbench/
try:
    import oracle
    import run
    import workloads
finally:
    sys.dont_write_bytecode = dont_write_bytecode
    sys.path.remove(BENCH)


@st.composite
def params(draw) -> workloads.Params:
    """Small ``workloads.Params`` inside the generator's preconditions.

    ``build`` needs ``0 < reachable <= poms - multi_version * (versions - 1)``
    and ``multi_version`` below that count; it never returns when no artifact
    may declare a dependency but more than one is reached; and it draws at
    most ``shared_packages * names_per_package`` classes per artifact, or
    ``names_per_package * 10`` without shared packages.
    """
    group_artifacts = draw(st.integers(1, 30))
    versions = draw(st.integers(1, 3))
    multi_version = draw(st.integers(0, min(group_artifacts - 1, 10)))
    reachable = draw(st.integers(1, min(group_artifacts, 20)))
    shared_packages = draw(st.integers(0, 5))
    names_per_package = draw(st.integers(1, 20))
    names = shared_packages * names_per_package or names_per_package * 10
    max_classes = draw(st.integers(0, min(names, 30)))
    shares = st.sampled_from([0.0, 0.3, 1.0])
    return workloads.Params(
        poms=group_artifacts + multi_version * (versions - 1),
        groups=draw(st.integers(1, 5)),
        reachable=reachable,
        versions=versions,
        multi_version=multi_version,
        max_deps=draw(st.integers(reachable > 1, 4)),
        content=draw(st.sampled_from(["classes", "jar"])),
        min_classes=draw(st.integers(0, max_classes)),
        max_classes=max_classes,
        shared_packages=shared_packages,
        names_per_package=names_per_package,
        sealed_share=draw(shares),
        module_share=draw(shares),
    )


@settings(max_examples=200)
@given(params(), st.integers(0, 2**16))
def test_every_mix_report_matches_the_oracle(shape, seed):
    workspace = workloads.build(shape, seed)
    with tempfile.TemporaryDirectory() as directory:
        workloads.write(workspace, Path(directory))
        reference = oracle.Oracle(workspace, directory)
        for name, command, expect in run.MIX:
            expected = expect(reference)
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(run.cli_argv(command, directory, workspace.root))
            assert code == expected.exit_code, f"{name}: {err.getvalue()}"
            difference = oracle.first_difference(expected.report, json.loads(out.getvalue()))
            assert difference is None, f"{name}: {difference}"

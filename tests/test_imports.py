"""Each command imports only the ``shadowscan`` modules of the stages it runs.

The module sets are read in fresh interpreters, where no other test has
imported anything; an eager import added later changes a set here.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from tests.helpers import FIXTURES
from tests.test_tracer_bindings import COMMANDS, CWA

# the shadowscan.* entries of sys.modules after `code` ran with stdout captured
PROBE = """\
import io, sys
sys.stdout = io.StringIO()
{code}
sys.stdout = sys.__stdout__
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "shadowscan"))
"""

RESOLUTION = {
    "shadowscan", "shadowscan.cli", "shadowscan.errors", "shadowscan.model",
    "shadowscan.ordering", "shadowscan.pom", "shadowscan.resolver",
}
CLASSES = RESOLUTION | {"shadowscan.inventory", "shadowscan.analysis"}
LOADED_BY = {
    # the tree and the conflicts take the JSON writer's row pass
    "resolve": RESOLUTION | {"shadowscan.rows"},
    "classpath": RESOLUTION,
    "hijack": RESOLUTION | {"shadowscan.analysis"},
    "scan": CLASSES,
    "compare": CLASSES,
    "check": CLASSES | {"shadowscan.mitigations"},
}


def loaded(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_the_package_loads_no_module_before_a_name_is_read():
    assert loaded("import shadowscan") == {"shadowscan"}


def test_the_cli_loads_only_the_resolution_stages():
    assert loaded("import shadowscan.cli") == RESOLUTION


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_json_command_loads_only_the_stages_it_runs(argv):
    code = f"from shadowscan.cli import main; main({[*argv, *CWA, '--format', 'json']!r})"
    assert loaded(code) == LOADED_BY[argv[0]]


def test_only_a_text_report_loads_the_text_views():
    code = f"from shadowscan.cli import main; main({['resolve', *CWA, '--format', 'text']!r})"
    assert loaded(code) == RESOLUTION | {"shadowscan.text"}

"""Each command imports only the ``shadowscan`` modules of the stages it runs.

The module sets are read in fresh interpreters, where no other test has
imported anything; an eager import added later changes a set here. They
hold the ``xml`` modules too: only a POM outside the plain subset loads
ElementTree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import zipfile

import pytest

from shadowscan.cli import main
from tests.helpers import FIXTURE_ROOTS, FIXTURES, make_repo
from tests.test_golden import COMMANDS as GOLDEN_COMMANDS
from tests.test_golden import HIJACK
from tests.test_tracer_bindings import COMMANDS, CWA

# the shadowscan.* and xml.* entries of sys.modules after `code` ran with stdout captured
PROBE = """\
import io, sys
sys.stdout = io.StringIO()
{code}
sys.stdout = sys.__stdout__
print(*sorted(name for name in sys.modules if name.partition(".")[0] in ("shadowscan", "xml")))
"""

RESOLUTION = {
    "shadowscan", "shadowscan.cli", "shadowscan.errors", "shadowscan.model",
    "shadowscan.ordering", "shadowscan.pom", "shadowscan.resolver",
}
# the bindings sit beside the inventories: check reads no finding, so it loads no analysis
CLASSES = RESOLUTION | {"shadowscan.inventory"}
# a JSON report also loads the writer, shadowscan.jsonv1; class lists never load shadowscan.jar
LOADED_BY = {
    "resolve": RESOLUTION,
    "classpath": RESOLUTION,
    "hijack": RESOLUTION | {"shadowscan.analysis"},
    "scan": CLASSES | {"shadowscan.analysis"},
    "compare": CLASSES | {"shadowscan.analysis"},
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
    assert loaded(code) == LOADED_BY[argv[0]] | {"shadowscan.jsonv1"}


def test_only_a_text_report_loads_the_text_views():
    code = f"from shadowscan.cli import main; main({['resolve', *CWA, '--format', 'text']!r})"
    assert loaded(code) == RESOLUTION | {"shadowscan.text"}


def test_an_archive_loads_the_jar_reader(tmp_path):
    make_repo(tmp_path, {"g:root:1": ["g:lib:1"], "g:lib:1": []}, {"g:root:1": ["g.Main"]})
    with zipfile.ZipFile(tmp_path / "g" / "lib" / "1" / "artifact.jar", "w") as archive:
        archive.writestr("g/Main.class", b"")
    argv = ["scan", "--repo", str(tmp_path), "--root", "g:root:1", "--format", "json"]
    code = f"from shadowscan.cli import main; assert main({argv!r}) == 0"
    assert loaded(code) == LOADED_BY["scan"] | {"shadowscan.jsonv1", "shadowscan.jar"}


def test_no_command_over_the_fixtures_loads_elementtree():
    runs = []
    for fixture, root in FIXTURE_ROOTS.items():
        attacker, target = HIJACK[fixture]
        for command in GOLDEN_COMMANDS.values():
            argv = [arg.format(attacker=attacker, target=target) for arg in command]
            for output_format in ("json", "text"):
                runs.append([*argv, "--repo", str(FIXTURES / fixture), "--root", root,
                             "--format", output_format])
    code = f"from shadowscan.cli import main\nfor argv in {runs!r}: main(argv)"
    assert not {name for name in loaded(code) if name.startswith("xml")}


def test_a_pom_outside_the_plain_subset_loads_elementtree_and_reads_alike(
    tmp_path, monkeypatch, capsys,
):
    shutil.copytree(FIXTURES / "cwa-server", tmp_path / "cwa-server")
    pom = tmp_path / "cwa-server" / "app.coronawarn" / "cwa-parent" / "3.2.0" / "pom.xml"
    pom.write_text(pom.read_text().replace("<dependencies>", "<!-- c --><dependencies>", 1))
    argv = ["resolve", "--repo", "cwa-server", "--root", FIXTURE_ROOTS["cwa-server"],
            "--format", "json"]
    reports = []
    for directory in (FIXTURES, tmp_path):  # the same --repo text names either copy
        monkeypatch.chdir(directory)
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    code = f"import os\nos.chdir({str(tmp_path)!r})\nfrom shadowscan.cli import main\nmain({argv!r})"
    modules = loaded(code)
    assert "xml.etree.ElementTree" in modules
    assert {name for name in modules if name.startswith("shadowscan")} == (
        LOADED_BY["resolve"] | {"shadowscan.jsonv1"}
    )

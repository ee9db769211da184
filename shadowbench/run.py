"""Benchmark of the shadowscan CLI on seeded synthetic repositories.

    python3 shadowbench/run.py --workload shadow-1k --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The workload is generated from the seed
into ``.shadowbench/`` (removed again at exit) and the program only sees
the generated files.

``--trace 0`` measures end to end: a single client runs the command mix
(resolve, scan, scan --ecosystem gradle, check, compare; all
``--format json``) one subprocess at a time, in a closed loop, until
``--seconds`` have passed. Every end-to-end time is a wall time scaled to
a fixed reference machine speed by a calibration run just before and just
after it (see ``Calibrated``), because the speed of a shared host's cores
changes by half from second to second; the plain wall times are printed
too. ``--trace 1`` runs the mix once untraced and
then in-process with a span around every call between layers (see
``spans.py``), and reports per-layer figures. Every report is checked
against the independent reference in ``oracle.py``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable

import oracle
import spans
import workloads
from workloads import Params, Workspace

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".shadowbench"

# Why each workload exists is recorded in BENCHMARK.json; jar-1k is kept for
# runs by hand (the JAR reader) but is not part of the timed set there. The
# sizes keep one pass of the mix to a few seconds, so that a run of 45 s
# takes about ten samples of every command and its medians stay steady on a
# small shared machine.
WORKLOADS: dict[str, Params] = {
    # heavy class collisions: analysis, the sealed and modules checks and the
    # findings payloads do most of the work
    "shadow-1k": Params(
        poms=1000, groups=50, reachable=100, versions=2, multi_version=100, max_deps=4,
        content="classes", min_classes=250, max_classes=250, shared_packages=100,
        names_per_package=100, sealed_share=0.2, module_share=0.1,
    ),
    # the ZIP reader dominates; collision-free buckets, so collision-path
    # changes should not move it
    "jar-1k": Params(
        poms=1000, groups=50, reachable=100, versions=2, multi_version=100, max_deps=4,
        content="jar", min_classes=250, max_classes=250, shared_packages=0,
        names_per_package=40, sealed_share=0.4, module_share=0.1,
    ),
    # POM parsing, resolution and the tree payload dominate; also runs the
    # robustness probes
    "conflict-2k": Params(
        poms=2000, groups=50, reachable=200, versions=3, multi_version=666, max_deps=6,
        content="classes", min_classes=1, max_classes=10, shared_packages=20,
        names_per_package=200, sealed_share=0.1, module_share=0.1,
    ),
}
PROBED = "conflict-2k"

MIX: tuple[tuple[str, list[str], Callable[[oracle.Oracle], oracle.Expected]], ...] = (
    ("resolve", ["resolve"], lambda o: o.resolve()),
    ("scan", ["scan"], lambda o: o.scan("maven")),
    ("scan_gradle", ["scan", "--ecosystem", "gradle"], lambda o: o.scan("gradle")),
    ("check", ["check", "--rules", "dup,sealed,modules", "--root-module"], lambda o: o.check()),
    ("compare", ["compare"], lambda o: o.compare()),
)
CALIBRATION = Path(__file__).resolve().parent / "calibration.py"
REFERENCE_S = 0.2  # calibration.py's wall time at the reference machine speed
RUN_LIMIT_S = 170.0  # commands still running then are killed; no pass starts that would end later
CHAIN_LENGTH = 1000
PROBE_PARAMS = Params(poms=60, groups=5, reachable=20, versions=2, multi_version=10, max_deps=3,
                      content="classes", min_classes=20, max_classes=20, shared_packages=5,
                      names_per_package=20, sealed_share=0.3, module_share=0.2)

E2E_UNITS = {
    "setup_s": "s", "resolve_s": "s", "scan_s": "s", "scan_gradle_s": "s", "check_s": "s",
    "compare_s": "s", "mix_s": "s", "peak_rss_mb": "MiB", "classes_per_s": "1/s",
}


@dataclasses.dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_mb: float


def cli_argv(command: list[str], repo: str, root: str, max_depth: int | None = None) -> list[str]:
    argv = [*command, "--repo", repo, "--root", root, "--format", "json"]
    if max_depth is not None:
        argv += ["--max-depth", str(max_depth)]
    return argv


def spawn(argv: list[str], cwd: Path, deadline: float) -> Outcome:
    """Run one interpreter to exit (killed at ``deadline``); time from spawn to exit, rusage from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(elapsed, process.returncode, out.read(), err.read(), usage.ru_maxrss / 1024)


def time_setup(cwd: Path, deadline: float) -> float:
    outcome = spawn(["-c", "import shadowscan.cli"], cwd, deadline)
    if outcome.exit_code != 0:
        raise RuntimeError(f"cannot import shadowscan.cli: {outcome.stderr.decode(errors='replace')}")
    return outcome.seconds


class Checker:
    """Compares reports with the reference; identical bytes are parsed only once."""

    def __init__(self, expected: dict[str, Callable[[], oracle.Expected]]) -> None:
        self._expected = expected
        self._cache: dict[str, oracle.Expected] = {}
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self.hashes: dict[str, list[str]] = defaultdict(list)
        self.failures: list[str] = []

    def expected(self, name: str) -> oracle.Expected:
        if name not in self._cache:
            self._cache[name] = self._expected[name]()
        return self._cache[name]

    def problem(self, name: str, exit_code: int, stdout: bytes, stderr: bytes) -> str | None:
        """Why this invocation is wrong, or None if it matches the reference."""
        if b"Traceback (most recent call last)" in stderr:
            return "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
        expected = self.expected(name)
        if exit_code != expected.exit_code:
            tail = stderr.decode(errors="replace").strip()[-200:]
            return f"exit code {exit_code}, expected {expected.exit_code}: {tail}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest not in self.hashes[name]:
            self.hashes[name].append(digest)
        key = (name, digest)
        if key not in self._verdicts:
            try:
                report = json.loads(stdout)
            except ValueError as exc:
                self._verdicts[key] = f"stdout is not JSON: {exc}"
            else:
                self._verdicts[key] = (
                    None if report == expected.report
                    else oracle.first_difference(expected.report, report)
                )
        return self._verdicts[key]

    def record(self, name: str, exit_code: int, stdout: bytes, stderr: bytes) -> None:
        problem = self.problem(name, exit_code, stdout, stderr)
        if problem is not None:
            self.failures.append(f"{name}: {problem}")


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}={ordered[min(n - 1, int(n * p / 100))]:.4f}"
    return f"max={ordered[-1]:.4f} (fewer than 11 samples)"


def generate(name: str, seed: int, work: Path) -> tuple[Workspace, float]:
    started = time.perf_counter()
    workspace = workloads.build(WORKLOADS[name], seed)
    workloads.write(workspace, work / "repo")
    return workspace, time.perf_counter() - started


def warm_up(work: Path, deadline: float) -> None:
    """Untimed: compile the bytecode cache and read every input file once.

    The first read of freshly written files is measurably slower than the
    later ones, and users scan repositories that are already on disk.
    """
    time_setup(work, deadline)
    for path in (work / "repo").rglob("*"):
        if path.is_file():
            path.read_bytes()


def mix_checker(workspace: Workspace) -> tuple[Checker, oracle.Oracle]:
    reference = oracle.Oracle(workspace, "repo")
    return Checker({op: (lambda make=make: make(reference)) for op, _, make in MIX}), reference


class Calibrated:
    """Scales wall times to the reference machine speed.

    The cores of a shared host slow down and speed up by half from one
    second to the next, and a run of the same commands can land mostly in
    slow or mostly in fast seconds. ``calibration.py`` runs before the
    first timed step and after every one; each wall time is divided by the
    mean of the calibration times on either side of it and multiplied by
    ``REFERENCE_S``, the calibration's time at the reference speed.
    """

    def __init__(self, cwd: Path, deadline: float) -> None:
        self._cwd = cwd
        self._deadline = deadline
        self.runs = [self._calibrate()]

    def _calibrate(self) -> float:
        outcome = spawn([str(CALIBRATION)], self._cwd, self._deadline)
        if outcome.exit_code != 0:
            raise RuntimeError(f"calibration failed: {outcome.stderr.decode(errors='replace')}")
        return outcome.seconds

    def scale(self, seconds: float) -> float:
        self.runs.append(self._calibrate())
        return seconds * REFERENCE_S * 2 / (self.runs[-2] + self.runs[-1])


def measure(
    workspace: Workspace, work: Path, seconds: int, deadline: float
) -> tuple[dict, Checker, int, dict]:
    """The untraced closed loop; returns the end-to-end metrics.

    Each pass times one interpreter set-up and then every command of the
    mix once, each wall time scaled by ``Calibrated``. Passes repeat while
    the next one, as long as the last, still ends within ``seconds``, so
    every metric is a median over the same number of passes. ``mix_s`` is
    the sum of the per-command medians: one pass of the mix.
    """
    checker, reference = mix_checker(workspace)
    warm_up(work, deadline)
    samples: dict[str, list[float]] = defaultdict(list)
    peak_rss = 0.0
    attempted = 0
    calibrated = Calibrated(work, deadline)
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        wall = time_setup(work, deadline)
        samples["wall setup"].append(wall)
        samples["setup"].append(calibrated.scale(wall))
        for op, command, _ in MIX:
            outcome = spawn(["-m", "shadowscan", *cli_argv(command, "repo", workspace.root)],
                            work, deadline)
            attempted += 1
            checker.record(op, outcome.exit_code, outcome.stdout, outcome.stderr)
            samples[f"wall {op}"].append(outcome.seconds)
            samples[op].append(calibrated.scale(outcome.seconds))
            peak_rss = max(peak_rss, outcome.max_rss_mb)
        now = time.perf_counter()
        pass_s = now - pass_started
        if now + pass_s - started > seconds or now + pass_s > deadline:
            break
    metrics = {f"{op}_s": statistics.median(samples[op]) for op, _, _ in MIX}
    metrics |= {
        "setup_s": statistics.median(samples["setup"]),
        "mix_s": sum(metrics[f"{op}_s"] for op, _, _ in MIX),
        "peak_rss_mb": peak_rss,
        "classes_per_s": reference.classpath_classes("maven") / metrics["scan_s"],
    }
    samples["calibration"] = calibrated.runs
    return metrics, checker, attempted, samples


def probes(seed: int, work: Path, deadline: float) -> tuple[list[str], list[str]]:
    """Robustness probes, run once and not timed.

    Returns (known failures, wrong reports). A probe that exits non-zero or
    with a traceback is a known failure; one that exits 0 with a report
    that disagrees with the reference is wrong.
    """
    deep = workloads.chain(CHAIN_LENGTH)
    workloads.write(deep, work / "chain")
    depth = CHAIN_LENGTH + 100
    deep_reference = oracle.Oracle(deep, "chain", max_depth=depth)

    small = workloads.build(PROBE_PARAMS, seed)
    unreached = list(small.artifacts)[-1]
    small = dataclasses.replace(small, malformed=(unreached,))
    workloads.write(small, work / "malformed")
    small_reference = oracle.Oracle(small, "malformed")

    cases = (
        (f"resolve of a {CHAIN_LENGTH}-level chain", "resolve", deep_reference.resolve,
         cli_argv(["resolve"], "chain", deep.root, depth)),
        ("scan beside a malformed pom.xml the root never reaches", "scan",
         lambda: small_reference.scan("maven"), cli_argv(["scan"], "malformed", small.root)),
    )
    known: list[str] = []
    wrong: list[str] = []
    for label, command, expected, argv in cases:
        outcome = spawn(["-m", "shadowscan", *argv], work, deadline)
        problem = Checker({command: expected}).problem(
            command, outcome.exit_code, outcome.stdout, outcome.stderr
        )
        if problem is None:
            print(f"probe passes: {label}")
        elif outcome.exit_code != 0 or problem.startswith("traceback"):
            known.append(f"{label}: {problem}")
        else:
            wrong.append(f"{label}: {problem}")
    return known, wrong


def traced(
    workspace: Workspace, work: Path, seconds: int, spans_path: Path, deadline: float
) -> tuple[dict, Checker, int, dict]:
    """Untraced mix once, then traced in-process passes, then a tracemalloc pass."""
    checker, _ = mix_checker(workspace)
    warm_up(work, deadline)
    setup: list[float] = []
    untraced: dict[str, float] = {}
    attempted = 0
    for op, command, _ in MIX:
        setup.append(time_setup(work, deadline))
        outcome = spawn(["-m", "shadowscan", *cli_argv(command, "repo", workspace.root)],
                        work, deadline)
        attempted += 1
        checker.record(op, outcome.exit_code, outcome.stdout, outcome.stderr)
        untraced[op] = outcome.seconds
    setup_s = statistics.median(setup)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shadowscan.cli

    passes: list[dict[str, float]] = []
    op_times: dict[str, list[float]] = defaultdict(list)
    previous = Path.cwd()
    os.chdir(work)
    try:
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            tracer = spans.Tracer()
            report_bytes = 0
            with tracer.installed():
                for op, command, _ in MIX:
                    argv = cli_argv(command, "repo", workspace.root)
                    code, stdout, stderr = tracer.run(shadowscan.cli.main, argv)
                    checker.record(op, code, stdout, stderr)
                    attempted += 1
                    report_bytes += len(stdout)
            metrics, traced_s = layer_metrics(tracer, untraced, setup_s)
            passes.append(metrics | {"cli.report_bytes": report_bytes})
            for op, seconds_in_op in traced_s.items():
                op_times[f"traced {op}"].append(seconds_in_op)
            now = time.perf_counter()
            pass_s = now - pass_started
            if now + pass_s - started > seconds or now + pass_s > deadline:
                break
        memory = spans.Tracer(memory=True)
        tracemalloc.start()
        try:
            with memory.installed():
                outcome = memory.run(shadowscan.cli.main, cli_argv(["scan"], "repo", workspace.root))
        finally:
            tracemalloc.stop()
        attempted += 1
        checker.record("scan", *outcome)
    finally:
        os.chdir(previous)
    tracer.write(spans_path)
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    for layer in ("pom", "inventory", "analysis"):
        metrics[f"{layer}.peak_mb"] = memory.peaks[layer]
    share = (metrics["mitigations.sealed_s"] + metrics["mitigations.modules_s"]) / statistics.median(
        op_times["traced check"])
    print(f"per-layer figures: medians over {len(passes)} traced passes of the mix")
    print(f"sealed and modules checks: {share:.1%} of the traced check command")
    return metrics, checker, attempted, op_times | {f"untraced {op}": [t] for op, t in untraced.items()}


SPAN_METRICS = {
    "pom.load_repository": "pom.load_repository_s",
    "resolver.resolve": "resolver.resolve_s",
    "ordering.build_classpath": "ordering.build_classpath_s",
    "inventory.inventory_all": "inventory.inventory_all_s",
    "analysis.effective_classes": "analysis.effective_classes_s",
    "analysis.detect_shadowing": "analysis.detect_shadowing_s",
    "analysis.compare_ecosystems": "analysis.compare_ecosystems_s",
    "mitigations.dup": "mitigations.dup_s",
    "mitigations.sealed": "mitigations.sealed_s",
    "mitigations.modules": "mitigations.modules_s",
}
COUNTS = (
    "pom.poms_indexed", "resolver.nodes", "resolver.omitted", "resolver.conflicts",
    "ordering.entries", "ordering.calls", "inventory.classes", "inventory.content_bytes",
    "analysis.bindings", "analysis.findings", "analysis.compare_differs", "mitigations.violations",
)


def layer_metrics(
    tracer: spans.Tracer, untraced: dict[str, float], setup_s: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer self times and counts of one traced pass, and each command's traced time.

    Times and counts are summed over the five commands. ``trace.overhead_s``
    is the traced in-process time minus the untraced subprocess time less
    one interpreter set-up per command.
    """
    own = tracer.self_times()
    metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in spans.LAYERS}
    metrics |= {metric: 0.0 for metric in SPAN_METRICS.values()}
    metrics |= {name: float(tracer.counts.get(name, 0)) for name in COUNTS}
    traced_s = {op: 0.0 for op, _, _ in MIX}
    ops = [op for op, _, _ in MIX]
    for span, self_s in zip(tracer.spans, own):
        name, op = span[spans.NAME], ops[span[spans.OP]]
        metrics[f"{name.partition('.')[0]}.self_s"] += self_s
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] += self_s
        if name == spans.ROOT_SPAN:
            metrics[f"cli.{op}.self_s"] = self_s
            traced_s[op] += span[spans.END] - span[spans.START]
        else:
            metrics[f"cli.{op}.stage_calls"] = metrics.get(f"cli.{op}.stage_calls", 0) + 1
        traced_s[op] -= span[spans.PAUSE]
    metrics["trace.overhead_s"] = sum(traced_s[op] - (untraced[op] - setup_s) for op in ops)
    return metrics, traced_s


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shadowscan" / "cli.py").is_file():
        print(f"error: no shadowscan sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # a fixed chain of 1000 levels nests the resolve report 2000 deep
    sys.setrecursionlimit(20_000)
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        workspace, generate_s = generate(args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed}: {len(workspace.artifacts)} POMs "
              f"generated in {generate_s:.2f} s")
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, checker, attempted, samples = traced(
                workspace, work, args.seconds, spans_path, deadline)
            print(f"spans written to {spans_path.relative_to(CHECKOUT)}")
        else:
            metrics, checker, attempted, samples = measure(workspace, work, args.seconds, deadline)
        known, wrong = probes(args.seed, work, deadline) if args.workload == PROBED else ([], [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = {key: len(values) for key, values in samples.items()}
    for key, values in samples.items():
        print(f"samples {key}: n={len(values)} median={statistics.median(values):.4f} {tail(values)}")
    for name, value in sorted(metrics.items()):
        n = counts.get(name.removesuffix("_s"), "")
        print(f"{name:36} {value:14.6f} {unit(name):6} {'n=' + str(n) if n else ''}")
    for op, digests in checker.hashes.items():
        for digest in digests:
            print(f"report {op} sha256={digest}")
    failed = len(checker.failures)
    print(f"reference check: {attempted - failed}/{attempted} operations match, "
          f"fail_ratio={failed / attempted:.4f}")
    for failure in checker.failures + wrong:
        print(f"MISMATCH {failure}")
    for failure in known:
        print(f"known failure (not counted): {failure}")
    result = {
        "correct": failed == 0 and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

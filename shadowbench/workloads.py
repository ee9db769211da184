"""Seeded, stdlib-only generator of synthetic artifact repositories.

A workload is built in memory first (``Workspace``), so the reference
checker can re-derive every result from the same data the program reads
from disk, and then written out in the ``<group>/<artifact>/<version>/``
layout. The same ``(params, seed)`` always gives byte-identical files.

Graph shape: group:artifact 0 is the root project. The first
``reachable`` group:artifacts form the part of the repository the root
reaches: each of them (except the root) is attached to a random earlier
one, so every one of them is included exactly once and the classpath
length does not depend on the seed. The remaining group:artifacts only
depend on each other and are never reached, so they cost POM parsing
and nothing else. Every version of a group:artifact declares the same
group:artifacts in the same order; the version of each declaration is
drawn per POM, which is what produces conflicts.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from random import Random


@dataclass(frozen=True)
class Params:
    """Size and shape of one generated repository."""

    poms: int
    groups: int
    reachable: int
    versions: int
    multi_version: int
    max_deps: int
    content: str  # "classes" (classes.txt) or "jar" (artifact.jar)
    min_classes: int
    max_classes: int
    shared_packages: int  # 0: packages private to each artifact
    names_per_package: int
    sealed_share: float
    module_share: float


@dataclass
class Artifact:
    """One artifact version: its POM declarations and its content."""

    group: str
    artifact: str
    version: str
    dependencies: list[tuple[str, str, str]]
    classes: list[str]
    sealed: set[str]
    module: str | None
    main_sealed: bool = False

    @property
    def coordinate(self) -> str:
        return f"{self.group}:{self.artifact}:{self.version}"


@dataclass
class Workspace:
    """A generated repository held in memory, keyed by coordinate text."""

    root: str
    artifacts: dict[str, Artifact]
    content: str
    malformed: tuple[str, ...] = ()  # coordinates whose pom.xml is written truncated


def _package(name: str) -> str:
    return name.rpartition(".")[0]


def _shared_names(params: Params) -> list[str]:
    """Every class name the shared packages can hold, in pick order."""
    per = params.names_per_package
    return [f"org.shared.p{i // per:03d}.C{i % per:04d}" for i in range(params.shared_packages * per)]


def _classes(rng: Random, params: Params, shared: list[str], group: str, artifact: str) -> list[str]:
    count = rng.randint(params.min_classes, params.max_classes)
    if shared:
        return [shared[pick] for pick in rng.sample(range(len(shared)), count)]
    base = f"{group}.{artifact}"
    picks = rng.sample(range(params.names_per_package * 10), count)
    return [f"{base}.p{pick % 10}.C{pick // 10:04d}" for pick in picks]


def build(params: Params, seed: int) -> Workspace:
    """Generate the in-memory workspace for ``params`` and ``seed``."""
    rng = Random(seed)
    multi = params.multi_version
    ga_count = params.poms - multi * (params.versions - 1)
    if not (0 < params.reachable <= ga_count and multi < ga_count):
        raise ValueError(f"inconsistent parameters {params}")
    gas = [(f"org.bench.g{i % params.groups:02d}", f"lib{i:05d}") for i in range(ga_count)]
    versions = [["1.0"] for _ in range(ga_count)]
    for i in rng.sample(range(1, ga_count), multi):
        versions[i] = [f"{v + 1}.0" for v in range(params.versions)]

    declared: list[list[int]] = [[] for _ in range(ga_count)]
    core = params.reachable
    for t in range(1, core):
        while True:
            parent = rng.randrange(t)
            if len(declared[parent]) < params.max_deps:
                declared[parent].append(t)
                break
    for lo, hi in ((0, core), (core, ga_count)):
        for t in range(lo, hi):
            later = range(t + 1, hi)
            wanted = min(params.max_deps, len(later))
            while len(declared[t]) < wanted:
                pick = rng.choice(later)
                if pick not in declared[t]:
                    declared[t].append(pick)
            rng.shuffle(declared[t])

    shared = _shared_names(params)
    artifacts: dict[str, Artifact] = {}
    for i, (group, artifact) in enumerate(gas):
        for version in versions[i]:
            dependencies = [(*gas[d], rng.choice(versions[d])) for d in declared[i]]
            classes = _classes(rng, params, shared, group, artifact)
            packages = sorted({_package(name) for name in classes})
            sealed: set[str] = set()
            main_sealed = False
            roll = rng.random()
            if roll < params.sealed_share:
                if params.content == "jar" and roll < params.sealed_share / 2:
                    main_sealed = True
                    sealed = set(packages)
                else:
                    sealed = set(rng.sample(packages, min(2, len(packages))))
            module = None
            if rng.random() < params.module_share:
                module = f"{group}.{artifact}"
            node = Artifact(group, artifact, version, dependencies, classes, sealed, module, main_sealed)
            artifacts[node.coordinate] = node
    root = f"{gas[0][0]}:{gas[0][1]}:{versions[0][0]}"
    return Workspace(root, artifacts, params.content)


def chain(length: int) -> Workspace:
    """A single dependency chain: ``length`` artifacts below the root."""
    artifacts: dict[str, Artifact] = {}
    for i in range(length + 1):
        dependencies = [("org.chain", f"c{i + 1:05d}", "1.0")] if i < length else []
        node = Artifact("org.chain", f"c{i:05d}", "1.0", dependencies, [f"org.chain.c{i}.Main"], set(), None)
        artifacts[node.coordinate] = node
    return Workspace("org.chain:c00000:1.0", artifacts, "classes")


# ---------------------------------------------------------------------------
# writing


def pom_xml(node: Artifact) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<project xmlns="http://maven.apache.org/POM/4.0.0">',
        "  <modelVersion>4.0.0</modelVersion>",
        f"  <groupId>{node.group}</groupId>",
        f"  <artifactId>{node.artifact}</artifactId>",
        f"  <version>{node.version}</version>",
    ]
    if node.dependencies:
        lines.append("  <dependencies>")
        for group, artifact, version in node.dependencies:
            lines.append(
                f"    <dependency><groupId>{group}</groupId><artifactId>{artifact}"
                f"</artifactId><version>{version}</version></dependency>"
            )
        lines.append("  </dependencies>")
    lines.append("</project>")
    return "\n".join(lines) + "\n"


def classlist_text(node: Artifact) -> str:
    lines = [f"# {node.coordinate}"]
    if node.module:
        lines.append(f"@module {node.module}")
    lines.extend(f"@sealed {package}" for package in sorted(node.sealed))
    lines.extend(node.classes)
    return "\n".join(lines) + "\n"


def manifest_text(node: Artifact) -> str:
    lines = ["Manifest-Version: 1.0", "Created-By: shadowbench"]
    if node.main_sealed:
        lines.append("Sealed: true")
    else:
        for package in sorted(node.sealed):
            lines += ["", f"Name: {package.replace('.', '/')}/", "Sealed: true"]
    return "\r\n".join(lines) + "\r\n"


_LOCAL = struct.Struct("<IHHHHHIIIHH")
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")
_END = struct.Struct("<IHHHHIIH")


def jar_bytes(node: Artifact) -> bytes:
    """A stored (uncompressed) ZIP: manifest, optional module descriptor, empty classes.

    Written by hand because ``zipfile`` spends most of the generation time
    on per-entry bookkeeping; the layout follows APPNOTE 4.3 exactly.
    """
    entries = [("META-INF/MANIFEST.MF", manifest_text(node).encode())]
    if node.module:
        entries.append(("module-info.class", b"\xca\xfe\xba\xbe"))
    entries.extend((name.replace(".", "/") + ".class", b"") for name in node.classes)
    local = bytearray()
    central = bytearray()
    for name, data in entries:
        raw = name.encode()
        crc = zlib.crc32(data)
        offset = len(local)
        # version 20, no flags, stored, DOS time/date fixed for determinism
        local += _LOCAL.pack(0x04034B50, 20, 0, 0, 0, 0x21, crc, len(data), len(data), len(raw), 0)
        local += raw + data
        central += _CENTRAL.pack(
            0x02014B50, 20, 20, 0, 0, 0, 0x21, crc, len(data), len(data),
            len(raw), 0, 0, 0, 0, 0, offset,
        )
        central += raw
    end = _END.pack(0x06054B50, 0, 0, len(entries), len(entries), len(central), len(local), 0)
    return bytes(local + central + end)


def write(workspace: Workspace, directory: Path) -> int:
    """Write the repository under ``directory``; returns the bytes written."""
    total = 0
    for node in workspace.artifacts.values():
        folder = directory / node.group / node.artifact / node.version
        folder.mkdir(parents=True, exist_ok=True)
        pom = pom_xml(node).encode()
        if node.coordinate in workspace.malformed:
            pom = pom[: len(pom) // 2]
        (folder / "pom.xml").write_bytes(pom)
        if workspace.content == "jar":
            content = jar_bytes(node)
            (folder / "artifact.jar").write_bytes(content)
        else:
            content = classlist_text(node).encode()
            (folder / "classes.txt").write_bytes(content)
        total += len(pom) + len(content)
    return total

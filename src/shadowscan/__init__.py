"""Simulates Maven/Gradle dependency resolution, classpath construction, and
Java class lookup to detect and explain classpath shadowing and class
hijacking, including the build-time and runtime mitigations.
"""

from shadowscan.analysis import (
    ClassBinding,
    EcosystemComparison,
    EffectiveClassMap,
    ShadowFinding,
    WinnerComparison,
    compare_ecosystems,
    detect_shadowing,
    effective_classes,
    hijack_reach,
    hijack_surface,
)
from shadowscan.errors import ShadowscanError
from shadowscan.inventory import (
    ClassInventory,
    inspect_classlist,
    inspect_jar,
    inventory_all,
    render_classlist,
)
from shadowscan.mitigations import (
    MitigationRule,
    MitigationVerdict,
    check_ban_duplicate_classes,
    check_modules,
    check_sealed,
)
from shadowscan.model import (
    Coordinate,
    GroupArtifact,
    PomDocument,
    ResolvedNode,
    ResolvedTree,
    check_class_name,
    check_invariants,
    package_of,
)
from shadowscan.ordering import (
    Classpath,
    Ecosystem,
    LayoutMode,
    PackagingLayout,
    build_classpath,
    emit_layout,
)
from shadowscan.pom import Repository, fetch_pom, load_repository, parse_pom
from shadowscan.resolver import ResolutionReport, resolve

__version__ = "0.1.0"

__all__ = [
    "ClassBinding",
    "ClassInventory",
    "Classpath",
    "Coordinate",
    "Ecosystem",
    "EcosystemComparison",
    "EffectiveClassMap",
    "GroupArtifact",
    "LayoutMode",
    "MitigationRule",
    "MitigationVerdict",
    "PackagingLayout",
    "PomDocument",
    "Repository",
    "ResolutionReport",
    "ResolvedNode",
    "ResolvedTree",
    "ShadowFinding",
    "ShadowscanError",
    "WinnerComparison",
    "build_classpath",
    "check_ban_duplicate_classes",
    "check_class_name",
    "check_invariants",
    "check_modules",
    "check_sealed",
    "compare_ecosystems",
    "detect_shadowing",
    "effective_classes",
    "emit_layout",
    "fetch_pom",
    "hijack_reach",
    "hijack_surface",
    "inspect_classlist",
    "inspect_jar",
    "inventory_all",
    "load_repository",
    "package_of",
    "parse_pom",
    "render_classlist",
    "resolve",
]

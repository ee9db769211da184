"""Simulates Maven/Gradle dependency resolution, classpath construction, and
Java class lookup to detect and explain classpath shadowing and class
hijacking, including the build-time and runtime mitigations.
"""

from importlib import import_module

# each exported name -> the module that defines it, imported on first access (PEP 562)
_EXPORTS = {name: module for module, names in {
    "analysis": "EcosystemComparison ShadowFinding WinnerComparison compare_ecosystems"
                " detect_shadowing hijack_reach hijack_surface",
    "errors": "ShadowscanError",
    "inventory": "ClassInventory EffectiveClassMap effective_classes inspect_classlist"
                 " inventory_all",
    "jar": "inspect_jar",
    "mitigations": "MitigationVerdict check_ban_duplicate_classes check_modules check_sealed",
    "model": "Coordinate MitigationRule PomDocument ResolvedNode ResolvedTree check_class_name"
             " check_invariants package_of",
    "ordering": "Classpath Ecosystem LayoutMode PackagingLayout build_classpath emit_layout",
    "pom": "Repository fetch_pom load_repository parse_pom",
    "resolver": "ResolutionReport resolve",
}.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

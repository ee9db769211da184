"""Exception types raised across the package."""

from __future__ import annotations


class ShadowscanError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidCoordinate(ShadowscanError, ValueError):
    """A group, artifact, or version token violates the coordinate grammar."""


class InvalidClassName(ShadowscanError, ValueError):
    """A string is not a valid dot-separated fully qualified class name."""


class MalformedXml(ShadowscanError):
    """The input is not well-formed XML or lacks a <project> root."""


class MissingCoordinate(ShadowscanError):
    """A project or dependency element lacks groupId, artifactId, or version."""


class DuplicateDeclaration(ShadowscanError):
    """Two dependencies of one POM share the same group:artifact."""


class IoFailure(ShadowscanError):
    """A filesystem read failed or a path is unusable."""


class CoordinateMismatch(ShadowscanError):
    """A POM's declared coordinate disagrees with its directory path."""


class PomNotFound(ShadowscanError):
    """The requested coordinate has no POM in the repository."""


class UnresolvableDependency(ShadowscanError):
    """A declared dependency cannot be fetched; resolution aborts."""

    def __init__(self, coordinate, requester_path) -> None:
        super().__init__(
            f"cannot resolve {coordinate}, requested by the node at path "
            f"{list(requester_path)}"
        )
        self.coordinate = coordinate
        self.requester_path = tuple(requester_path)


class DepthLimitExceeded(ShadowscanError):
    """Tree expansion went deeper than the configured limit."""


class NotAZip(ShadowscanError):
    """The file is not a ZIP archive."""


class CorruptArchive(ShadowscanError):
    """The archive's directory or entries cannot be read."""


class InvalidEntryName(ShadowscanError):
    """A .class entry path cannot be converted to a class name."""


class DuplicateClassName(ShadowscanError):
    """The same fully qualified class name occurs twice in one artifact."""


class MissingContent(ShadowscanError):
    """A classpath entry has neither a JAR nor a class-list in the repository."""


class UnknownArtifact(ShadowscanError):
    """The named coordinate is not an included node of the tree."""


class ReportTooDeep(ShadowscanError):
    """A JSON report would nest deeper than JSON readers accept."""


class InvalidPattern(ShadowscanError, ValueError):
    """An allowlist pattern is malformed."""

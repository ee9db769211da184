"""A fixed amount of interpreter work that measures the machine's current speed.

``run.py`` starts this script between the timed commands. It does the same
kinds of work as shadowscan (parse small POM documents with ElementTree,
build frozen dataclasses, sort dotted names, bucket them in dicts) but uses
nothing from the program, so no change to the program can change its time.
On a shared host the speed of a core changes from second to second; the
time of this script taken just before and just after a command tells how
fast the machine was while that command ran.
"""

import xml.etree.ElementTree as ET
from dataclasses import dataclass


@dataclass(frozen=True)
class Dependency:
    group: str
    artifact: str
    version: str


def main() -> None:
    index = {}
    for i in range(1200):
        declarations = "".join(
            f"<dependency><groupId>g{j % 50}</groupId><artifactId>a{j}</artifactId>"
            f"<version>1.0</version></dependency>"
            for j in range(i, i + 4)
        )
        root = ET.fromstring(
            f'<project xmlns="urn:calibration"><groupId>g{i % 50}</groupId>'
            f"<artifactId>a{i}</artifactId><version>1.0</version>"
            f"<dependencies>{declarations}</dependencies></project>"
        )
        index[f"g{i % 50}:a{i}"] = [
            Dependency(*(child.text for child in dependency))
            for dependency in root.iter("{urn:calibration}dependency")
        ]
    owners: dict[str, list[int]] = {}
    for n, name in enumerate(sorted(f"org.p{i % 97}.C{i}" for i in range(50000))):
        owners.setdefault(name.rpartition(".")[0], []).append(n)


if __name__ == "__main__":
    main()

"""The benchmark's workloads: each is a fixed list of `decem` CLI operations.

Every operation runs in its own fresh Python process, one at a time.  The
workload seed is passed to `decem run` as the config seed; `dump-mesh` and
`export-matrices` take no seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``command`` is a pipeline name or a CLI command."""

    command: str
    geometry: str
    res: int
    degree: int | None = None
    # assertion row that fails every time because of a known program fault
    known_fault: str | None = None

    @property
    def metric(self) -> str:
        """Name of the per-command wall-time metric this operation adds to."""
        return self.command.replace("-", "_") + "_s"

    def label(self) -> str:
        return f"{self.command} {self.geometry} res{self.res}"

    def argv(self, seed: int, outdir: str) -> list[str]:
        geo = ["--geometry", self.geometry, "--res", str(self.res)]
        if self.command == "dump-mesh":
            return ["dump-mesh", *geo, "--out", f"{outdir}/mesh.decmesh"]
        if self.command == "export-matrices":
            return ["export-matrices", *geo, "--degree", str(self.degree), "--out", outdir]
        return ["run", self.command, *geo, "--seed", str(seed), "--output", outdir]


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "mesh-topology": (
        Op("dump-mesh", "balls:2", 2),
        Op("export-matrices", "hopf_link", 2, degree=1),
        Op("topology", "balls:3", 1),
        Op("topology", "hopf_link", 1),
        Op("topology", "solid_torus", 1),
    ),
    "fields": (
        Op("hodge", "balls:1", 1),
        Op("maxwell", "balls:1", 1),
        Op("qft", "balls:1", 1),
    ),
    "stress": (
        Op("stress", "solid_torus", 1),
        Op("stress", "balls:1", 1),
        # decay_slope is -2.83 against the gate <= -3 (ROADMAP correctness item 3)
        Op("stress", "cube_obstacle", 1, known_fault="decay_slope"),
    ),
}

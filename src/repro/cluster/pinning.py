"""Process pinning strategies (paper Table I).

The Xeon-cluster measurements distinguish three deliberate placements —
inter-node (4 nodes x 1 process), inter-chip (1 node, 1 process per
chip) and inter-core (1 node, 1 chip, 4 processes) — plus the
"realistic scenario" of Fig. 7 where *"we refrained from using a
specific process pinning ... and let the scheduler choose"*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.cluster.topology import DistanceClass, Location, Machine, distance_class
from repro.errors import ConfigurationError
from repro.rng import RngFabric

__all__ = [
    "PLACEMENTS",
    "Pinning",
    "inter_node",
    "inter_chip",
    "inter_core",
    "resolve_placement",
    "scheduler_default",
]

#: Placement names :func:`resolve_placement` accepts.
PLACEMENTS = ("spread", "scheduler")


@dataclass(frozen=True)
class Pinning:
    """An immutable rank -> location assignment on a machine."""

    machine: Machine
    locations: tuple[Location, ...]
    label: str = ""

    def __post_init__(self) -> None:
        for loc in self.locations:
            self.machine.validate(loc)

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, rank: int) -> Location:
        return self.locations[rank]

    def __iter__(self) -> Iterator[Location]:
        return iter(self.locations)

    @property
    def nranks(self) -> int:
        return len(self.locations)

    def dominant_distance(self) -> DistanceClass:
        """The farthest distance class present among any pair of ranks.

        This is the class whose latency bounds the clock-condition
        requirement for the whole job.
        """
        worst = DistanceClass.SAME_CORE
        order = [
            DistanceClass.SAME_CORE,
            DistanceClass.SAME_CHIP,
            DistanceClass.SAME_NODE,
            DistanceClass.INTER_NODE,
        ]
        for i in range(len(self.locations)):
            for j in range(i + 1, len(self.locations)):
                cls = distance_class(self.locations[i], self.locations[j])
                if order.index(cls) > order.index(worst):
                    worst = cls
        return worst

    def describe(self) -> str:
        """Human-readable summary matching the style of Table I."""
        nodes = sorted({loc.node for loc in self.locations})
        chips = sorted({(loc.node, loc.chip) for loc in self.locations})
        return (
            f"{self.label or 'pinning'}: {self.nranks} processes on "
            f"{len(nodes)} node(s), {len(chips)} chip(s)"
        )


def inter_node(machine: Machine, nprocs: int = 4) -> Pinning:
    """Table I "Inter node": one process per node, ``nprocs`` nodes."""
    if nprocs > machine.nodes:
        raise ConfigurationError(f"{nprocs} processes need {nprocs} nodes; have {machine.nodes}")
    locs = tuple(Location(n, 0, 0) for n in range(nprocs))
    return Pinning(machine, locs, label="inter-node")


def inter_chip(machine: Machine, nprocs: Optional[int] = None) -> Pinning:
    """Table I "Inter chip": one node, one process per chip."""
    nprocs = machine.chips_per_node if nprocs is None else nprocs
    if nprocs > machine.chips_per_node:
        raise ConfigurationError(
            f"{nprocs} processes need {nprocs} chips/node; have {machine.chips_per_node}"
        )
    locs = tuple(Location(0, c, 0) for c in range(nprocs))
    return Pinning(machine, locs, label="inter-chip")


def inter_core(machine: Machine, nprocs: Optional[int] = None) -> Pinning:
    """Table I "Inter core": one node, one chip, one process per core."""
    nprocs = machine.cores_per_chip if nprocs is None else nprocs
    if nprocs > machine.cores_per_chip:
        raise ConfigurationError(
            f"{nprocs} processes need {nprocs} cores/chip; have {machine.cores_per_chip}"
        )
    locs = tuple(Location(0, 0, k) for k in range(nprocs))
    return Pinning(machine, locs, label="inter-core")


def scheduler_default(
    machine: Machine, nprocs: int, rng: Optional[np.random.Generator] = None
) -> Pinning:
    """Emulate the batch scheduler's default placement (Fig. 7 scenario).

    Nodes are filled in order (the common block allocation), but the
    assignment of ranks to cores *within* each node is arbitrary — that
    is the part the paper deliberately left to the scheduler.  Passing an
    ``rng`` shuffles the within-node core order; without one the order is
    the BIOS enumeration.
    """
    if nprocs > machine.total_cores:
        raise ConfigurationError(f"{nprocs} processes exceed {machine.total_cores} cores")
    locs: list[Location] = []
    remaining = nprocs
    node = 0
    while remaining > 0:
        take = min(remaining, machine.cores_per_node)
        core_order = list(range(machine.cores_per_node))
        if rng is not None:
            rng.shuffle(core_order)
        for flat in core_order[:take]:
            chip, core = divmod(flat, machine.cores_per_chip)
            locs.append(Location(node, chip, core))
        remaining -= take
        node += 1
    return Pinning(machine, tuple(locs), label="scheduler-default")


def resolve_placement(
    placement: str | Pinning, machine: Machine, nprocs: int, seed: int
) -> Pinning:
    """The :class:`Pinning` a placement name stands for (a
    :class:`Pinning` passes through).

    ``"scheduler"`` always shuffles with the ``"placement"`` stream of
    ``RngFabric(seed)``, so the session, ``repro simulate`` and the
    service pin the same arguments identically.
    """
    if isinstance(placement, Pinning):
        return placement
    if placement == "spread":
        return inter_node(machine, nprocs)
    if placement == "scheduler":
        return scheduler_default(machine, nprocs, RngFabric(seed).generator("placement"))
    raise ConfigurationError(
        f"unknown placement {placement!r} (use 'spread', 'scheduler', or a Pinning)"
    )

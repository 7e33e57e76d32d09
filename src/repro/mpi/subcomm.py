"""Sub-communicators (the ``MPI_Comm_split`` analogue).

Real codes rarely talk only over ``MPI_COMM_WORLD`` — POP splits row and
column communicators for its solver, multigrid codes split per level.
:meth:`repro.mpi.comm.MpiContext.split` performs the collective split
(an allgather of ``(color, key)`` over the parent, so membership is
derived identically everywhere without out-of-band knowledge) and
returns a :class:`SubComm` exposing the full context API with
comm-local ranks.

Design choices, mirroring how tracing tools handle communicators:

* events record **world ranks** (the "global rank translation" real
  analyzers perform), so every postmortem algorithm keeps working
  unchanged on traces that used sub-communicators;
* collective instance ids fold in the communicator id
  (``comm_id * COMM_INSTANCE_STRIDE + count``), so instance grouping,
  flavor mapping and CLC dependencies stay correct across comms — the
  world communicator is id 0 and must issue fewer than
  ``COMM_INSTANCE_STRIDE`` collectives;
* collective-internal tags live in the negative tag space (see
  ``repro.mpi.collectives._tag``) and application tags are namespaced
  per communicator, so identical tags on different comms never
  cross-match;
* wildcard-source receives on a sub-communicator are rejected — they
  would otherwise match traffic from non-members.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ConfigurationError
from repro.sim.primitives import ANY_SOURCE, ANY_TAG

__all__ = [
    "SubComm",
    "COMM_TAG_STRIDE",
    "COMM_INSTANCE_STRIDE",
    "MAX_COLORS_PER_SPLIT",
    "MAX_SPLITS_PER_COMM",
]

#: Application-tag namespace width per communicator.
COMM_TAG_STRIDE: int = 1 << 14
#: Collective-instance namespace width per communicator (max collectives
#: any single communicator may issue).
COMM_INSTANCE_STRIDE: int = 1 << 24
#: Distinct colors allowed in one split call.
MAX_COLORS_PER_SPLIT: int = 64
#: Split calls allowed on one communicator.
MAX_SPLITS_PER_COMM: int = 64


class SubComm:
    """A communicator over a subset of the world's ranks.

    Obtained via :meth:`MpiContext.split`; presents the same generator
    API as :class:`~repro.mpi.comm.MpiContext` with ranks local to the
    group.  Do not construct directly.
    """

    def __init__(self, world, members: list[int], comm_id: int) -> None:
        if world.rank not in members:
            raise ConfigurationError("calling rank is not a member of this group")
        self.parent = world
        self.members = list(members)
        self.comm_id = comm_id
        self.rank = self.members.index(world.rank)
        self.size = len(self.members)
        self._coll_instance = 0
        self._next_split_seq = 0
        # Fields the shared collective wrapper and split logic consult.
        self.buffer = world.buffer
        self.mpi_regions = world.mpi_regions
        self.periodic_sync_every = 0  # periodic sync stays on the world comm
        self.periodic_sync_repeats = world.periodic_sync_repeats
        self.periodic_series: list = []

    # ------------------------------------------------------------------
    # Hooks the shared MpiContext machinery dispatches through
    # ------------------------------------------------------------------
    def _alloc_instance(self) -> int:
        instance = self.comm_id * COMM_INSTANCE_STRIDE + self._coll_instance
        self._coll_instance += 1
        return instance

    def _root_to_world(self, root: int) -> int:
        return self.world_rank(root)

    def _world_rank_of(self, local: int) -> int:
        return self.members[local]

    def _world_context(self):
        return self.parent

    # ------------------------------------------------------------------
    # Rank/tag translation
    # ------------------------------------------------------------------
    def world_rank(self, local: int) -> int:
        if not 0 <= local < self.size:
            raise ConfigurationError(
                f"rank {local} outside communicator of size {self.size}"
            )
        return self.members[local]

    def _xlate_tag(self, tag: int) -> int:
        if tag == ANY_TAG:
            return ANY_TAG
        if tag < -1:
            # Reserved protocol space (collective internals, sync
            # probes): already globally unique via namespaced instance
            # ids — pass through untranslated.
            return tag
        if not 0 <= tag < COMM_TAG_STRIDE:
            raise ConfigurationError(
                f"sub-communicator tags must be in [0, {COMM_TAG_STRIDE}); got {tag}"
            )
        return self.comm_id * COMM_TAG_STRIDE + tag

    def _xlate_src(self, src: int) -> int:
        if src == ANY_SOURCE:
            raise ConfigurationError(
                "wildcard-source receives are not supported on sub-communicators"
            )
        return self.world_rank(src)

    # ------------------------------------------------------------------
    # Point-to-point (delegating to the world context with translation)
    # ------------------------------------------------------------------
    def send_raw(self, dst: int, tag: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        return (
            yield from self.parent.send_raw(
                self.world_rank(dst), self._xlate_tag(tag), nbytes, payload
            )
        )

    def recv_raw(self, src: int, tag: int = ANY_TAG) -> Generator:
        return (
            yield from self.parent.recv_raw(self._xlate_src(src), self._xlate_tag(tag))
        )

    def send(self, dst: int, tag: int = 0, nbytes: int = 0, payload: Any = None) -> Generator:
        return (
            yield from self.parent.send(
                self.world_rank(dst), self._xlate_tag(tag), nbytes, payload
            )
        )

    def recv(self, src: int, tag: int = ANY_TAG) -> Generator:
        return (yield from self.parent.recv(self._xlate_src(src), self._xlate_tag(tag)))

    # Compute / timing / regions pass straight through.
    def compute(self, duration: float) -> Generator:
        return (yield from self.parent.compute(duration))

    def sleep(self, duration: float) -> Generator:
        return (yield from self.parent.sleep(duration))

    def wtime(self) -> Generator:
        return (yield from self.parent.wtime())

    def enter_region(self, region_id: int) -> Generator:
        return (yield from self.parent.enter_region(region_id))

    def exit_region(self, region_id: int) -> Generator:
        return (yield from self.parent.exit_region(region_id))

    def set_tracing(self, enabled: bool) -> None:
        self.parent.set_tracing(enabled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubComm(id={self.comm_id}, rank={self.rank}/{self.size}, "
            f"members={self.members})"
        )


def _borrow_context_methods() -> None:
    """Bind MpiContext's collective/split machinery onto SubComm.

    Those methods only touch attributes and hooks SubComm provides
    (rank, size, buffer, ``_alloc_instance``, ``_root_to_world``, the
    raw operations), so the identical function objects work unchanged
    with comm-local ranks.
    """
    from repro.mpi.comm import MpiContext

    for name in (
        "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
        "allgather", "alltoall", "scan", "reduce_scatter",
        "_collective", "split", "_child_comm_id",
    ):
        setattr(SubComm, name, getattr(MpiContext, name))


_borrow_context_methods()

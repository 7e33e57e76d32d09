"""Message-latency models.

The clock condition (paper Eq. 1) ties timestamp accuracy to the
*minimum* message latency, and Table II shows that latency depends
strongly on where the communicating processes sit: on the Xeon cluster
4.29 us between nodes, 0.86 us between chips of one node, 0.47 us
between cores of one chip.  A latency model therefore answers two
questions:

* :meth:`LatencyModel.min_latency` — the deterministic floor ``l_min``
  used by the clock condition and by synchronization algorithms;
* :meth:`LatencyModel.sample` — an actual delivery delay for one
  message, ``l_min`` plus non-negative noise ("network topology and load
  may adversely affect the predictability of message latencies").

Noise is gamma-distributed (shape ``k``, mean ``jitter``): strictly
positive, right-skewed like real network residuals, and never below the
floor — so a simulated trace can *never* contain a genuine causality
violation; every violation observed postmortem is attributable to the
clocks, exactly as in the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.cluster.topology import DistanceClass, Location, distance_class
from repro.errors import ConfigurationError

__all__ = ["LatencyModel", "LatencySample", "HierarchicalLatency", "TorusLatency"]


@dataclass(frozen=True)
class LatencySample:
    """One latency-class parameterization: floor, bandwidth, noise."""

    base: float  # zero-byte latency floor, seconds
    bandwidth: float  # bytes/second
    jitter: float  # mean of the additive noise, seconds
    jitter_shape: float = 4.0  # gamma shape; larger = tighter

    def __post_init__(self) -> None:
        if self.base < 0 or self.bandwidth <= 0 or self.jitter < 0 or self.jitter_shape <= 0:
            raise ConfigurationError(f"invalid latency sample {self}")

    def floor(self, nbytes: int) -> float:
        return self.base + nbytes / self.bandwidth

    def draw(self, nbytes: int, rng: np.random.Generator) -> float:
        noise = 0.0
        if self.jitter > 0.0:
            noise = float(rng.gamma(self.jitter_shape, self.jitter / self.jitter_shape))
        return self.floor(nbytes) + noise


@runtime_checkable
class LatencyModel(Protocol):
    """Protocol answered by all network models."""

    def min_latency(self, src: Location, dst: Location, nbytes: int = 0) -> float:
        """Deterministic lower bound on the delivery delay (``l_min``)."""
        ...

    def sample(
        self, src: Location, dst: Location, nbytes: int, rng: np.random.Generator
    ) -> float:
        """One concrete delivery delay, ``>= min_latency``."""
        ...


class HierarchicalLatency:
    """Latency determined purely by the distance class of the endpoints.

    Parameterized directly from Table II-style measurements.  Self-messages
    and oversubscribed cores (rare but legal) take the ``same_chip`` sample.
    """

    def __init__(
        self,
        inter_node: LatencySample,
        same_node: LatencySample,
        same_chip: LatencySample,
    ) -> None:
        self._table = {
            DistanceClass.INTER_NODE: inter_node,
            DistanceClass.SAME_NODE: same_node,
            DistanceClass.SAME_CHIP: same_chip,
            DistanceClass.SAME_CORE: same_chip,
        }

    def sample_for_class(self, cls: DistanceClass) -> LatencySample:
        return self._table[cls]

    def min_latency(self, src: Location, dst: Location, nbytes: int = 0) -> float:
        return self._table[distance_class(src, dst)].floor(nbytes)

    def sample(
        self, src: Location, dst: Location, nbytes: int, rng: np.random.Generator
    ) -> float:
        return self._table[distance_class(src, dst)].draw(nbytes, rng)


class TorusLatency:
    """3-D torus network (Cray SeaStar, paper's Opteron cluster).

    Nodes are mapped to torus coordinates in row-major order over
    ``dims``; the inter-node floor grows with the minimal hop count
    (wrap-around Manhattan distance), modelling "messages travel through
    various stages of the network".  Intra-node classes fall back to a
    hierarchical table.
    """

    def __init__(
        self,
        dims: tuple[int, int, int],
        inter_node_base: float,
        per_hop: float,
        bandwidth: float,
        jitter: float,
        intra_node: HierarchicalLatency,
    ) -> None:
        if any(d <= 0 for d in dims):
            raise ConfigurationError(f"invalid torus dims {dims}")
        if inter_node_base < 0 or per_hop < 0 or bandwidth <= 0 or jitter < 0:
            raise ConfigurationError("invalid torus latency parameters")
        self.dims = dims
        self.inter_node_base = float(inter_node_base)
        self.per_hop = float(per_hop)
        self.bandwidth = float(bandwidth)
        self.jitter = float(jitter)
        self.jitter_shape = 4.0  # gamma shape, as LatencySample's default
        self.intra_node = intra_node

    def coordinates(self, node: int) -> tuple[int, int, int]:
        """Row-major mapping of a node index to torus coordinates."""
        dx, dy, dz = self.dims
        if not 0 <= node < dx * dy * dz:
            raise ConfigurationError(f"node {node} outside torus {self.dims}")
        x, rest = divmod(node, dy * dz)
        y, z = divmod(rest, dz)
        return (x, y, z)

    def hops(self, src_node: int, dst_node: int) -> int:
        """Minimal wrap-around Manhattan distance between two nodes."""
        a = self.coordinates(src_node)
        b = self.coordinates(dst_node)
        total = 0
        for ai, bi, d in zip(a, b, self.dims):
            delta = abs(ai - bi)
            total += min(delta, d - delta)
        return total

    def min_latency(self, src: Location, dst: Location, nbytes: int = 0) -> float:
        if src.node == dst.node:
            return self.intra_node.min_latency(src, dst, nbytes)
        return (
            self.inter_node_base
            + self.per_hop * self.hops(src.node, dst.node)
            + nbytes / self.bandwidth
        )

    def sample(
        self, src: Location, dst: Location, nbytes: int, rng: np.random.Generator
    ) -> float:
        if src.node == dst.node:
            return self.intra_node.sample(src, dst, nbytes, rng)
        noise = 0.0
        if self.jitter > 0.0:
            noise = float(rng.gamma(self.jitter_shape, self.jitter / self.jitter_shape))
        return self.min_latency(src, dst, nbytes) + noise

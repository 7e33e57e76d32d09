"""Composable hypothesis strategies over :class:`~repro.verify.cases.CaseSpec`.

Every strategy draws *pure data* (the spec), never a built trace: the
shrinker then minimizes over plain lists and floats, and whatever it
lands on serializes straight into ``tests/corpus/``.  The strategies are
exported for reuse by the test suite (``tests/test_verify.py`` runs the
same generators tier-1 that the CLI fuzz campaigns run at scale).

Adversarial ingredients, per the verification charter:

* ``clock_profiles`` — drift-jump clocks and NTP step storms (steps may
  be negative, producing non-monotone recorded timestamps);
* ``p2p_specs`` — zero-latency edges, latency below the claimed
  ``l_min`` floor, and an optional burst between one pair of ranks
  (``streaming_specs`` draws one too);
* ``walk_window_specs`` — a burst shaped so the compiled walk meets a
  waiting source only inside its array windows;
* ``amortization_specs`` — a burst behind a capped send and a jump, a
  binding chain for the backward amortization's reverse scans;
* ``collective_specs`` — degenerate collectives: single members,
  zero-skew identical timestamps, barrier storms, every flavor;
* ``pomp_specs`` / ``mixed_specs`` — POMP parallel regions alone and
  interleaved with MPI traffic in one stream.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.tracing.events import MPI_COLLECTIVES
from repro.verify.cases import CaseSpec

__all__ = [
    "clock_profiles",
    "p2p_specs",
    "walk_window_specs",
    "amortization_specs",
    "collective_specs",
    "pomp_specs",
    "mixed_specs",
    "quantization_specs",
    "batch_specs",
    "streaming_specs",
    "unit_specs",
    "stats_specs",
    "grid_batched_specs",
    "adversarial_specs",
    "STRATEGIES",
]


def _finite(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


_TIMES = _finite(0.0, 2.0)
_LMINS = st.sampled_from([0.0, 1e-6, 5e-4])


@st.composite
def clock_profiles(draw, allow_jumps: bool = True, allow_steps: bool = True,
                   max_jumps: int = 2, max_steps: int = 4):
    """One rank's clock-error profile (offset, rate, jumps, steps)."""
    profile = {
        "offset": draw(_finite(-5e-3, 5e-3)),
        "rate": draw(_finite(-2e-4, 2e-4)),
        "jumps": [],
        "steps": [],
    }
    if allow_jumps:
        profile["jumps"] = draw(st.lists(
            st.tuples(_TIMES, _finite(-5e-4, 5e-4)).map(list), max_size=max_jumps))
    if allow_steps:
        # NTP-style steps, deliberately sign-free: a negative step makes
        # the recorded clock run backwards (step *storm* at max_size).
        profile["steps"] = draw(st.lists(
            st.tuples(_TIMES, _finite(-2e-3, 2e-3)).map(list), max_size=max_steps))
    return profile


def _profile_list(draw, nranks: int, affine_bias: bool):
    if affine_bias and draw(st.booleans()):
        return [draw(clock_profiles(allow_jumps=False, allow_steps=False))
                for _ in range(nranks)]
    return [draw(clock_profiles()) for _ in range(nranks)]


def _messages(draw, nranks: int, max_messages: int):
    entries = draw(st.lists(
        st.tuples(
            st.integers(0, nranks - 1),          # src
            st.integers(1, max(nranks - 1, 1)),  # dst offset (never self)
            _TIMES,                              # true send time
            st.one_of(st.just(0.0), _finite(0.0, 1e-3)),  # true latency
        ),
        max_size=max_messages,
    ))
    return [[s, (s + k) % nranks, t, lat] for s, k, t, lat in entries]


def _burst(draw, nranks: int):
    """Maybe 9 to 200 messages from one rank to another, back
    to back: a receive run long enough to pass the forward walks' head
    (:data:`repro.sync.schedule.HEAD`) into their array windows."""
    if not draw(st.booleans()):
        return []
    src = draw(st.integers(0, nranks - 1))
    dst = (src + draw(st.integers(1, max(nranks - 1, 1)))) % nranks
    t0 = draw(_TIMES)
    gap = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    latency = draw(st.one_of(st.just(0.0), _finite(0.0, 1e-3)))
    return [[src, dst, t0 + gap * i, latency]
            for i in range(draw(st.integers(9, 200)))]


def _locals(draw, nranks: int):
    return [[r, t] for r, t in draw(st.lists(
        st.tuples(st.integers(0, nranks - 1), _TIMES), max_size=4))]


@st.composite
def p2p_specs(draw, max_ranks: int = 4, max_messages: int = 10):
    """Point-to-point traffic under adversarial clocks."""
    nranks = draw(st.integers(2, max_ranks))
    return CaseSpec("p2p", {
        "nranks": nranks,
        "profiles": _profile_list(draw, nranks, affine_bias=True),
        "messages": _messages(draw, nranks, max_messages) + _burst(draw, nranks),
        "locals": _locals(draw, nranks),
        "lmin": draw(_LMINS),
    })


@st.composite
def walk_window_specs(draw):
    """A walk visit that wakes early only inside an array window.

    Rank 0 sends a burst of 9 to 100 messages to rank 1; rank 2's first
    event is a send to rank 1 whose receive sits at dependent index
    ``HEAD`` or later of rank 1's log.  The walk visits rank 0 (all
    sends), then rank 1, whose visit passes :data:`HEAD` ready receives
    one at a time and meets rank 2's, not yet sent, in
    :func:`~repro.sync.schedule.first_waiting`'s windows — the only
    place a walk that took sources as done early could go wrong.
    """
    from repro.sync.schedule import HEAD

    n = draw(st.integers(HEAD + 1, 100))
    late = draw(st.integers(HEAD, n))
    gap = 1.0 / (n + 2)
    burst = [[0, 1, gap * (i + 1), 0.0] for i in range(n)]
    return CaseSpec("p2p", {
        "nranks": 3,
        "profiles": _profile_list(draw, 3, affine_bias=True),
        "messages": burst + [[2, 1, gap * (late + 0.5), 0.0]],
        "locals": [],
        "lmin": draw(_LMINS),
    })


@st.composite
def amortization_specs(draw):
    """A binding chain for the backward amortization's reverse scans.

    Rank 2 sends rank 1 a burst ``gap`` apart; rank 1 then sends rank 2
    with no latency (a cap that lets the send advance by nothing) and
    receives from rank 0, whose clock leads by far more than ``gap``.
    The jump's ramp wants every burst receive advanced by about the
    jump, but each may advance only by its gaps to the capped send.
    """
    n, gap, t0 = draw(st.integers(2, 100)), draw(st.sampled_from([1e-6, 1e-5, 1e-4])), draw(_TIMES)
    quiet = {"offset": 0.0, "rate": 0.0, "jumps": [], "steps": []}
    lead = {**quiet, "offset": draw(_finite(1e-3, 5e-3))}
    burst = [[2, 1, t0 + gap * i, draw(st.sampled_from([0.0, 1e-6]))] for i in range(n)]
    return CaseSpec("p2p", {
        "nranks": 3, "profiles": [lead, quiet, draw(st.sampled_from([quiet, lead]))],
        "messages": burst + [[1, 2, t0 + gap * n, 0.0], [0, 1, t0 + gap * (n + 1), 0.0]],
        "locals": [], "lmin": draw(_LMINS),
    })


def _collective_entries(draw, nranks: int, max_collectives: int):
    @st.composite
    def one(idraw):
        op = idraw(st.sampled_from(sorted(int(o) for o in MPI_COLLECTIVES)))
        # min_size=1 keeps degenerate single-member instances in play.
        members = idraw(st.lists(st.integers(0, nranks - 1),
                                 min_size=1, max_size=nranks, unique=True))
        t0 = idraw(_TIMES)
        # skew 0.0 -> every member enters/exits at the identical instant.
        skew = idraw(st.sampled_from([0.0, 1e-5, 2e-3]))
        enters = [t0 + skew * i for i in range(len(members))]
        exits = [t0 + skew * (len(members) + i) for i in range(len(members))]
        return {"op": op, "root": idraw(st.integers(0, nranks - 1)),
                "members": members, "enters": enters, "exits": exits}
    return draw(st.lists(one(), max_size=max_collectives))


@st.composite
def collective_specs(draw, max_ranks: int = 5, max_collectives: int = 6):
    """Collective storms: every flavor, degenerate shapes included."""
    nranks = draw(st.integers(2, max_ranks))
    return CaseSpec("collectives", {
        "nranks": nranks,
        "profiles": _profile_list(draw, nranks, affine_bias=False),
        "collectives": _collective_entries(draw, nranks, max_collectives),
        "messages": _messages(draw, nranks, 4),
        "lmin": draw(_LMINS),
    })


def _pomp_entries(draw, nranks: int, max_regions: int):
    @st.composite
    def one(idraw):
        master = idraw(st.integers(0, nranks - 1))
        threads = idraw(st.lists(st.integers(0, nranks - 1),
                                 min_size=1, max_size=nranks, unique=True))
        t0 = idraw(_TIMES)
        return {
            "master": master,
            "threads": threads,
            "t0": t0,
            "t1": t0 + idraw(_finite(1e-4, 0.5)),
            "skews": idraw(st.lists(_finite(0.0, 1.0), max_size=nranks)),
            "barrier": idraw(st.booleans()),
        }
    return draw(st.lists(one(), max_size=max_regions))


@st.composite
def pomp_specs(draw, max_ranks: int = 4, max_regions: int = 3):
    """POMP parallel regions (fork/join, implicit barriers)."""
    nranks = draw(st.integers(2, max_ranks))
    return CaseSpec("pomp", {
        "nranks": nranks,
        "profiles": _profile_list(draw, nranks, affine_bias=True),
        "pomp": _pomp_entries(draw, nranks, max_regions),
        "locals": _locals(draw, nranks),
        "lmin": draw(st.sampled_from([0.0, 1e-7])),
    })


@st.composite
def mixed_specs(draw, max_ranks: int = 4):
    """MPI messages + collectives + POMP regions in one event stream."""
    nranks = draw(st.integers(2, max_ranks))
    return CaseSpec("mixed", {
        "nranks": nranks,
        "profiles": _profile_list(draw, nranks, affine_bias=False),
        "messages": _messages(draw, nranks, 6),
        "collectives": _collective_entries(draw, nranks, 3),
        "pomp": _pomp_entries(draw, nranks, 2),
        "locals": _locals(draw, nranks),
        "lmin": draw(_LMINS),
    })


@st.composite
def quantization_specs(draw):
    """Timer-resolution grids, including reads near grid boundaries."""
    values = draw(st.lists(
        st.one_of(
            _finite(0.0, 2000.0),
            st.integers(0, 2000).map(float),
        ),
        min_size=1, max_size=12,
    ))
    if draw(st.booleans()):
        # The floor-overshoot regime: a nanosecond grid with
        # integer-valued reads whose ``value / resolution`` rounds up
        # across a cell boundary (15.0 / 1e-9 is the historical case).
        # Random reals essentially never land there, so half the
        # examples pin it explicitly.
        resolution, offset = 1e-9, 0.0
        values += draw(st.lists(
            st.sampled_from([15.0, 29.0, 30.0, 59.0, 61.0, 115.0]),
            min_size=1, max_size=3,
        ))
    else:
        resolution = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]))
        offset = draw(_finite(-1e-3, 1e-3))
    return CaseSpec("clock_quantization", {
        "resolution": resolution,
        "offset": offset,
        "values": sorted(values),
    })


@st.composite
def batch_specs(draw):
    """Full-run engine-equivalence probes for the batch fast path.

    Draws a built-in workload, a timer technology, a placement and the
    run options that shape the event stream (tracing, offset
    measurement, trace-buffer flushes, MPI-region events).  The oracle
    runs the scenario under both engines and demands bit-identity;
    specs with initial offset measurement additionally expect the fast
    path to *engage* (the Cristian exchanges stagger the ranks, so none
    of the tie-based fallbacks can fire).
    """
    from repro.verify.cases import BATCH_WORKLOADS

    workload = draw(st.sampled_from(sorted(BATCH_WORKLOADS)))
    pinning = draw(st.sampled_from(["inter_node", "inter_chip", "inter_core"]))
    # Placement bounds come from the Xeon preset: 2 chips/node, 4
    # cores/chip, plenty of nodes.
    nranks = draw(st.integers(2, {"inter_chip": 2}.get(pinning, 4)))
    if workload == "sparse":
        shape = {
            "rounds": draw(st.integers(1, 5)),
            "density": draw(st.sampled_from([0.0, 0.25, 0.6])),
            "collective_every": draw(st.sampled_from([0, 2])),
        }
    elif workload in ("pingpong", "collective_timing"):
        shape = {
            "repeats": draw(st.integers(1, 6)),
            "nbytes": draw(st.sampled_from([0, 8, 1024])),
            "warmup": draw(st.integers(0, 2)),
        }
    elif workload == "pop":
        steps = draw(st.integers(1, 4))
        window = draw(st.one_of(st.none(), st.just([0, steps])))
        shape = {
            "steps": steps,
            "window": window,
            "reductions_per_step": draw(st.integers(0, 2)),
            "fast_forward": draw(st.booleans()),
        }
    elif workload == "smg2000":
        shape = {
            "cycles": draw(st.integers(1, 3)),
            "levels": draw(st.one_of(st.none(), st.integers(1, 2))),
            "pre_sleep": draw(st.sampled_from([0.0, 0.01])),
            "post_sleep": draw(st.sampled_from([0.0, 0.01])),
        }
    else:  # sweep3d
        shape = {"iterations": draw(st.integers(1, 3))}
    measure_offsets = draw(st.booleans())
    return CaseSpec("batch", {
        "workload": workload,
        "nranks": nranks,
        "pinning": pinning,
        "timer": draw(st.sampled_from([
            "tsc", "timebase", "rtc", "gettimeofday", "mpi_wtime", "cycle",
            "global",
        ])),
        "seed": draw(st.integers(0, 2**16)),
        "workload_seed": draw(st.integers(0, 2**16)),
        "tracing": draw(st.booleans()),
        "measure_offsets": measure_offsets,
        "sync_repeats": draw(st.integers(1, 4)),
        "mpi_regions": draw(st.booleans()),
        "trace_buffer_capacity": draw(st.sampled_from([0, 4])),
        # Piggybacked periodic synchronization (fires on the workloads
        # that issue collectives) and congestion-coupled latency — both
        # run batched end-to-end and must stay bit-identical.
        "periodic_sync_every": draw(st.sampled_from([0, 1, 2, 3])),
        "periodic_sync_repeats": draw(st.integers(1, 3)),
        "congestion_alpha": draw(st.sampled_from([0.0, 0.25, 1.0])),
        "congestion_capacity": draw(st.sampled_from([1, 4, 16])),
        "shape": shape,
        "expect_engaged": measure_offsets,
    })


@st.composite
def streaming_specs(draw, max_ranks: int = 4):
    """Sharded-trace equivalence probes for the out-of-core kernels.

    Draws mixed MPI traffic (messages + collectives + local events,
    maybe a burst) and POMP regions under adversarial clocks, a shard
    size covering the degenerate grain (1), the smallest even/odd grains
    (2, 7) and the single-shard case (100000 > any drawn trace), and
    whether to strip match ids (forcing the FIFO matching path).  A
    burst gets shards of 64 events or one shard: only a shard holding
    more than :data:`~repro.sync.schedule.HEAD` of its receives reaches
    the sweep's windows, and a burst over shards of a few events costs
    minutes a campaign.  The oracle streams the CLC and the violation
    scan over the sharded store and demands bit-identity with the
    in-memory kernels.
    """
    nranks = draw(st.integers(2, max_ranks))
    burst = _burst(draw, nranks)
    return CaseSpec("streaming", {
        "nranks": nranks,
        "profiles": _profile_list(draw, nranks, affine_bias=False),
        "messages": _messages(draw, nranks, 8) + burst,
        "collectives": _collective_entries(draw, nranks, 3),
        "pomp": _pomp_entries(draw, nranks, 2),
        "locals": _locals(draw, nranks),
        "lmin": draw(_LMINS),
        "shard_events": draw(st.sampled_from([64, 100_000] if burst else [1, 2, 7, 100_000])),
        "strip_ids": draw(st.booleans()),
    })


@st.composite
def unit_specs(draw):
    """Non-trace kinds: run_grid identity probes and typing resolution."""
    which = draw(st.sampled_from(["grid", "hints"]))
    if which == "grid":
        return CaseSpec("grid", {
            "seeds": draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4)),
            "n": draw(st.integers(1, 16)),
        })
    return CaseSpec("module_hints", {
        "module": draw(st.sampled_from([
            "repro.sim.engine", "repro.sync.clc", "repro.tracing.trace",
        ])),
        "qualname": "",
    })


@st.composite
def stats_specs(draw):
    """Probes for :mod:`repro.stats`: CI coverage and bootstrap identity.

    ``stats_coverage`` draws a Gaussian population (true mean known) and
    a Monte-Carlo trial count; the oracle checks that t-intervals cover
    the truth at no less than the nominal rate minus binomial slack.
    ``stats_bootstrap`` draws an explicit sample (ties and negative
    values included) and checks seeded-bootstrap determinism.
    """
    if draw(st.booleans()):
        return CaseSpec("stats_coverage", {
            "mu": draw(_finite(-10.0, 10.0)),
            "sigma": draw(st.sampled_from([0.1, 1.0, 25.0])),
            "n": draw(st.integers(2, 12)),
            "trials": draw(st.sampled_from([100, 200])),
            "level": draw(st.sampled_from([0.8, 0.9, 0.95])),
            "seed": draw(st.integers(0, 2**16)),
        })
    return CaseSpec("stats_bootstrap", {
        "values": draw(st.lists(
            st.one_of(_finite(-50.0, 50.0), st.sampled_from([0.0, 1.0, -1.0])),
            min_size=1, max_size=16,
        )),
        "level": draw(st.sampled_from([0.8, 0.9, 0.95, 0.99])),
        "resamples": draw(st.sampled_from([1, 50, 400])),
        "seed": draw(st.integers(0, 2**16)),
    })


@st.composite
def grid_batched_specs(draw):
    """Batched ``run_grid`` identity probes.

    Unlike the plain ``grid`` kind, these pin the batched pool path: 2-3
    workers and at least 16 configs a worker, so every batch holds two or
    more jobs, with distinct seeds so a value landing on a neighbour's
    index shows.
    """
    jobs = draw(st.sampled_from([2, 3]))
    njobs = draw(st.integers(16 * jobs, 40 * jobs))
    return CaseSpec("grid_batched", {
        "seeds": draw(st.lists(st.integers(0, 2**16), unique=True,
                               min_size=njobs, max_size=njobs)),
        "n": draw(st.integers(1, 8)),
        "jobs": jobs,
    })


def adversarial_specs() -> st.SearchStrategy[CaseSpec]:
    """The kitchen sink: any trace kind plus quantization probes."""
    return st.one_of(
        p2p_specs(), collective_specs(), pomp_specs(), mixed_specs(),
        quantization_specs(),
    )


#: Campaign-addressable strategy factories (no-arg callables).
STRATEGIES: dict[str, object] = {
    "p2p": p2p_specs,
    "collectives": collective_specs,
    "pomp": pomp_specs,
    "mixed": mixed_specs,
    "quantization": quantization_specs,
    "batch": batch_specs,
    "streaming": streaming_specs,
    "walk_window": walk_window_specs,
    "amortization": amortization_specs,
    "unit": unit_specs,
    "stats": stats_specs,
    "grid_batched": grid_batched_specs,
    "adversarial": adversarial_specs,
}

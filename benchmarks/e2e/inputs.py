"""Seeded inputs of the end-to-end benchmark.

Everything the program under test sees is made here from ``--seed``:
simulated POP traces (the jump-dense input and the service payloads),
the 2-rank synthetic jump-sparse trace, and the per-request nonces that
keep ``svc_distinct`` out of the service's dedup table.

Importing this module puts the checkout's ``src/`` first on
``sys.path``: the benchmark measures the ``repro`` of its own checkout,
never an installed one, and refuses to start without it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC / 'repro'} not found: the benchmark measures the repro "
             "package of its own checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.options import RunOptions  # noqa: E402
from repro.tracing.events import EventLog  # noqa: E402
from repro.tracing.trace import Trace  # noqa: E402
from repro.workloads import simulate_workload  # noqa: E402

#: Placeholder the svc_distinct payload template carries in ``trace.meta``;
#: replaced textually per request, so every body has a new digest while
#: the events — and so the kernel work — stay identical.
NONCE_SLOT = "@@e2e-nonce@@"

MSG_EVERY = 16
VIOLATIONS = 50


def simulate_pop(seed: int, nprocs: int, scale: float, platform: str):
    """One POP run on the batch engine, one process per node."""
    return simulate_workload(
        "pop", nprocs=nprocs, scale=scale, seed=seed, platform=platform,
        placement="spread", options=RunOptions(engine="batch"),
    )


def sim_seeds(seed: int, count: int) -> list[int]:
    """``count`` simulator seeds that no other ``--seed`` shares."""
    return [seed * 1000 + i for i in range(count)]


def fresh_copy(trace: Trace) -> Trace:
    """The same events in a new ``Trace`` with no cached schedule or matches.

    ``Trace.compiled_schedule()`` caches on the object and
    ``with_timestamps`` carries the cache along, so correcting one
    object twice silently skips the compile the second time.
    """
    return Trace(dict(trace.logs), meta=dict(trace.meta))


def synthetic_trace(seed: int, n_per_rank: int) -> Trace:
    """Two ranks exchanging id-matched messages, ``VIOLATIONS`` of them reversed.

    The trace of ``benchmarks/bench_streaming_traces.synthetic_trace``:
    rank 1's clock leads rank 0's by half a tick and every
    ``MSG_EVERY``-th event is a message, so receives land in order
    except at 50 of them, pulled back to precede their sends.  Here the
    seed picks *which* 50, and zero-valued offset measurements go into
    ``meta`` so ``interpolation="linear"`` runs its full pass (rank 1
    gets ``ts + 0.0``) without changing the violation pattern.
    """
    nmsg = n_per_rank // MSG_EVERY
    idx = np.arange(nmsg) * MSG_EVERY + (MSG_EVERY // 2)
    mids = np.arange(nmsg, dtype=np.int64)
    rng = np.random.default_rng(seed)
    bad = idx[np.sort(rng.choice(nmsg, size=min(VIOLATIONS, nmsg), replace=False))]

    def cols(rank):
        ts = np.arange(n_per_rank, dtype=np.float64) * 1e-6
        et = np.empty(n_per_rank, dtype=np.int32)
        et[::2] = 0  # ENTER
        et[1::2] = 1  # EXIT
        a = np.zeros(n_per_rank, dtype=np.int64)
        b = np.zeros(n_per_rank, dtype=np.int64)
        c = np.zeros(n_per_rank, dtype=np.int64)
        d = np.full(n_per_rank, -1, dtype=np.int64)
        if rank == 0:
            et[idx] = 2  # SEND
            a[idx] = 1
        else:
            ts += 5e-7
            et[idx] = 3  # RECV
            ts[bad] -= 0.9e-6  # now precedes its send (still monotone)
        d[idx] = mids
        return ts, et, a, b, c, d

    end = n_per_rank * 1e-6 + 1.0
    meta = {
        "init_offsets": {r: (0.0, 0.0) for r in (0, 1)},
        "final_offsets": {r: (end, 0.0) for r in (0, 1)},
    }
    return Trace({r: EventLog.from_arrays(*cols(r)) for r in (0, 1)}, meta=meta)

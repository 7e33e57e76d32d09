"""Short-lived helper process of ``stream_jumpsparse``.

The measuring process must never hold the whole jump-sparse trace (its
peak RSS is the store's promise), so the two steps that need the trace
in memory run here and print one JSON line::

    python benchmarks/e2e/child.py shard DIR --seed N --events-per-rank K --shard-events S
    python benchmarks/e2e/child.py reference --seed N --events-per-rank K

``shard`` writes the trace with ``write_sharded_trace`` and reports the
write time; ``reference`` corrects it in memory and reports the sha256
of the corrected timestamps, the oracle the streamed result must match.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from inputs import synthetic_trace  # first: puts the checkout's src/ on sys.path
from layers import timestamps_sha256

from repro.core.correct import correct_trace
from repro.tracing.store import write_sharded_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["shard", "reference"])
    parser.add_argument("shard_dir", nargs="?")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events-per-rank", type=int, required=True)
    parser.add_argument("--shard-events", type=int)
    args = parser.parse_args(argv)

    trace = synthetic_trace(args.seed, args.events_per_rank)
    if args.mode == "shard":
        start = time.perf_counter()
        out = write_sharded_trace(trace, args.shard_dir, shard_events=args.shard_events)
        write_s = time.perf_counter() - start
        size = sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())
        print(json.dumps({"write_s": write_s, "bytes": size}))
    else:
        result = correct_trace(trace, interpolation="linear", clc=True)
        print(json.dumps({"sha256": timestamps_sha256(result.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

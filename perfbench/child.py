"""One cold pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_FILE]

Imports pffcert from the ``src`` directory of this checkout, generates the
workload's inputs, runs every operation once in a closed loop (each issued
when the previous one returns), and prints one JSON object with the timings,
outcome labels, peak memory and, when MODE is ``traced``, the per-span
summary; MODE ``plain`` runs untraced, and MODE ``setup`` stops after the
set-up and prints only its times.
The operations of untraced passes run under a host-speed probe, and their
times are reference-speed seconds (see hostspeed.py); the operations of traced
passes report wall time.  The set-up reports wall time, which the parent
scales (see run.py).  The outputs are checked after the timed loop; the
problems found are part of the JSON.  SPANS_FILE, if given, receives the raw
spans of a traced pass.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    workload_name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    trace = mode == "traced"
    clock = time.perf_counter
    spawned = clock() - (time.time() - spawned_at)
    sys.path.insert(0, str(ROOT / "src"))
    import pffcert
    from pffcert import arith
    from pffcert.errors import PffcertError

    if Path(pffcert.__file__).resolve().parent != ROOT / "src" / "pffcert":
        print(f"pffcert was imported from {pffcert.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import numpy as np

    from tracer import Tracer, summary
    from workloads import UNDECIDED, WORKLOADS

    workload = WORKLOADS[workload_name]
    ops = workload.inputs(seed)
    raw_setup_s = clock() - spawned
    if mode == "setup":
        print(json.dumps({"raw_setup_s": raw_setup_s}))
        return 0

    tracer = Tracer()
    probe = HostSpeed()
    results, windows, outcomes = [], [], Counter()
    errors = 0
    with tracer if trace else probe:
        for i, op in enumerate(ops):
            tracer.current_op = i
            t0 = clock()
            try:
                result = workload.run(op)
            except PffcertError as exc:
                result = exc
            windows.append((t0, clock()))
            results.append(result)
            if isinstance(result, PffcertError):
                errors += 1
                outcomes[type(result).__name__] += 1
            else:
                outcomes[workload.outcome(result)] += 1
    # a traced pass is not probed: its times are plain wall times
    op_s = [probe.busy(*w) if trace else probe.scaled(*w) for w in windows]
    factor_cache = arith.factor.cache_info()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(op_s),
        "op_s": op_s,
        "raw_op_s": [probe.busy(*w) for w in windows],
        "probe_samples": len(probe.took),
        "host_slowdown": statistics.median(probe.took) / REFERENCE_S if probe.took else None,
        "attempted": len(ops),
        "errors": errors,
        "undecided": outcomes[UNDECIDED],
        "outcomes": dict(outcomes),
        "peak_rss_mib": peak_rss_mib,
        "factor_cache": {"hits": factor_cache.hits, "misses": factor_cache.misses},
    }
    if trace:
        out["spans"] = len(tracer.start)
        out["trace"] = summary(tracer)
        out["items"] = dict(tracer.items)
        if len(argv) > 4:
            np.savez(argv[4], names=np.array(tracer.names), **tracer.arrays())
    done = [(op, r) for op, r in zip(ops, results) if not isinstance(r, PffcertError)]
    out["problems"] = workload.check([op for op, _ in done], [r for _, r in done])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

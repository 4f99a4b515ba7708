"""pffcert benchmark: cold certify grids, PFF search and the character-sum oracle.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold passes of one workload, each in a fresh interpreter (see child.py),
one after another for about S seconds, and prints every metric by name and
unit, then a last line with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, each the median over the passes; their
operation times are scaled to a reference host speed (see hostspeed.py).
``setup_s`` is the median over set-up launches, fresh interpreters that stop
after the set-up, made after the passes: at least SETUP_LAUNCHES, and as
many as fit in S seconds.  Each launch's wall time is scaled by the mean
time of the reference launches (see hostspeed.py) just before and after it.
With ``--trace 1`` they are the per-layer ones, from traced passes that
alternate with untraced passes; the untraced ones give the tracing overhead,
in plain wall time.  ``failed`` counts operations that raised; an UNDECIDED
verdict is reported in ``settled_share`` instead.  The full record of the run
goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import hostspeed
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # every run ends within 180 s
SETUP_LAUNCHES = 7
ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchmarkError(Exception):
    pass


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n operations beyond it."""
    if n <= 10:
        raise ValueError(f"{n} operations leave no percentile with ten beyond it")
    return 100 * (n - 10) // n


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, -(-p * len(ordered) // 100)) - 1]


def run_child(workload: str, seed: int, mode: str, timeout: float, spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, repr(time.time())]
    if spans_file is not None:
        cmd.append(str(spans_file))
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} pass failed with exit code {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["child_s"] = time.time() - float(cmd[5])
    return result


def run_setups(workload: str, seed: int, started: float, more: Callable[[list[dict]], bool]) -> list[dict]:
    """Set-up launches while `more(setups)`, each between two reference
    launches, in reference-speed seconds."""
    def timeout() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    before = hostspeed.reference_launch(ENV, timeout())
    setups: list[dict] = []
    while more(setups):
        setup = run_child(workload, seed, "setup", timeout())
        after = hostspeed.reference_launch(ENV, timeout())
        setup["reference_s"] = (before + after) / 2
        setup["setup_s"] = setup["raw_setup_s"] * hostspeed.REFERENCE_LAUNCH_S / setup["reference_s"]
        setups.append(setup)
        before = after
    return setups


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Cold passes and set-up launches for about `seconds`.

    Passes run until the next one would end after `seconds`.  A traced run
    alternates untraced and traced passes, starting untraced, makes at least
    one of each, and makes no set-up launches.  An untraced run then makes at
    least SETUP_LAUNCHES set-up launches, and more until the next one would
    end after `seconds`.
    """
    started = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.monotonic() - started
        spans_file = OUT / f"spans-{workload}.npz" if traced else None
        passes.append(run_child(workload, seed, "traced" if traced else "plain", RUN_LIMIT_S - elapsed, spans_file))
        elapsed = time.monotonic() - started
        typical = statistics.median(p["child_s"] for p in passes)
        if len(passes) >= 1 + trace and elapsed + typical > seconds:
            break
    if trace:
        return [], passes

    def more(setups: list[dict]) -> bool:
        if len(setups) < SETUP_LAUNCHES:
            return True
        # a set-up launch and the reference launch after it take about twice the set-up's child time
        pair = 2 * statistics.median(s["child_s"] for s in setups)
        return time.monotonic() - started + pair <= seconds

    return run_setups(workload, seed, started, more), passes


def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    n = passes[0]["attempted"]
    tail = tail_percentile(n)
    attempted = sum(p["attempted"] for p in passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p["op_s"]) for p in passes),
        "op_tail_ms": 1e3 * statistics.median(percentile(p["op_s"], tail) for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "settled_share": sum(p["attempted"] - p["errors"] - p["undecided"] for p in passes) / attempted,
        "failed_share": sum(p["errors"] + p["undecided"] for p in passes) / attempted,
        "raw_wall_s": statistics.median(sum(p["raw_op_s"]) for p in passes),
        "host_slowdown": statistics.median(p["host_slowdown"] for p in passes),
        "op_tail_percentile": tail,
        "ops_per_pass": n,
        "passes": len(passes),
        "setup_launches": len(setups),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
    }


def per_layer(passes: list[dict], names: list[str]) -> dict[str, float]:
    traced = [p for p in passes if "trace" in p]
    plain = [p for p in passes if "trace" not in p]
    out: dict[str, float] = {}
    for name in traced[0]["trace"]:
        out[f"{name}.calls"] = traced[0]["trace"][name]["calls"]
        out[f"{name}.self_s"] = statistics.median(p["trace"][name]["self_s"] for p in traced)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(
            sum(v["self_s"] for k, v in p["trace"].items() if k.startswith(layer + ".")) for p in traced)
    cache = traced[0]["factor_cache"]
    out["arith.factor.cache_hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    out["arith.factor.timeouts"] = traced[0]["trace"]["arith.factor"]["raised"].get("FactorTimeout", 0)
    elements = traced[0]["items"].get("smallfield.build", 0)
    out["smallfield.build.elements"] = elements
    build_s = statistics.median(p["trace"]["smallfield.build"]["total_s"] for p in traced)
    out["smallfield.build.us_per_element"] = 1e6 * build_s / elements if elements else 0.0
    for name in names:
        if name.startswith("sieve.method."):  # the winning certify method; zero off the certify workloads
            out[name] = traced[0]["outcomes"].get(name.removeprefix("sieve.method."), 0)
    out["trace.wall_s"] = statistics.median(sum(p["raw_op_s"]) for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(sum(p["raw_op_s"]) for p in plain)
    out["trace.spans"] = traced[0]["spans"]
    return out


def determinism_problems(passes: list[dict]) -> list[str]:
    """Counts that must repeat exactly between cold passes of one seed."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        if p["outcomes"] != first["outcomes"]:
            problems.append(f"outcomes differ between passes: {first['outcomes']} vs {p['outcomes']}")
    traced = [p for p in passes if "trace" in p]
    for p in traced[1:]:
        for name, span in p["trace"].items():
            if span["calls"] != traced[0]["trace"][name]["calls"]:
                problems.append(f"{name}.calls differs between traced passes")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    try:
        setups, passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    measured = per_layer(passes, [m["name"] for m in declared]) if args.trace else end_to_end(setups, passes)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 2

    problems = [msg for p in passes for msg in p["problems"]] + determinism_problems(passes)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "measured": measured, "problems": problems, "setups": setups, "passes": passes}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for m in declared:
        print(f"{args.workload} {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload}: {measured['passes']} cold passes of {measured['ops_per_pass']} operations "
              f"and {measured['setup_launches']} set-up launches; "
              f"op_tail_ms is p{measured['op_tail_percentile']}; "
              f"unscaled wall time {measured['raw_wall_s']:.4g} s at host slowdown {measured['host_slowdown']:.3g}; "
              f"failed_share (errors and UNDECIDED) = {measured['failed_share']:.4g}")
    for msg in problems:
        print(f"wrong output: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["errors"] for p in passes),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

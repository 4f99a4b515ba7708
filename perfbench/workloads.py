"""The benchmark's workloads: seeded inputs, one call per operation, output checks.

Each workload is a list of operations generated from a seed.  `run` performs
one operation with the pffcert public API, `outcome` labels its result, and
`check` inspects all results after the timed loop, so that checking warms no
cache that a later timed operation would use.  Input generation uses plain
Python where it can, for the same reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pffcert import charsum, fpoly, pff, sieve
from pffcert.errors import PffcertError
from pffcert.fpoly import FPoly
from pffcert.gf import field_for_order

# The paper's five pairs (q, n), n >= 3, with no PFF element.
EXCEPTIONAL = frozenset({(2, 3), (2, 4), (3, 4), (4, 3), (5, 4)})

UNDECIDED = "undecided"


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list[tuple]]
    run: Callable[[tuple], object]
    outcome: Callable[[object], str]  # UNDECIDED marks an operation that settled nothing
    check: Callable[[list[tuple], list[object]], list[str]]  # the problems found


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _divisors(N: int) -> list[int]:
    return [d for d in range(1, N + 1) if N % d == 0]


def _check_pff_polys(q: int, n: int, polys, where: str) -> list[str]:
    problems = []
    for f in polys:
        try:
            ok = f.field.order == q and f.degree == n and pff.verify_pff_polynomial(f).is_pff
        except PffcertError:
            ok = False
        if not ok:
            problems.append(f"{where}: {f} does not re-verify as a PFF polynomial for ({q}, {n})")
    return problems


# -- certify-grid and certify-wide ------------------------------------------------

GRID = [(q, n) for q in range(2, 14) if _is_prime_power(q) for n in range(3, 25)]

WIDE_FILE = Path(__file__).with_name("wide_grid.json")
WIDE_SAMPLE = {"undecided": 3, "decided": 25}  # strata per class: 179 and 1493 pairs
WIDE_BAND = 9


def grid_inputs(seed: int) -> list[tuple]:
    pairs = list(GRID)
    random.Random(seed).shuffle(pairs)
    return pairs


def wide_inputs(seed: int) -> list[tuple]:
    """A stratified sample of the wide grid (prime powers q < 130, 3 <= n <= 40).

    The wide-grid pairs are split by their recorded outcome (UNDECIDED or
    not) and, within each class, into equal strata of consecutive recorded
    certify times; each class gets strata in proportion to its size, so the
    UNDECIDED-prone pairs keep their share of the grid.  From each stratum the
    seed draws one of the WIDE_BAND pairs nearest its middle rank: every seed's
    sample has about the same cost profile, which a uniform draw from whole
    strata of this heavy-tailed grid would not give.
    """
    recorded = json.loads(WIDE_FILE.read_text())
    rng = random.Random(seed)
    pairs = []
    for cls, k in WIDE_SAMPLE.items():
        ranked = recorded[cls]  # [q, n, seconds], by increasing seconds
        for i in range(k):
            middle = (2 * i + 1) * len(ranked) // (2 * k)
            q, n, _ = rng.choice(ranked[middle - WIDE_BAND // 2:middle + WIDE_BAND // 2 + 1])
            pairs.append((q, n))
    rng.shuffle(pairs)
    return pairs


def certify_run(op: tuple) -> sieve.Certificate:
    q, n = op
    return sieve.certify(q, n)


def certify_outcome(cert: sieve.Certificate) -> str:
    return UNDECIDED if cert.status == "UNDECIDED" else cert.method


def certify_check(ops: list[tuple], certs: list[sieve.Certificate]) -> list[str]:
    problems = []
    for (q, n), cert in zip(ops, certs):
        allowed = ("NOT_PFF",) if (q, n) in EXCEPTIONAL else ("PFF", "UNDECIDED")
        if cert.status not in allowed:
            problems.append(f"certify({q}, {n}) = {cert.status}, expected {' or '.join(allowed)}")
        if cert.witness is not None:
            problems += _check_pff_polys(q, n, [cert.witness], f"certify({q}, {n}) witness")
    return problems


# -- search ------------------------------------------------------------------------

# "all" on both sides of smallfield.ENGINE_LIMIT = 6000: the engine path below,
# the tower walk above; "first" on fields far beyond the engine.
SEARCH_ALL = [(2, 12), (3, 7), (3, 8)]
SEARCH_COUNT = [(2, 12), (3, 7)]
SEARCH_FIRST = [(3, 16), (9, 8), (13, 12), (2, 40)]
SWEEP_LIMIT = 5000

# Number of PFF polynomials, recorded where no engine count can confirm it.
RECORDED_ALL = {(3, 8): 48}


def sweep_fields() -> list[tuple[int, int]]:
    return [(q, n) for q in range(2, round(SWEEP_LIMIT ** (1 / 3)) + 1) if _is_prime_power(q)
            for n in range(3, SWEEP_LIMIT.bit_length()) if q**n <= SWEEP_LIMIT]


def search_inputs(seed: int) -> list[tuple]:
    """The sweep, then the searches, each in seeded order.

    The sweep builds the engines that 'all' and 'count' use below the engine
    limit, so running it first makes no operation's cost depend on the order.
    """
    rng = random.Random(seed)
    sweep = [("sweep", q, n) for q, n in sweep_fields()]
    searches = [("all", q, n) for q, n in SEARCH_ALL]
    searches += [("count", q, n) for q, n in SEARCH_COUNT]
    searches += [("first", q, n) for q, n in SEARCH_FIRST]
    rng.shuffle(sweep)
    rng.shuffle(searches)
    return sweep + searches


def search_run(op: tuple):
    mode, q, n = op
    if mode == "sweep":
        return pff.count_pff_elements(q, n)
    return pff.search_pff(q, n, mode, budget=q**n)


def search_outcome(result) -> str:
    return "found" if result else "none"


def search_check(ops: list[tuple], results: list) -> list[str]:
    problems = []
    counts = {(q, n): r for (mode, q, n), r in zip(ops, results) if mode == "sweep"}
    lists = {}
    for (mode, q, n), r in zip(ops, results):
        if mode == "sweep":
            if (r == 0) != ((q, n) in EXCEPTIONAL):
                problems.append(f"count_pff_elements({q}, {n}) = {r}")
            continue
        if mode == "first" and len(r) != 1:
            problems.append(f"search_pff({q}, {n}, 'first') returned {len(r)} polynomials")
        if mode in ("all", "count"):
            if (q, n) in lists and [f.coeffs for f in r] != [f.coeffs for f in lists[q, n]]:
                problems.append(f"search_pff({q}, {n}) differs between 'all' and 'count'")
            lists[q, n] = r
            if (q, n) in counts and counts[q, n] != n * len(r):
                problems.append(f"({q}, {n}): {counts[q, n]} PFF elements but {len(r)} polynomials")
            if RECORDED_ALL.get((q, n), len(r)) != len(r):
                problems.append(f"({q}, {n}): {len(r)} PFF polynomials, recorded {RECORDED_ALL[q, n]}")
            if mode == "count":
                continue  # the same list as 'all'; verified there
        problems += _check_pff_polys(q, n, r, f"search_pff({q}, {n}, {mode!r})")
    return problems


# -- oracle ------------------------------------------------------------------------

# Fields of 10^3 to 5*10^3 elements where x^n - 1 has several factors.
ORACLE_FIELDS = [(7, 4), (13, 3), (4, 5), (3, 7)]
ORACLE_REPEATS = 2


def _poly_divisors(q: int, n: int) -> list[FPoly]:
    """Every monic divisor of x^n - 1 (squarefree for the oracle's fields)."""
    F = field_for_order(q)
    divs = [FPoly.one(F)]
    for f in fpoly.factor_xn_minus_1(F, n).all_factors:
        divs += [d * f for d in divs]
    return divs


def oracle_inputs(seed: int) -> list[tuple]:
    """(m, g, h) for every pair g, h of monic divisors of x^n - 1, ORACLE_REPEATS
    times, with every divisor m of q^n - 1 about equally often, in seeded order.

    The cost of N_formula grows with the degrees of g and h and with the
    number of divisors of m, so fixing how often each value occurs keeps the
    cost profile the same for every seed; the seed decides which m meets
    which (g, h).
    """
    rng = random.Random(seed)
    ops = []
    for q, n in ORACLE_FIELDS:
        ms, polys = _divisors(q**n - 1), _poly_divisors(q, n)
        pairs = [(g, h) for g in polys for h in polys] * ORACLE_REPEATS
        ms = [ms[i % len(ms)] for i in range(len(pairs))]
        rng.shuffle(ms)
        ops += [(q, n, m, g, h) for m, (g, h) in zip(ms, pairs)]
    rng.shuffle(ops)
    return ops


def oracle_run(op: tuple):
    return charsum.N_formula(*op), pff.brute_N(*op)


def oracle_check(ops: list[tuple], results: list) -> list[str]:
    problems = []
    for (q, n, m, g, h), (formula, brute) in zip(ops, results):
        try:
            value = formula.as_integer()
        except ValueError as exc:
            value = exc
        if value != brute:
            problems.append(f"N({q}, {n}, {m}, {g}, {h}): formula {value}, brute force {brute}")
    return problems


WORKLOADS = {
    "certify-grid": Workload(grid_inputs, certify_run, certify_outcome, certify_check),
    "certify-wide": Workload(wide_inputs, certify_run, certify_outcome, certify_check),
    "search": Workload(search_inputs, search_run, search_outcome, search_check),
    "oracle": Workload(oracle_inputs, oracle_run, lambda result: "compared", oracle_check),
}

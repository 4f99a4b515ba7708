"""Every status and method of the wide grid, pinned.

`wide_grid_verdicts.csv` lists (q, n, status, method) for every prime power
q < 130 and 3 <= n <= 40, 1672 pairs.  A change that moves a pair's method
re-pins the table and says which pairs moved.

The pass also guards what the certificates rest on: trial division and
primes proven below psi_12, with no Pollard rho and no probable prime.
"""

import csv
import time
from pathlib import Path

from pffcert import arith
from pffcert.sieve import certify

TABLE = Path(__file__).with_name("wide_grid_verdicts.csv")


def test_wide_grid_verdicts_match_the_table(monkeypatch):
    with TABLE.open() as fh:
        pinned = {(int(r["q"]), int(r["n"])): (r["status"], r["method"]) for r in csv.DictReader(fh)}
    grid = [(q, n) for q in range(2, 130) if arith.factor(q).omega == 1 for n in range(3, 41)]
    assert sorted(pinned) == grid

    def no_rho(n, effort):
        raise AssertionError(f"certify ran Pollard rho on {n}")

    monkeypatch.setattr(arith, "_pollard_brent", no_rho)
    t0 = time.perf_counter()
    moved = {}
    for q, n in grid:
        cert = certify(q, n)
        if (cert.status, cert.method) != pinned[q, n]:
            moved[q, n] = (cert.status, cert.method)
        assert not {"probable_primes", "factor_effort"} & set(cert.numerics), (q, n)
    assert moved == {}
    assert time.perf_counter() - t0 < 15

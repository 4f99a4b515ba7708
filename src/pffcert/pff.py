"""Primitivity, freeness, PFF verdicts, search, and brute-force counting.

A PFF element is primitive and free over F with a free inverse; inverse
primitivity comes along automatically, so verdicts track three flags.
Single-element checks and first-hit search run on plain tower arithmetic
(they stay cheap even for GF(13^12)); every exhaustive job (`search_pff` in
"all"/"count" mode, `count_pff_elements`, `brute_N`) goes through the
small-field engine, so it is capped at `smallfield.ENGINE_LIMIT` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from . import arith, fpoly
from .errors import BudgetExceeded, NotADivisor, NotIrreducible, WrongDegree, ZeroElement
from .fpoly import FPoly
from .gf import Element, tower_for, tower_mod
from .smallfield import engine_for

SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class PffVerdict:
    """Outcome of the three PFF conditions with least failing witnesses."""

    subject: object  # Element or FPoly
    is_primitive: bool
    is_free: bool
    inverse_free: bool
    witnesses: dict

    @property
    def is_pff(self) -> bool:
        return self.is_primitive and self.is_free and self.inverse_free


def is_m_free(x: Element, m: int) -> bool:
    """Not an l-th power for any prime l | m; m must divide q^n - 1."""
    if x.is_zero():
        raise ZeroElement("freeness is only defined on E*")
    N = x.tower.order - 1
    if m < 1 or N % m:
        raise NotADivisor(f"{m} does not divide q^n - 1 = {N}")
    return _least_failing_prime(x, m) is None


def _least_failing_prime(x: Element, m: int) -> int | None:
    return next(x.tower.lth_power_primes(x, arith.factor(m).primes), None)


def is_primitive(x: Element) -> bool:
    return is_m_free(x, x.tower.order - 1)


def pff_verdict(x: Element) -> PffVerdict:
    if x.is_zero():
        raise ZeroElement("the zero element is never primitive")
    l = _least_failing_prime(x, x.tower.order - 1)
    P = fpoly.least_failing_factor(x)
    Pinv = fpoly.least_failing_factor(x.inverse())
    return PffVerdict(
        subject=x,
        is_primitive=l is None,
        is_free=P is None,
        inverse_free=Pinv is None,
        witnesses={"primitivity": l, "freeness": P, "inverse_freeness": Pinv},
    )


def verify_pff_polynomial(f: FPoly) -> PffVerdict:
    """Verdict for a root of monic irreducible f in the tower F[x]/(f)."""
    if not f.is_monic():
        raise NotIrreducible("expected a monic polynomial")
    n = f.degree
    if n < 1:
        raise WrongDegree("expected degree >= 1")
    tower = tower_mod(f)  # building F[x]/(f) is the irreducibility test
    v = pff_verdict(tower.gen_x())
    return PffVerdict(f, v.is_primitive, v.is_free, v.inverse_free, v.witnesses)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search_pff(
    q: int,
    n: int,
    mode: Literal["first", "all", "count"] = "first",
    budget: int | None = None,
) -> list[FPoly]:
    """PFF polynomials for (q, n), sorted; `first` returns at most one.

    `first` walks gamma^e over exponents e coprime to q^n - 1 (each primitive
    element once, deterministic order) on tower arithmetic, as running
    products gamma^e and gamma^(-e), and stops at the earliest element whose
    element and inverse are both free.  `all` and
    `count` return the complete list from the small-field engine, so they
    run on fields of at most min(budget, ENGINE_LIMIT) elements; a larger
    field raises `BudgetExceeded`, as does q^n > budget in any mode.
    """
    if budget is None:
        budget = SEARCH_BUDGET
    if q**n > budget:
        raise BudgetExceeded(f"q^n = {q ** n} exceeds the search budget {budget}")
    if mode != "first":
        eng = engine_for(q, n)
        return eng.min_polys(eng.pff_mask())
    tower = tower_for(q, n)
    N = tower.order - 1
    gamma = tower.generator()
    gamma_inv = gamma.inverse()
    alpha, alpha_inv = gamma, gamma_inv  # gamma^e and gamma^(-e)
    for e in range(1, N + 1):
        if (math.gcd(e, N) == 1 and fpoly.least_failing_factor(alpha) is None
                and fpoly.least_failing_factor(alpha_inv) is None):
            return [fpoly.min_poly(alpha)]
        alpha, alpha_inv = alpha * gamma, alpha_inv * gamma_inv
    return []


def count_pff_elements(q: int, n: int) -> int:
    """Exact number of PFF elements (engine-sized fields only)."""
    return int(engine_for(q, n).pff_mask().sum())


# ---------------------------------------------------------------------------
# brute-force N(m, g, h)
# ---------------------------------------------------------------------------


def brute_N(q: int, n: int, m: int, g: FPoly, h: FPoly) -> int:
    """Exact count of w in E* that are m-free and g-free with h-free inverse.

    Raises NotADivisor unless m divides q^n - 1 and g and h divide x^n - 1.
    """
    eng = engine_for(q, n)
    if m < 1 or eng.N % m:
        raise NotADivisor(f"{m} does not divide q^n - 1 = {eng.N}")
    bad = eng.mult_fail_mask(m) | eng.add_fail_mask(g) | eng.add_fail_mask(h)[eng.inv_idx]
    bad[0] = True
    return int((~bad).sum())

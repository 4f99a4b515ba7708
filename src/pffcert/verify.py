"""The golden verification suite behind `pffcert verify-suite`.

Re-derives every published table figure from scratch and compares it with
the recorded golden value.  Rows flagged with a discrepancy note must
disagree in exactly the declared fields and match the frozen recomputation
instead; anything else is a failure.  The `charsum` and `lemmas` sections
also run the package's oracles: both forms of the character-sum count
against brute-force counts, and the W-bound and primorial lemmas on exact
integers.  The same checks back the acceptance tests, which add the
longer-running criteria on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import arith, charsum, fpoly, goldens, pff, witnesses
from .fpoly import FPoly
from .gf import field_for_order
from .sieve import (
    EXCEPTIONAL_PAIRS,
    Partition,
    SieveDecomposition,
    _poly_core_decomposition,
    compute_Q,
    eval_decomposition,
    eval_R,
    key_ineq,
)
from .smallfield import engine_for


@dataclass(frozen=True)
class CheckResult:
    section: str
    name: str
    ok: bool
    detail: str = ""


# tolerance for values printed to three decimals
_PRINTED = Fraction(1, 1000)
_HALF_CENT, _CENT = Fraction(1, 200), Fraction(1, 100)


def _printed(x: float) -> Fraction:
    """The decimal a golden value was written as, exactly.

    Every comparison with a golden value is decided on Fractions.  An R value
    R = rhs^(2/n) is positive, as is every printed bound on it, so
    lo <= R <= hi exactly when lo^n <= rhs^2 <= hi^n; the float R only
    appears in the details.
    """
    return Fraction(str(x))


# ---------------------------------------------------------------------------
# R tables
# ---------------------------------------------------------------------------


def recompute_r_row(row: goldens.RTableRow):
    """Recompute (s, rho, u, R) for a table row under the row's conventions."""
    q, n = row.q, row.n
    profile = fpoly.degree_profile(q, n)
    u_pool = (
        arith.omega(q**n - 1) if row.u_convention == "full"
        else compute_Q(q, n).radical.omega
    )
    u = u_pool - row.t
    if row.t:
        qd = compute_Q(q, n)
        if not set(row.sieving_primes) <= set(qd.primes):
            raise ValueError(f"R({q},{n}): sieving primes {row.sieving_primes} are not all primes of Q")
        part = Partition(
            tuple(p for p in qd.primes if p not in row.sieving_primes), row.sieving_primes
        )
        delta = part.delta
    else:
        delta = Fraction(1)
    res = eval_R(q, n, profile.n_star, profile.s, profile.rho, u, row.t, delta)
    return profile, u, delta, res


def check_r_table_row(row: goldens.RTableRow) -> CheckResult:
    name = f"R({row.q},{row.n})"
    profile, u, delta, res = recompute_r_row(row)
    mismatched = []
    if profile.s != row.s:
        mismatched.append("s")
    if profile.rho != row.rho:
        mismatched.append("rho")
    if u != row.u:
        mismatched.append("u")
    rhs2, n, published = res.braced**2, row.n, _printed(row.R)
    if row.decimals == 3:
        value_ok = (published - _HALF_CENT) ** n <= rhs2 <= (published + _HALF_CENT) ** n
    else:  # rounded up to two decimals: published - 0.01 < R <= published
        value_ok = (published - _CENT) ** n < rhs2 <= published**n
    if not value_ok:
        mismatched.append("R")
    if row.delta_printed is not None and abs(delta - _printed(row.delta_printed)) > _PRINTED:
        mismatched.append("delta")

    if tuple(mismatched) != tuple(row.mismatched):
        return CheckResult(
            "rvalues", name, False,
            f"fields off {mismatched} but declared {list(row.mismatched)}; R={res.R:.6f}",
        )
    if "R" in row.mismatched:
        frozen, tol = _printed(row.recomputed), Fraction(5, 10**6)
        if not (frozen - tol) ** n <= rhs2 <= (frozen + tol) ** n:
            return CheckResult(
                "rvalues", name, False,
                f"recomputed {res.R:.6f} != frozen {row.recomputed:.6f}",
            )
    # bold marks R >= q, i.e. the bound fails: decided exactly, not on the float R
    bold_eff = not res.passes
    if bold_eff != row.bold:
        return CheckResult("rvalues", name, False,
                           f"R={res.R:.4f} vs q={row.q} contradicts bold={row.bold}")
    detail = f"R={res.R:.4f} (published {row.R})"
    if row.note:
        detail += f" [{row.note}]"
    return CheckResult("rvalues", name, True, detail)


def _decomposition_from_golden(g: goldens.DecompositionGolden) -> SieveDecomposition:
    factors = fpoly.degree_profile(g.q, g.n).factors
    partition = Partition(g.core_primes, g.sieving_primes)
    return _poly_core_decomposition(g.q, factors, g.core_poly_count, partition)


def check_decomposition_golden(g: goldens.DecompositionGolden) -> CheckResult:
    name = f"decomposition({g.q},{g.n})"
    d = _decomposition_from_golden(g)
    res = eval_decomposition(g.q, g.n, d)
    published = _printed(g.delta_published)
    problems = []
    if not (abs(res.delta - published) <= _PRINTED and res.delta >= published):
        problems.append(f"delta {float(res.delta):.6f} vs published {g.delta_published}")
    if abs(res.Delta - _printed(g.Delta_frozen)) > _PRINTED:
        problems.append(f"Delta {float(res.Delta):.4f} vs {g.Delta_frozen}")
    if res.W_core != g.W_core:
        problems.append(f"W_core {res.W_core} vs {g.W_core}")
    crit = float(res.rhs) ** (2.0 / g.n)
    rhs2, n, frozen = res.rhs**2, g.n, _printed(g.criterion_frozen)
    if not ((frozen - _PRINTED) ** n <= rhs2 <= (frozen + _PRINTED) ** n
            and rhs2 < _printed(g.bound_published) ** n):
        problems.append(f"criterion {crit:.4f} vs {g.criterion_frozen} < {g.bound_published}")
    if not res.passes:
        problems.append("criterion unexpectedly fails")
    return CheckResult("rvalues", name, not problems,
                       "; ".join(problems) or f"delta={float(res.delta):.4f} criterion={crit:.4f}")


def check_sieved_r_golden(entry) -> CheckResult:
    q, n, core, sieving, bound = entry
    name = f"sieved-R({q},{n})"
    profile = fpoly.degree_profile(q, n)
    res = key_ineq(q, n, profile, Partition(tuple(core), tuple(sieving)), refined=True)
    ok = res.passes and res.braced**2 < _printed(bound) ** n
    return CheckResult("rvalues", name, ok, f"R={res.R:.4f} < {bound}")


def check_rvalues() -> list[CheckResult]:
    out = [check_r_table_row(r) for r in goldens.ALL_R_ROWS]
    out += [check_decomposition_golden(g) for g in goldens.DECOMPOSITION_GOLDENS]
    out += [check_sieved_r_golden(e) for e in goldens.SIEVED_R_GOLDENS]
    return out


# ---------------------------------------------------------------------------
# polynomial tables
# ---------------------------------------------------------------------------


def check_tables() -> list[CheckResult]:
    out = []
    for (q, n) in witnesses.table_pairs():
        w = witnesses.lookup(q, n)
        v = pff.verify_pff_polynomial(w)
        out.append(CheckResult("tables", f"PFF({q},{n})", v.is_pff, str(w)))
    for (q, n) in sorted(witnesses.SEARCHED_PFF_POLYNOMIALS):
        w = witnesses.lookup(q, n)
        v = pff.verify_pff_polynomial(w)
        out.append(CheckResult("tables", f"PFF({q},{n})", v.is_pff,
                               f"{w} [replacement for an unusable published entry]"))
    return out


# ---------------------------------------------------------------------------
# exceptional pairs
# ---------------------------------------------------------------------------


EXCEPTIONS_LIMIT = 5000  # the exhaustive sweep covers every field of at most this many elements


def small_field_pairs() -> list[tuple[int, int]]:
    """Every (q, n), q a prime power and n >= 3, with q^n <= EXCEPTIONS_LIMIT."""
    pairs = []
    for q in range(2, EXCEPTIONS_LIMIT + 1):
        if q**3 > EXCEPTIONS_LIMIT:
            break
        if arith.factor(q).omega != 1:
            continue
        n = 3
        while q**n <= EXCEPTIONS_LIMIT:
            pairs.append((q, n))
            n += 1
    return pairs


def check_exceptions() -> list[CheckResult]:
    out = []
    for q, n in small_field_pairs():
        count = pff.count_pff_elements(q, n)
        expected_zero = (q, n) in EXCEPTIONAL_PAIRS
        ok = (count == 0) == expected_zero
        out.append(CheckResult("exceptions", f"search({q},{n})", ok,
                               f"{count} PFF elements"))
    return out


# ---------------------------------------------------------------------------
# counting cross-checks
# ---------------------------------------------------------------------------


def primitive_polynomials(q: int, n: int) -> list[FPoly]:
    eng = engine_for(q, n)
    return eng.min_polys(eng.primitive_mask())


def check_counts() -> list[CheckResult]:
    out = []
    cubics = primitive_polynomials(4, 3)
    out.append(CheckResult("counts", "primitive cubics over GF(4)",
                           len(cubics) == 12, f"{len(cubics)}"))
    quartics = primitive_polynomials(5, 4)
    out.append(CheckResult("counts", "primitive quartics over GF(5)",
                           len(quartics) == 48, f"{len(quartics)}"))
    both = [f for f in quartics if f[3] != 0 and f[1] != 0]
    out.append(CheckResult("counts", "quartics with x^3 and x coefficients nonzero",
                           len(both) == 32, f"{len(both)}"))
    return out


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

CHARSUM_FIELDS = [(2, 5), (3, 3), (5, 2), (4, 2), (7, 2), (2, 8), (3, 4)]
NFORMULA_SPOTS = [(3, 4), (5, 2), (2, 6), (4, 3), (7, 2)]


def check_charsum_lemmas(fields=CHARSUM_FIELDS) -> list[CheckResult]:
    out = []
    for q, n in fields:
        eng = engine_for(q, n)
        size = float(q**n)
        ok = True
        detail = ""
        for eta in charsum.all_characters(eng):
            G = charsum.gauss(eta)
            if eta.is_trivial:
                if abs(G.value + 1) > 1e-6:
                    ok, detail = False, f"G(eta_1) = {G.value}"
                    break
            elif abs(G.abs() ** 2 - size) > 1e-6 * size:
                ok, detail = False, f"|G|^2 = {G.abs() ** 2}"
                break
            K = charsum.kloosterman(1, 1, eta)
            if K.abs() > 2 * size**0.5 + 1e-6:
                ok, detail = False, f"|K(1,1)| = {K.abs()}"
                break
        out.append(CheckResult("charsum", f"Gauss/Kloosterman lemmas ({q},{n})", ok, detail))
    return out


def _divisor_polys(q: int, n: int) -> list[FPoly]:
    F = field_for_order(q)
    profile = fpoly.factor_xn_minus_1(F, n)
    one = FPoly.one(F)
    xm1 = FPoly.make(F, (F.neg(1), 1))
    full = FPoly.x_pow_n_minus_1(F, profile.n_star)
    cands = [one, xm1, full]
    if profile.all_factors:
        cands.append(full // profile.all_factors[-1])
    seen, out = set(), []
    for c in cands:
        if c.coeffs not in seen:
            seen.add(c.coeffs)
            out.append(c)
    return out


def nformula_suite(fields=NFORMULA_SPOTS) -> list[tuple[int, int, int, FPoly, FPoly]]:
    """A fixed batch of (q, n, m, g, h) inputs for the oracle comparison."""
    combos = []
    for q, n in fields:
        N = q**n - 1
        qd = compute_Q(q, n)
        ms = sorted({1, qd.Q, arith.radical(N)} | set(qd.radical.primes[:1]))
        gs = _divisor_polys(q, n)
        for m in ms:
            for g in gs:
                for h in gs:
                    combos.append((q, n, m, g, h))
    return combos


def _check_against_brute(formula, label: str, fields) -> list[CheckResult]:
    out = []
    for q, n, m, g, h in nformula_suite(fields):
        val = formula(q, n, m, g, h)
        brute = pff.brute_N(q, n, m, g, h)
        try:
            ok = abs(val.im) < 1e-6 and val.as_integer() == brute
        except ValueError:
            ok = False
        out.append(CheckResult(
            "charsum", f"{label}({q},{n};{m},{g},{h})", ok,
            f"formula {val.re:.6f}{val.im:+.6f}i vs count {brute}"))
    return out


def check_nformula(fields=NFORMULA_SPOTS) -> list[CheckResult]:
    return _check_against_brute(charsum.N_formula, "N", fields)


# the per-character form costs a Kloosterman sum per (character, delta, delta)
# triple, so it runs on the two spots where that stays well under a second
NFORMULA_EXPANDED_SPOTS = [(5, 2), (2, 6)]


def check_nformula_expanded() -> list[CheckResult]:
    return _check_against_brute(charsum.N_formula_expanded, "N-expanded", NFORMULA_EXPANDED_SPOTS)


def check_charsums() -> list[CheckResult]:
    return check_charsum_lemmas() + check_nformula() + check_nformula_expanded()


# ---------------------------------------------------------------------------
# number-theoretic lemmas
# ---------------------------------------------------------------------------

# (k, num, den, excluded prime): W(h) = 2^omega(h) < h^(num/den) for every h
# prime to the excluded prime with omega(h) >= k
PRIMORIAL_BOUNDS = [(49, 1, 6, None), (52, 4, 25, 3), (175, 3, 25, 2)]
# (m, bound): c_m < bound for the largest c_m, over odd m and over all m
C_BOUNDS = [(3 * 5 * 7 * 11 * 13, Fraction(29, 10)), (2 * 3 * 5 * 7 * 11 * 13, Fraction(49, 10))]


def check_lemmas() -> list[CheckResult]:
    out = []
    for k, num, den, exclude in PRIMORIAL_BOUNDS:
        prime_to = f", prime to {exclude}" if exclude else ""
        out.append(CheckResult("lemmas", f"W(h) < h^({num}/{den}) for omega(h) >= {k}{prime_to}",
                               arith.check_primorial_bound(k, num, den, exclude)))
    for m, bound in C_BOUNDS:
        c = arith.c_bound(m)
        out.append(CheckResult("lemmas", f"c_{m} < {float(bound)}", c.less_than(bound) and c.bound_holds(m),
                               f"c = {float(c):.4f}, W({m}) <= c {m}^(1/4)"))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

SECTIONS = {
    "tables": check_tables,
    "rvalues": check_rvalues,
    "exceptions": check_exceptions,
    "counts": check_counts,
    "charsum": check_charsums,
    "lemmas": check_lemmas,
}


def verify_all(section: str | None = None) -> list[CheckResult]:
    if section is not None:
        if section not in SECTIONS:
            raise ValueError(f"unknown section {section!r}; pick from {sorted(SECTIONS)}")
        return SECTIONS[section]()
    out = []
    for name in SECTIONS:
        out.extend(SECTIONS[name]())
    return out

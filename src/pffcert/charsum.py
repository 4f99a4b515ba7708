"""Exact characters, Gauss and Kloosterman sums, and the character-sum count.

Everything runs on the small-field engine (discrete logs plus trace tables)
and carries values as double-precision numbers.  This module is the
independent oracle for the counting function N(m, g, h): it never consults
element orders directly.

N_formula reads its three characteristic functions from one table per field
(`_char_tables`, an `lru_cache` on (q, n) holding four fields), whose rows
are filled on first use and then shared by every call:

- one additive row per squarefree divisor D of x^n - 1, the indicator of
  D-freeness Theta(D) * sum over D' | D of mu(D')/Phi(D') * S_D', S_D' the
  sum of chi_delta over the delta of F-order D'.  Every divisor g of
  x^n - 1, monic or not, reads the row of its radical, found from the
  exponents of g.monic() on the factors of x^n - 1
  (`FieldTower.divisor_exponents`, through `SmallFieldEngine.radical_mask`).
  A row costs one inverse FFT over the (Z/p)^(an) digit cube of E, so a
  field needs at most as many as x^n - 1 has squarefree divisors;
- one multiplicative row per squarefree r | q^n - 1, the indicator of
  r-freeness, already gathered at log w over E*: one inverse FFT of length
  r, since the characters of order dividing r repeat with period r in
  log w.

A row's weight vector has l1 norm at most 2^k (k the number of factors of D
or of primes of r), so each of its values carries a rounding error of order
eps * log2(q^n) * 2^k, about 1e-14 * 2^k up to ENGINE_LIMIT.  N_formula then
takes one dot product of q^n - 1 products of row values, whose errors mostly
cancel.  On fields of 6 * 10^4 to 8 * 10^4 elements the sum is off by at
most 9e-11, well inside the 1e-9 relative tolerance of ComplexVal, which
`as_integer` enforces.

The rows are stored as real float64.  Each Delta_D is closed under negation
and the characters of order dividing r under conjugation, so each sum is
real; a row whose imaginary part exceeds TOL anywhere raises
InconsistentTables instead of being truncated.  A field costs 8 bytes per
element per row: 8 * q^n * (2^r + 4) bytes for the additive rows and the
digit-cube weights (r the number of irreducible factors of x^n - 1), plus
8 * (q^n - 1) per multiplicative row used.  With every row filled that is
0.16 to 0.37 MB for each field of the benchmark's oracle, and at most about
50 MB up to ENGINE_LIMIT (a prime field whose q - 1 has six primes, with
all 64 multiplicative rows in use).

`N_formula_expanded` is the slow reference: the same count summed character
by character over the Gauss and Kloosterman blocks that the sieve proof
bounds.  `pffcert verify-suite` checks N_formula against `pff.brute_N` on
the inputs of `verify.nformula_suite`, and the expanded form against it on
GF(5^2) and GF(2^6).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import InconsistentTables, NotADivisor
from .fpoly import FPoly
from .gf import Element
from .smallfield import SmallFieldEngine, engine_for

TOL = 1e-9


@dataclass(frozen=True)
class ComplexVal:
    re: float
    im: float

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def abs(self) -> float:
        return abs(self.value)

    def as_integer(self) -> int:
        scale = max(1.0, abs(self.re))
        if abs(self.im) > TOL * scale:
            raise ValueError(f"imaginary part {self.im} too large")
        r = round(self.re)
        if abs(self.re - r) > TOL * scale:
            raise ValueError(f"real part {self.re} is not near an integer")
        return int(r)

    @staticmethod
    def of(z: complex) -> "ComplexVal":
        return ComplexVal(z.real, z.imag)


@dataclass(frozen=True)
class MulChar:
    """Multiplicative character eta(gamma^j) = exp(2 pi i k j / (q^n - 1))."""

    engine: SmallFieldEngine
    k: int

    @property
    def is_trivial(self) -> bool:
        return self.k % self.engine.N == 0

    def conj(self) -> "MulChar":
        return MulChar(self.engine, (-self.k) % self.engine.N)

    def __call__(self, x: Element | int) -> complex:
        idx = int(x) if isinstance(x, numbers.Integral) else self.engine.index_of(x)
        if idx == 0:
            raise ValueError("multiplicative characters are undefined at 0")
        j = int(self.engine.log[idx])
        return cmath.exp(2j * cmath.pi * self.k * j / self.engine.N)

    def values(self) -> np.ndarray:
        """eta on all of E, with 0 placed at index 0 (so sums over E* work)."""
        N = self.engine.N
        out = np.zeros(self.engine.size, dtype=complex)
        logs = self.engine.log[1:]
        out[1:] = np.exp(2j * np.pi * self.k * (logs % N) / N)
        return out


def characters_of_order(engine: SmallFieldEngine, d: int) -> list[MulChar]:
    """All phi(d) characters of exact order d (d must divide q^n - 1)."""
    N = engine.N
    if d < 1 or N % d:
        raise NotADivisor(f"{d} does not divide q^n - 1 = {N}")
    step = N // d
    return [MulChar(engine, step * a) for a in range(d) if math.gcd(a, d) == 1]


def all_characters(engine: SmallFieldEngine) -> list[MulChar]:
    return [MulChar(engine, k) for k in range(engine.N)]


# ---------------------------------------------------------------------------
# additive characters
# ---------------------------------------------------------------------------


def _proot_powers(p: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(p) / p)


def _chi_values(engine: SmallFieldEngine) -> np.ndarray:
    return _proot_powers(engine.p)[engine.abs_trace % engine.p]


def _factor_exponents(engine: SmallFieldEngine, D: FPoly):
    """(P, exponent of P in D) for the irreducible factors P of x^n - 1."""
    tower = engine.tower
    return zip(tower.xn_profile().all_factors, tower.divisor_exponents(D))


def _all_monic_divisors(engine: SmallFieldEngine) -> list[FPoly]:
    """Monic divisors of x^n - 1, sorted by (degree, coefficients): the
    (n/n* + 1)^r products of powers of the r irreducible factors."""
    F = engine.tower.F
    profile = engine.tower.xn_profile()
    # x^n - 1 = (x^(n*) - 1)^(n/n*) and x^(n*) - 1 is squarefree
    pb = engine.n // profile.n_star
    divs = [FPoly.one(F)]
    for f in profile.all_factors:
        powers = [FPoly.one(F)]
        for _ in range(pb):
            powers.append(powers[-1] * f)
        divs = [d * fe for d in divs for fe in powers]
    return sorted(divs, key=FPoly.sort_key)


@functools.lru_cache(maxsize=32)
def _f_order_table(q: int, n: int) -> tuple[tuple[FPoly, ...], np.ndarray]:
    """For each delta index, the index into the sorted divisor list of the
    F-order of chi_delta (minimal monic D | x^n - 1 with chi(delta D^sigma(.))
    trivial)."""
    engine = engine_for(q, n)
    tower = engine.tower
    divisors = tuple(_all_monic_divisors(engine))
    size = engine.size
    order_of = np.full(size, -1, dtype=np.int64)
    # triviality of w -> AbsTr(delta D^sigma(w)) is only GF(p)-linear in w,
    # so it must be checked on a full GF(p)-basis of E: the identity rows,
    # whose images under every divisor come from one call of the sigma kernel
    images = tower.sigma_images(np.eye(tower.n * tower.a, dtype=np.int64), divisors)
    for di in range(len(divisors)):
        # delta qualifies iff AbsTr(delta * D^sigma(e_i)) = 0 for every basis e_i
        mask = np.ones(size, dtype=bool)
        for v in tower.elements_of_digits(images[:, di]):
            vi = engine.index_of(v)
            if vi == 0:
                continue
            # AbsTr(delta * v) over all delta
            tr = np.zeros(size, dtype=np.int64)
            logs = engine.log[1:]
            prod_idx = engine.exp[(logs + int(engine.log[vi])) % engine.N]
            tr[1:] = engine.abs_trace[prod_idx]
            mask &= tr % engine.p == 0
        newly = mask & (order_of < 0)
        order_of[newly] = di
    if (order_of < 0).any():
        raise InconsistentTables(f"an additive character of {tower} has no F-order dividing x^n - 1")
    return divisors, order_of


def delta_set(engine: SmallFieldEngine, D: FPoly) -> np.ndarray:
    """Indices of Delta_D = {delta : chi_delta has F-order D}."""
    engine.tower.divisor_exponents(D)  # NotADivisor unless D divides x^n - 1
    divisors, order_of = _f_order_table(engine.q, engine.n)
    di = divisors.index(D.monic())
    return np.nonzero(order_of == di)[0]


def poly_phi(engine: SmallFieldEngine, D: FPoly) -> int:
    """Euler function on F[x]: Phi(D) = |D| prod over P | D of (1 - |P|^-1)."""
    q = engine.q
    out = 1
    for P, e in _factor_exponents(engine, D):
        if e:
            d = P.degree
            out *= q ** (e * d) - q ** ((e - 1) * d)
    return out


def poly_moebius(engine: SmallFieldEngine, D: FPoly) -> int:
    exps = engine.tower.divisor_exponents(D)
    if max(exps, default=0) > 1:
        return 0
    return -1 if sum(exps) % 2 else 1


def squarefree_poly_divisors(engine: SmallFieldEngine, g: FPoly) -> list[FPoly]:
    divs = [FPoly.one(engine.tower.F)]
    for P, e in _factor_exponents(engine, g):
        if e:
            divs = divs + [d * P for d in divs]
    return sorted(divs, key=FPoly.sort_key)


# ---------------------------------------------------------------------------
# Gauss and Kloosterman sums
# ---------------------------------------------------------------------------


def gauss(eta: MulChar) -> ComplexVal:
    engine = eta.engine
    chi = _chi_values(engine)
    vals = eta.values()
    return ComplexVal.of(complex((chi * vals).sum()))


def kloosterman(alpha: Element | int, beta: Element | int, eta: MulChar) -> ComplexVal:
    """K(alpha, beta; eta) = sum over zeta in E* of chi(alpha zeta + beta/zeta) eta(zeta)."""
    engine = eta.engine
    ai = int(alpha) if isinstance(alpha, numbers.Integral) else engine.index_of(alpha)
    bi = int(beta) if isinstance(beta, numbers.Integral) else engine.index_of(beta)
    N = engine.N
    logs = engine.log[1:]
    tr = np.zeros(engine.size - 1, dtype=np.int64)
    if ai:
        tr += engine.abs_trace[engine.exp[(logs + int(engine.log[ai])) % N]]
    if bi:
        tr += engine.abs_trace[engine.exp[((-logs) % N + int(engine.log[bi])) % N]]
    chi = _proot_powers(engine.p)[tr % engine.p]
    vals = eta.values()[1:]
    return ComplexVal.of(complex((chi * vals).sum()))


# ---------------------------------------------------------------------------
# the character-sum expression for N(m, g, h)
# ---------------------------------------------------------------------------


def _theta(m: int) -> Fraction:
    return Fraction(arith.phi(arith.radical(m)), arith.radical(m))


def _Theta(engine: SmallFieldEngine, g: FPoly) -> Fraction:
    """Phi(rad g) / |rad g|, the product of 1 - |P|^-1 over irreducible P | g."""
    out = Fraction(1)
    for P, e in _factor_exponents(engine, g):
        if e:
            out *= 1 - Fraction(1, engine.q**P.degree)
    return out


def _prime_key(engine: SmallFieldEngine, m: int) -> tuple[int, ...]:
    """The primes of q^n - 1 that divide m, which decide m-freeness."""
    if m < 1 or engine.N % m:
        raise NotADivisor(f"{m} does not divide q^n - 1 = {engine.N}")
    return tuple(l for l in engine.N_factors.primes if m % l == 0)


@functools.lru_cache(maxsize=32)
def _trace_positions(q: int, n: int) -> np.ndarray:
    """For each delta index, the digit number sum_k AbsTr(delta b_k) p^k,
    where b_k is the element of index p^k.

    Since the index of w is its little-endian base-p digit number, chi_delta(w)
    is the additive character of (Z/p)^(an) at this position, evaluated at w.
    """
    engine = engine_for(q, n)
    p, N = engine.p, engine.N
    logs = engine.log[1:]
    pos = np.zeros(engine.size, dtype=np.int64)
    for k in range(engine.n * engine.tower.a):
        prod_idx = engine.exp[(logs + int(engine.log[p**k])) % N]
        pos[1:] += engine.abs_trace[prod_idx] % p * p**k
    # the trace form is nondegenerate, so delta -> position is a bijection;
    # bincount rather than np.unique, which imports numpy.ma on its first call
    if not (np.bincount(pos, minlength=engine.size) == 1).all():
        raise RuntimeError(f"trace positions of GF({q}^{n}) are not a bijection")
    pos.flags.writeable = False
    return pos


def _real_row(vals: np.ndarray, at, what: str) -> np.ndarray:
    """vals.real[at] as a read-only float64 row, once vals is real to within TOL."""
    im = float(np.abs(vals.imag).max())
    if im > TOL:
        raise InconsistentTables(f"{what} has an imaginary part of {im:.3g}")
    row = np.array(vals.real[at])
    row.flags.writeable = False  # shared by every caller through the cache
    return row


class _CharTables:
    """The characteristic functions of N_formula on one field, each a float64
    row built on first use and kept.

    `add_row(mask)` is Theta(D) * integral over D' | D of chi_{delta_D'}(w)
    for all w in E, D the squarefree divisor of x^n - 1 whose factors are the
    set bits of mask; D' carries the weight mu(D')/Phi(D') and Delta_D' is
    the set of delta of F-order D'.  Placed at delta's trace position, the
    weights of every delta whose F-order divides D make one inverse FFT over
    the (Z/p)^(an) digit cube.

    `mult_row(primes)` is theta(r) * integral over d | r of eta_d(w) for all w
    in E* (index w - 1), r the product of primes.  The characters of order
    dividing r are eta_k with k = (N/r) j, of order r / gcd(j, r), so their
    weighted sum at gamma^t is r * ifft(weights over j)[t mod r]: one inverse
    FFT of length r, read at log w mod r.
    """

    def __init__(self, q: int, n: int):
        self.engine = engine = engine_for(q, n)
        factors = engine.tower.xn_profile().all_factors
        self._theta_P = [1 - 1 / q**P.degree for P in factors]
        divisors, order_of = _f_order_table(q, n)
        masks = np.array([engine.radical_mask(D) for D in divisors], dtype=np.int64)
        weights = np.array([poly_moebius(engine, D) / poly_phi(engine, D) for D in divisors])
        pos = _trace_positions(q, n)
        # per digit-cube position: the F-order's radical mask and weight
        self._cube_mask = np.empty(engine.size, dtype=np.int64)
        self._cube_mask[pos] = masks[order_of]
        self._cube_weight = np.empty(engine.size)
        self._cube_weight[pos] = weights[order_of]
        self._add_rows: dict[int, np.ndarray] = {}
        self._mult_rows: dict[tuple[int, ...], np.ndarray] = {}

    def add_row(self, mask: int) -> np.ndarray:
        row = self._add_rows.get(mask)
        if row is None:
            engine = self.engine
            cube = np.where(self._cube_mask & ~mask, 0.0, self._cube_weight)
            shape = (engine.p,) * (engine.n * engine.tower.a)
            vals = np.fft.ifftn(cube.reshape(shape)).reshape(-1) * engine.size
            theta = math.prod(t for j, t in enumerate(self._theta_P) if mask >> j & 1)
            row = self._add_rows[mask] = _real_row(theta * vals, slice(None), f"additive row {mask:#b}")
        return row

    def mult_row(self, primes: tuple[int, ...]) -> np.ndarray:
        row = self._mult_rows.get(primes)
        if row is None:
            r = math.prod(primes)
            order = r // np.gcd(np.arange(r), r)
            weights = np.ones(r)
            for l in primes:
                weights[order % l == 0] *= -1 / (l - 1)  # mu(d)/phi(d), one prime at a time
            theta = math.prod(1 - 1 / l for l in primes)
            vals = theta * r * np.fft.ifft(weights)
            at = self.engine.log[1:] % r
            row = self._mult_rows[primes] = _real_row(vals, at, f"multiplicative row {r}")
        return row


@functools.lru_cache(maxsize=4)
def _char_tables(q: int, n: int) -> _CharTables:
    return _CharTables(q, n)


def N_formula(q: int, n: int, m: int, g: FPoly, h: FPoly) -> ComplexVal:
    """Character-sum evaluation of N(m, g, h) in grouped form: the three
    characteristic functions multiplied pointwise over E* (the defining
    expansion), read from the field's cached rows.  `N_formula_expanded` is
    the per-character reference it is tested against.
    """
    engine = engine_for(q, n)
    primes, g_mask, h_mask = _prime_key(engine, m), engine.radical_mask(g), engine.radical_mask(h)
    tables = _char_tables(q, n)
    vg = tables.add_row(g_mask)[1:]
    vh = tables.add_row(h_mask)[engine.inv_idx[1:]]
    return ComplexVal.of(complex(tables.mult_row(primes) @ (vg * vh)))


def N_formula_expanded(q: int, n: int, m: int, g: FPoly, h: FPoly) -> ComplexVal:
    """The rearranged form with the explicit epsilon term.

    N = theta Theta Theta ( q^n + eps + S_dg + S_dh + S_gh + S_dgh ) where
    the S blocks exclude the trivial character in the marked coordinates and
    eps is -1 for g = h = 1, +1 for g != 1 != h, 0 otherwise.
    """
    engine = engine_for(q, n)
    m0 = math.prod(_prime_key(engine, m))  # NotADivisor unless m divides q^n - 1
    g_one = _is_trivial_poly(engine, g)
    h_one = _is_trivial_poly(engine, h)
    eps = -1 if (g_one and h_one) else (1 if (not g_one and not h_one) else 0)

    def mult_weights():
        """(mu(d)/phi(d), eta) for the nontrivial eta of squarefree order d | m."""
        for d in arith.squarefree_divisors(m0):
            if d == 1:
                continue
            wd = Fraction(arith.moebius(d), arith.phi(d))
            for eta in characters_of_order(engine, d):
                yield wd, eta

    def add_weights(e: FPoly):
        """(mu(D)/Phi(D), delta) for the delta of F-order D, 1 != D | rad e."""
        for D in squarefree_poly_divisors(engine, e):
            if D.is_one():
                continue
            w = Fraction(poly_moebius(engine, D), poly_phi(engine, D))
            for di in delta_set(engine, D):
                yield w, int(di)

    total = complex(engine.q**engine.n + eps)
    # d != 1, D1 != 1 (Gauss block on g)
    for wd, eta in mult_weights():
        Gv = gauss(eta).value
        s = sum(float(w1) * eta.conj()(d1) for w1, d1 in add_weights(g))
        total += float(wd) * s * Gv
    # d != 1, D2 != 1 (conjugate Gauss block on h)
    for wd, eta in mult_weights():
        Gv = gauss(eta.conj()).value
        s = sum(float(w2) * eta(d2) for w2, d2 in add_weights(h))
        total += float(wd) * s * Gv
    # d = 1, D1 != 1, D2 != 1 (plain Kloosterman block)
    eta1 = MulChar(engine, 0)
    for w1, d1 in add_weights(g):
        for w2, d2 in add_weights(h):
            total += float(w1 * w2) * kloosterman(d1, d2, eta1).value
    # d != 1, D1 != 1, D2 != 1
    for wd, eta in mult_weights():
        for w1, d1 in add_weights(g):
            for w2, d2 in add_weights(h):
                total += float(wd * w1 * w2) * kloosterman(d1, d2, eta).value
    scale = float(_theta(m0) * _Theta(engine, g) * _Theta(engine, h))
    return ComplexVal.of(scale * total)


def _is_trivial_poly(engine: SmallFieldEngine, g: FPoly) -> bool:
    return not any(engine.tower.divisor_exponents(g))

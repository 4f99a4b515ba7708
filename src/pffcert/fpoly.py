"""Polynomials over a finite field F, and the sigma-module structure of E.

Polynomials are immutable coefficient tuples, least significant first, with
coefficients in the int encoding of their field (see gf.py).  The module
also hosts the additive-order machinery for extension elements: F-orders,
freeness tests and minimal polynomials.  Each h^sigma (x^i replaced by the
i-th Frobenius power) is evaluated by the tower's Frobenius-matrix kernel,
`FieldTower.sigma_images`.  Extension elements are duck-typed here to keep
the import graph acyclic; gf.py provides the concrete Element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from . import arith

if TYPE_CHECKING:  # pragma: no cover
    from .gf import Element


@dataclass(frozen=True)
class FPoly:
    """Dense univariate polynomial over `field` (zero polynomial = empty coeffs)."""

    field: object
    coeffs: tuple[int, ...]

    @staticmethod
    def make(field, coeffs: Iterable[int]) -> "FPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return FPoly(field, tuple(cs))

    @staticmethod
    def zero(field) -> "FPoly":
        return FPoly(field, ())

    @staticmethod
    def one(field) -> "FPoly":
        return FPoly(field, (1,))

    @staticmethod
    def x(field) -> "FPoly":
        return FPoly(field, (0, 1))

    @staticmethod
    def x_pow_n_minus_1(field, n: int) -> "FPoly":
        cs = [0] * (n + 1)
        cs[0] = field.neg(1)
        cs[n] = 1
        return FPoly(field, tuple(cs))

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "FPoly") -> "FPoly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return FPoly.make(F, out)

    def __sub__(self, other: "FPoly") -> "FPoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return FPoly.make(F, [F.sub(self[i], other[i]) for i in range(n)])

    def __neg__(self) -> "FPoly":
        F = self.field
        return FPoly(F, tuple(F.neg(c) for c in self.coeffs))

    def __mul__(self, other: "FPoly") -> "FPoly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FPoly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        bs = [(j, cb) for j, cb in enumerate(b) if cb]
        if F.a == 1:
            # over GF(p): sum plain ints, one % p per coefficient
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in bs:
                        out[i + j] += ca * cb
            p = F.p
            return FPoly.make(F, [c % p for c in out])
        for i, ca in enumerate(a):
            if ca:
                for j, cb in bs:
                    out[i + j] = F.add(out[i + j], F.mul(ca, cb))
        return FPoly.make(F, out)

    def scale(self, c: int) -> "FPoly":
        F = self.field
        return FPoly.make(F, [F.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "FPoly") -> tuple["FPoly", "FPoly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if len(self.coeffs) <= d:
            return FPoly.zero(F), FPoly.make(F, self.coeffs)
        rem = list(self.coeffs)
        lead_inv = F.inv(other.coeffs[-1])
        quo = [0] * (len(rem) - d)
        terms = [(j, oc) for j, oc in enumerate(other.coeffs) if oc]
        if F.a == 1:
            # over GF(p): rem holds plain ints, reduced when read and at the end
            p = F.p
            for i in range(len(rem) - d - 1, -1, -1):
                c = rem[i + d] * lead_inv % p
                if c:
                    quo[i] = c
                    for j, oc in terms:
                        rem[i + j] -= c * oc
            return FPoly.make(F, quo), FPoly.make(F, [r % p for r in rem[:d]])
        for i in range(len(rem) - d - 1, -1, -1):
            c = F.mul(rem[i + d], lead_inv)
            if c == 0:
                continue
            quo[i] = c
            for j, oc in terms:
                rem[i + j] = F.sub(rem[i + j], F.mul(c, oc))
        return FPoly.make(F, quo), FPoly.make(F, rem)

    def __floordiv__(self, other: "FPoly") -> "FPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FPoly") -> "FPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "FPoly") -> "FPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def resultant(self, other: "FPoly") -> int:
        """Res(self, other) in F, from the Euclidean remainder sequence.

        With A = Q B + R: Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R),
        and Res(A, c) = c^(deg A) for a constant c.  For monic self this is
        the product of other(alpha) over the roots alpha of self.
        """
        F = self.field
        a, b = self, other
        acc = 1
        while b.degree > 0:
            r = a % b
            if r.is_zero():
                return 0
            if a.degree * b.degree % 2:
                acc = F.neg(acc)
            acc = F.mul(acc, F.pow(b.coeffs[-1], a.degree - r.degree))
            a, b = b, r
        return F.mul(acc, F.pow(b[0], a.degree))

    def pow_mod(self, e: int, mod: "FPoly") -> "FPoly":
        """self^e mod `mod` by a left-to-right ladder (1 for e = 0)."""
        if e == 0:
            return FPoly.one(self.field)
        base = self % mod
        result = base
        for bit in bin(e)[3:]:
            result = result * result % mod
            if bit == "1":
                result = result * base % mod
        return result

    def evaluate(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def serialize(self) -> list[list[int]]:
        """Nested coefficient lists, least significant first, prime digits inner."""
        F = self.field
        return [list(F.prime_digits(c)) for c in self.coeffs]

    # -- total order used for deterministic choices ----------------------

    def sort_key(self) -> tuple:
        return (self.degree, tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------


def is_irreducible(f: FPoly) -> bool:
    """Ben-Or's test over GF(q): f of degree n is reducible iff
    gcd(f, x^(q^i) - x) != 1 for some i <= n/2, and most reducible f show it
    within a round or two (Gao and Panario 1997)."""
    q = f.field.order
    if f.degree <= 0:
        return False
    h = x = FPoly.x(f.field)
    for _ in range(f.degree // 2):
        h = h.pow_mod(q, f)
        if not f.gcd(h - x).is_one():
            return False
    return True


def _distinct_degree(f: FPoly) -> list[tuple[int, FPoly]]:
    """Distinct-degree split of a squarefree monic f: [(d, product of deg-d factors)]."""
    F = f.field
    q = F.order
    out = []
    x = FPoly.x(F)
    h = x % f
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest.degree, rest))
            break
        h = h.pow_mod(q, rest)
        g = rest.gcd(h - x % rest)
        if not g.is_one():
            out.append((d, g))
            rest = rest // g
            h = h % rest
    return out


def _equal_degree_split(f: FPoly, d: int, rng: random.Random) -> list[FPoly]:
    """Cantor-Zassenhaus split of squarefree monic f into its degree-d factors."""
    F = f.field
    q = F.order
    if f.degree == d:
        return [f]
    while True:
        h = FPoly.make(F, [rng.randrange(q) for _ in range(f.degree)])
        if h.degree < 1:
            continue
        g = f.gcd(h)
        if not g.is_one():
            break
        if q % 2 == 1:
            t = h.pow_mod((q**d - 1) // 2, f) - FPoly.one(F)
        else:
            # char 2: absolute-trace map h + h^2 + ... + h^(2^(ad-1))
            t = FPoly.zero(F)
            acc = h % f
            for _ in range(F.a * d):
                t = t + acc
                acc = acc.pow_mod(2, f)
        g = f.gcd(t)
        if not g.is_one() and g != f.monic():
            break
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


# Seeds the random splitting polynomials of Cantor-Zassenhaus; the factors
# come back sorted, so the seed changes only the time a split takes.
_SPLIT_SEED = 2024


def factor_squarefree(f: FPoly) -> list[FPoly]:
    """Irreducible factors of a squarefree monic polynomial, sorted deterministically."""
    rng = random.Random(_SPLIT_SEED)
    out: list[FPoly] = []
    for d, block in _distinct_degree(f.monic()):
        out.extend(_equal_degree_split(block, d, rng))
    return sorted(out, key=FPoly.sort_key)


# ---------------------------------------------------------------------------
# x^n - 1 structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FOrderProfile:
    """The irreducible factors of x^(n*) - 1 over GF(q), sorted by FPoly.sort_key.

    Freeness over x^n - 1 only ever depends on this radical; x^n - 1 itself
    is its (n/n*)-th power.  The bounds read only the factor degrees, from
    `degree_profile`.
    """

    q: int
    n: int
    n_star: int
    all_factors: tuple[FPoly, ...]


def n_star_of(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def factor_xn_minus_1(F, n: int) -> FOrderProfile:
    """Factor the radical x^(n*) - 1 of x^n - 1 over F."""
    nstar = n_star_of(n, F.char)
    return FOrderProfile(F.order, n, nstar, tuple(factor_squarefree(FPoly.x_pow_n_minus_1(F, nstar))))


# ---------------------------------------------------------------------------
# degrees of the factors of the reduction target, without factoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicFactor:
    """The i-th irreducible factor of Phi_d(x) over GF(q), known only by its degree."""

    d: int
    i: int
    degree: int

    def __str__(self) -> str:
        return f"Phi_{self.d}#{self.i}"


@dataclass(frozen=True)
class DegreeProfile:
    """The factor degrees of the reduction target e = x^e_degree - 1 over GF(q).

    e_degree is 1 for n = 3 with q = 2 mod 3, 2 for n = 4 with q = 3 mod 4,
    and n* otherwise.  Over GF(q), with p not dividing d, Phi_d(x) splits into
    phi(d)/ord_d(q) irreducible factors of degree ord_d(q) (Lidl and
    Niederreiter, Finite Fields, Thm 2.47), so `factors`, sorted by degree,
    needs integer arithmetic only.  s = ord_(n*)(q) is the largest factor
    degree of x^(n*) - 1; its factors of degree below s make up g(x), with
    m = deg g, omega_g factors and rho = omega_g / n.  In the two special
    cases e is exactly that g, so m, omega_g and rho read from e's factors
    in every case.
    """

    q: int
    n: int
    n_star: int
    s: int
    e_degree: int
    factors: tuple[CyclotomicFactor, ...]

    @property
    def m(self) -> int:
        return sum(f.degree for f in self.factors if f.degree < self.s)

    @property
    def omega_g(self) -> int:
        return sum(f.degree < self.s for f in self.factors)

    @property
    def rho(self) -> Fraction:
        return Fraction(self.omega_g, self.n)


def reduction_degree(q: int, n: int) -> int:
    """The degree of the reduction target e = x^e_degree - 1 (see DegreeProfile)."""
    if n == 3 and q % 3 == 2:
        return 1
    if n == 4 and q % 4 == 3:
        return 2
    return n_star_of(n, arith.prime_power(q)[0])


def degree_profile(q: int, n: int) -> DegreeProfile:
    """The DegreeProfile of (q, n), from cyclotomic coset counts."""
    e_degree = reduction_degree(q, n)
    factors = []
    for d in arith.divisors(e_degree):
        deg = arith.mult_order(q, d)
        factors += [CyclotomicFactor(d, i, deg) for i in range(1, arith.phi(d) // deg + 1)]
    factors.sort(key=lambda f: f.degree)
    nstar = n_star_of(n, arith.prime_power(q)[0])
    return DegreeProfile(q, n, nstar, arith.mult_order(q, nstar), e_degree, tuple(factors))


# ---------------------------------------------------------------------------
# sigma evaluation, F-order, freeness, minimal polynomial
# ---------------------------------------------------------------------------


def sigma_eval(h: FPoly, x: "Element") -> "Element":
    """h^sigma(x) = sum h_i * x^(q^i): the linearized action of h on x, by
    the tower's Frobenius-matrix kernel (`FieldTower.sigma_images`)."""
    return x.tower.sigma_apply((h,), x)[0]


def f_order(x: "Element") -> FPoly:
    """Minimal monic divisor g of x^n - 1 with g^sigma(x) = 0."""
    tower = x.tower
    F = tower.F
    profile = tower.xn_profile()
    pb = tower.n // profile.n_star
    exps = {f: pb for f in profile.all_factors}
    current = FPoly.x_pow_n_minus_1(F, tower.n)
    for f in profile.all_factors:
        while exps[f] > 0:
            cand = current // f
            if not sigma_eval(cand, x).is_zero():
                break
            current = cand
            exps[f] -= 1
    return current


def least_failing_factor(x: "Element", e: FPoly | None = None) -> FPoly | None:
    """The least irreducible P | x^n - 1 whose cofactor ((x^n - 1)/P)^sigma
    annihilates x, or None; with e given, only the P dividing e count.

    This is the package's one freeness test on tower arithmetic: one call
    of the tower's sigma kernel on its cached cofactors.  Raises
    NotADivisor unless e divides x^n - 1; without e it reads only the factor
    list, not `FieldTower.divisor_exponents`.
    """
    tower = x.tower
    factors = tower.xn_profile().all_factors
    wanted = tower.divisor_exponents(e) if e is not None else (1,) * len(factors)
    if not any(wanted):
        return None
    images = tower.sigma_apply(tower.cofactors, x)
    return next((P for P, k, y in zip(factors, wanted, images) if k and y.is_zero()), None)


def is_e_free(x: "Element", e: FPoly) -> bool:
    """True iff x = h^sigma(v) with h | e forces h = 1.

    Equivalently: for every irreducible P dividing e, the cofactor
    ((x^n - 1)/P)^sigma does not annihilate x.  Raises NotADivisor unless
    e divides x^n - 1.
    """
    return least_failing_factor(x, e) is None


def is_free(x: "Element") -> bool:
    """Free (normal) over F: every irreducible factor survives."""
    return least_failing_factor(x) is None


def _berlekamp_massey(F, s: list[int]) -> list[int]:
    """The minimal polynomial of the least linear recurrence that generates s,
    monic, coefficients least significant first (Massey 1969)."""
    N = len(s)
    C, B = [1] + [0] * N, [1] + [0] * N  # connection polynomials
    L, m, b = 0, 1, 1
    for k in range(N):
        d = s[k]
        for i in range(1, L + 1):
            d = F.add(d, F.mul(C[i], s[k - i]))
        if d == 0:
            m += 1
            continue
        coef = F.mul(d, F.inv(b))
        T = list(C)
        for i, c in enumerate(B[: N + 1 - m]):
            if c:
                C[i + m] = F.sub(C[i + m], F.mul(coef, c))
        if 2 * L <= k:
            L, B, b, m = k + 1 - L, T, d, 1
        else:
            m += 1
    return C[L::-1]


def min_poly(x: "Element") -> FPoly:
    """Minimal polynomial of x over F, by Berlekamp-Massey on s_k = coeff_0(x^k), k < 2n.

    The minimal polynomial of x is irreducible and annihilates the sequence,
    and s_0 = 1, so the sequence's least recurrence is that polynomial itself.
    """
    tower = x.tower
    s, power = [1, x.coeffs[0]], x
    while len(s) < 2 * tower.n:
        power = power * x
        s.append(power.coeffs[0])
    return FPoly.make(tower.F, _berlekamp_massey(tower.F, s))


def reciprocal(f: FPoly) -> FPoly:
    """Monic reciprocal x^deg * f(1/x) / f(0); needs f(0) != 0."""
    if not f.coeffs or f.coeffs[0] == 0:
        raise ValueError("reciprocal needs a nonzero constant term")
    return FPoly.make(f.field, tuple(reversed(f.coeffs))).monic()


# ---------------------------------------------------------------------------
# printing in the signed convention
# ---------------------------------------------------------------------------


def _coeff_str(F, c: int, power: int) -> tuple[str, str]:
    """(sign, body) for coefficient c on x^power."""
    p = F.p
    if F.a == 1:
        # prime field: render p - k as -k when k <= p/2
        if c > p // 2:
            sign, mag = "-", p - c
        else:
            sign, mag = "+", c
        if power == 0:
            return sign, str(mag)
        if mag == 1:
            body = ""
        else:
            body = str(mag)
    else:
        sign = "+"
        body = F.format_element(c)
        if power > 0 and body == "1":
            body = ""
        elif power > 0 and ("+" in body or "-" in body):
            body = f"({body})"
        if power == 0:
            return sign, body
    xpart = "x" if power == 1 else f"x^{power}"
    return sign, f"{body}{xpart}" if body else xpart


def format_poly(f: FPoly) -> str:
    """Human form, highest power first, signed coefficients over prime fields."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c == 0:
            continue
        sign, body = _coeff_str(f.field, c, i)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)

"""Finite field towers GF(p) < F = GF(p^a) < E = GF(q^n).

Base-field elements are encoded as ints: residues for GF(p), packed
base-p digit vectors for GF(p^a) (so 0 and 1 always encode the additive
and multiplicative identities).  Extension elements over F are coefficient
tuples of length n, reduced modulo the tower's extension modulus.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import fpoly
from .arith import factor, is_prime, prime_power
from .errors import DivisionByZero, InvalidArgument, NotADivisor, NotIrreducible, NotPrime
from .fpoly import FPoly

_TABLE_LIMIT = 1024  # build full mul/inv/add tables for base fields up to this order


class PrimeField:
    """GF(p) with int elements 0..p-1."""

    def __init__(self, p: int):
        self.p = p
        self.char = p
        self.a = 1
        self.order = p

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return pow(x, -1, self.p)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(x), -e, self.p)
        return pow(x, e, self.p)

    def trace_to_prime(self, x: int) -> int:
        return x

    def prime_digits(self, x: int) -> list[int]:
        return [x]

    def format_element(self, x: int) -> str:
        return str(x)

    def __repr__(self) -> str:
        return f"GF({self.p})"


class PolyExtField:
    """GF(p^a) as GF(p)[u]/(modulus); elements are base-p packed ints.

    Up to _TABLE_LIMIT elements, mul and inv (and, for odd p, add and neg)
    read tables; in characteristic 2, addition is XOR of the packed ints.
    """

    def __init__(self, base: PrimeField, modulus: FPoly):
        if modulus.field is not base or not modulus.is_monic():
            raise InvalidArgument(f"the modulus {modulus} is not a monic polynomial over {base}")
        self.base = base
        self.p = base.p
        self.char = base.p
        self.a = modulus.degree
        self.order = base.p**modulus.degree
        self.modulus = modulus
        self._mul_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        self._add_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # packing helpers
    def digits(self, x: int) -> list[int]:
        p = self.p
        return [(x // p**i) % p for i in range(self.a)]

    prime_digits = digits

    def pack(self, digits) -> int:
        return sum(int(d) % self.p * self.p**i for i, d in enumerate(digits))

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self._add_table is not None:
            return self._add_table[x * self.order + y]
        return self._add_raw(x, y)

    def sub(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self._add_table is not None:
            return self._add_table[x * self.order + self._neg_table[y]]
        return self._add_raw(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        if self._neg_table is not None:
            return self._neg_table[x]
        return self.pack(-d % self.p for d in self.digits(x))

    def _add_raw(self, x: int, y: int) -> int:
        p = self.p
        return self.pack((a + b) % p for a, b in zip(self.digits(x), self.digits(y)))

    def _mul_raw(self, x: int, y: int) -> int:
        p = self.p
        dx, dy = self.digits(x), self.digits(y)
        prod = [0] * (2 * self.a - 1)
        for i, cx in enumerate(dx):
            if cx:
                for j, cy in enumerate(dy):
                    prod[i + j] = (prod[i + j] + cx * cy) % p
        # reduce modulo the defining polynomial
        mod = self.modulus.coeffs
        for i in range(len(prod) - 1, self.a - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.a):
                    prod[i - self.a + j] = (prod[i - self.a + j] - c * mod[j]) % p
        return self.pack(prod[: self.a])

    def _generator_powers(self) -> list[int]:
        """[g^0, ..., g^(q-2)] for the least-index generator g of F*."""
        q = self.order
        for g in range(self.p, q):  # below p lies GF(p), which generates nothing for a > 1
            powers, x = [1], g
            while x != 1 and len(powers) < q:
                powers.append(x)
                x = self._mul_raw(x, g)
            if x == 1 and len(powers) == q - 1:
                return powers
        raise NotIrreducible(f"{self.modulus} is not irreducible over GF({self.p})")

    def _build_tables(self) -> None:
        """mul and inv from the logs of one generator walk; add and neg from digit sums."""
        q, p, a = self.order, self.p, self.a
        exp = np.array(self._generator_powers(), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        logs = log[1:]
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(logs[:, None] + logs[None, :]) % (q - 1)]
        self._mul_table = mul.ravel().tolist()
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-logs % (q - 1)]
        self._inv_table = inv.tolist()
        if p == 2:
            return
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for i in range(a):
            d = np.arange(q) // p**i % p
            add += (d[:, None] + d[None, :]) % p * p**i
            neg += -d % p * p**i
        self._add_table = add.ravel().tolist()
        self._neg_table = neg.tolist()

    def mul(self, x: int, y: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[x * self.order + y]
        return self._mul_raw(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[x]
        return self.pow(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(x, -e))
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def trace_to_prime(self, x: int) -> int:
        acc = 0
        y = x
        for _ in range(self.a):
            acc = self.add(acc, y)
            y = self.pow(y, self.p)
        if acc >= self.p:
            raise NotIrreducible(f"the trace of {x} leaves GF({self.p}), so {self.modulus} is reducible")
        return acc

    def format_element(self, x: int) -> str:
        terms = []
        for i in reversed(range(self.a)):
            d = self.digits(x)[i]
            if not d:
                continue
            u = "" if i == 0 else ("u" if i == 1 else f"u^{i}")
            if i == 0:
                terms.append(str(d))
            elif d == 1:
                terms.append(u)
            else:
                terms.append(f"{d}{u}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"GF({self.order})"


# the defining polynomials used throughout for GF(4), GF(8), GF(9);
# everything else takes the lexicographically least monic irreducible
_PREFERRED_BASE_MODULI = {
    (2, 2): (1, 1, 1),  # u^2 + u + 1
    (2, 3): (1, 1, 0, 1),  # u^3 + u + 1
    (3, 2): (2, 2, 1),  # u^2 - u - 1
}


def lex_least_irreducible(field, degree: int) -> FPoly:
    """Smallest monic irreducible of given degree, counting coefficient vectors.

    Past degree 1, x divides every candidate with constant term 0 (k % q == 0),
    so those are skipped without an irreducibility test.
    """
    q = field.order
    for k in range(q**degree):
        if degree > 1 and k % q == 0:
            continue
        coeffs = [(k // q**i) % q for i in range(degree)] + [1]
        f = FPoly(field, tuple(coeffs))
        if fpoly.is_irreducible(f):
            return f
    raise NotIrreducible(f"no irreducible of degree {degree}?")


def base_field(p: int, a: int = 1):
    """GF(p^a) with the package's default modulus, table-backed when small.

    The cache sits behind this call so that base_field(p) and base_field(p, 1)
    return the same object: towers and polynomials compare fields by identity.
    """
    return _base_field_cached(p, a)


@functools.lru_cache(maxsize=None)
def _base_field_cached(p: int, a: int):
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    gfp = PrimeField(p)
    if a == 1:
        return gfp
    coeffs = _PREFERRED_BASE_MODULI.get((p, a))
    mod = lex_least_irreducible(gfp, a) if coeffs is None else FPoly(gfp, coeffs)
    return PolyExtField(gfp, mod)


def field_for_order(q: int):
    """GF(q) for a prime power q, with the package's default modulus."""
    return base_field(*prime_power(q))


@dataclass(frozen=True)
class Element:
    """Element of E in the polynomial basis over F: coeffs, length n."""

    tower: "FieldTower"
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        F = self.tower.F
        return Element(self.tower, tuple(F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        F = self.tower.F
        return Element(self.tower, tuple(F.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Element":
        F = self.tower.F
        return Element(self.tower, tuple(F.neg(a) for a in self.coeffs))

    def scale(self, c: int) -> "Element":
        F = self.tower.F
        return Element(self.tower, tuple(F.mul(c, a) for a in self.coeffs))

    def __mul__(self, other: "Element") -> "Element":
        return self.tower.multiply(self, other)

    def inverse(self) -> "Element":
        return self.tower.inverse(self)

    def __pow__(self, e: int) -> "Element":
        return self.tower.power(self, e)

    def frobenius(self, i: int = 1) -> "Element":
        return self.tower.frobenius(self, i)

    def trace_to_base(self) -> int:
        return self.tower.trace_to_base(self)

    def abs_trace(self) -> int:
        return self.tower.F.trace_to_prime(self.trace_to_base())

    def as_base_field(self) -> int:
        """Coerce an element of F < E back to its F encoding."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("element does not lie in the base field")
        return self.coeffs[0]

    def serialize(self) -> list[list[int]]:
        """Nested coefficient lists, least significant first."""
        F = self.tower.F
        return [list(F.prime_digits(c)) for c in self.coeffs]

    def __str__(self) -> str:
        F = self.tower.F
        return "[" + ", ".join(F.format_element(c) for c in self.coeffs) + "]"


class FieldTower:
    """Descriptor and arithmetic engine for GF(p) < GF(q) < GF(q^n)."""

    def __init__(self, F, n: int, ext_modulus: FPoly):
        if ext_modulus.field is not F or not ext_modulus.is_monic() or ext_modulus.degree != n:
            raise InvalidArgument(f"the extension modulus {ext_modulus} is not monic of degree {n} over {F}")
        self.F = F
        self.p = F.char
        self.a = F.a
        self.q = F.order
        self.n = n
        self.order = self.q**n
        self.ext_modulus = ext_modulus
        # x^n = -(c_0 + ... + c_(n-1) x^(n-1)): the nonzero (j, -c_j), for reduction
        self._mod_terms = tuple((j, F.neg(c)) for j, c in enumerate(ext_modulus.coeffs[:-1]) if c)
        # int64 holds a packed coefficient and a sum of n a products of digits
        self._dtype = np.int64 if max(self.q, n * self.a * (self.p - 1) ** 2) < 2**63 else object
        self._digit_weights = np.array([self.p**j for j in range(self.a)], dtype=self._dtype)
        u_powers = [1]  # u^s packs as p^s for s < a
        for _ in range(2 * self.a - 2):
            u_powers.append(F.mul(u_powers[-1], self.p))
        self._u_table = self._digits([u_powers[j:j + self.a] for j in range(self.a)])  # [j, k]: u^(j+k)
        self._sigma_blocks: dict[tuple[FPoly, ...], np.ndarray] = {}
        self._profile: fpoly.FOrderProfile | None = None
        self._exponents: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._generator: Element | None = None

    # -- construction of elements ----------------------------------------

    def element(self, coeffs) -> Element:
        cs = list(coeffs)[: self.n]
        cs += [0] * (self.n - len(cs))
        return Element(self, tuple(int(c) for c in cs))

    def zero_element(self) -> Element:
        return Element(self, (0,) * self.n)

    def one_element(self) -> Element:
        return self.element([1])

    def embed_base(self, c: int) -> Element:
        return self.element([c])

    def gen_x(self) -> Element:
        """The class of x, a root of the extension modulus."""
        if self.n == 1:
            return self.element([self.F.neg(self.ext_modulus.coeffs[0])])
        return self.element([0, 1])

    def elements(self):
        """All q^n elements, ordered by packed index (small towers only)."""
        q, n = self.q, self.n
        for k in range(self.order):
            yield self.element([(k // q**i) % q for i in range(n)])

    def generator(self) -> Element:
        """Least-index generator of E*, the fixed base of every discrete log.

        For n > 1 the q constants are skipped: their order divides q - 1.
        """
        if self._generator is None:
            # the primes of q - 1, tested on the norm, go first: they cost least
            primes = sorted(factor(self.order - 1).primes, key=lambda l: (self.q - 1) % l != 0)
            start = self.q if self.n > 1 else 1
            self._generator = next(
                x for x in itertools.islice(self.elements(), start, None)
                if next(self.lth_power_primes(x, primes), None) is None
            )
        return self._generator

    def norm(self, x: Element) -> int:
        """Norm_(E/F)(x) = x * x^q * ... * x^(q^(n-1)) = x^((q^n - 1)/(q - 1)), in F.

        For x = g(theta), with theta a root of the monic extension modulus f,
        that product is Res(f, g): O(n^2) operations in F, no Frobenius map.
        """
        return self.ext_modulus.resultant(FPoly.make(self.F, x.coeffs))

    def lth_power_primes(self, x: Element, primes: Iterable[int]) -> Iterator[int]:
        """The primes l of `primes`, in order, with x^((q^n - 1)/l) = 1.

        Each l must divide q^n - 1.  For l | q - 1 the test reads
        Norm(x)^((q - 1)/l) in F, the same element, since
        x^((q^n - 1)/l) = (x^((q^n - 1)/(q - 1)))^((q - 1)/l).
        """
        N, q = self.order - 1, self.q
        one = self.one_element()
        norm = None
        for l in primes:
            if (q - 1) % l == 0:
                if norm is None:
                    norm = self.norm(x)
                hit = self.F.pow(norm, (q - 1) // l) == 1
            else:
                hit = x ** (N // l) == one
            if hit:
                yield l

    # -- arithmetic --------------------------------------------------------

    def multiply(self, x: Element, y: Element) -> Element:
        n = self.n
        ys = [(j, cy) for j, cy in enumerate(y.coeffs) if cy]
        prod = [0] * (2 * n - 1)
        if self.a == 1:  # over GF(p), sum plain ints and reduce once per coefficient
            p = self.p
            for i, cx in enumerate(x.coeffs):
                if cx:
                    for j, cy in ys:
                        prod[i + j] += cx * cy
            for i in range(2 * n - 2, n - 1, -1):
                c = prod[i] % p
                if c:
                    for j, m in self._mod_terms:
                        prod[i - n + j] += c * m
            return Element(self, tuple(c % p for c in prod[:n]))
        F = self.F
        for i, cx in enumerate(x.coeffs):
            if cx:
                for j, cy in ys:
                    prod[i + j] = F.add(prod[i + j], F.mul(cx, cy))
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                for j, m in self._mod_terms:
                    prod[i - n + j] = F.add(prod[i - n + j], F.mul(c, m))
        return Element(self, tuple(prod[:n]))

    def inverse(self, x: Element) -> Element:
        if x.is_zero():
            raise DivisionByZero("inverse of zero element")
        F = self.F
        a = FPoly.make(F, x.coeffs)
        b = self.ext_modulus
        # extended Euclid: s*a + t*b = g
        s0, s1 = FPoly.one(F), FPoly.zero(F)
        r0, r1 = a, b
        while not r1.is_zero():
            qq, rr = divmod(r0, r1)
            r0, r1 = r1, rr
            s0, s1 = s1, s0 - qq * s1
        if r0.degree != 0:
            raise NotIrreducible(f"{x} shares the factor {r0} with the modulus {b}")
        s0 = s0.scale(F.inv(r0.coeffs[0]))
        return self.element(list(s0.coeffs))

    def power(self, x: Element, e: int) -> Element:
        if e < 0:
            return self.power(self.inverse(x), -e)
        r = self.one_element()
        b = x
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def frobenius(self, x: Element, i: int = 1) -> Element:
        """x^(q^i) = (X^i)^sigma(x)."""
        return self.sigma_apply((FPoly.make(self.F, [0] * (i % self.n) + [1]),), x)[0]

    def trace_to_base(self, x: Element) -> int:
        """Tr_(E/F)(x) = (1 + X + ... + X^(n-1))^sigma(x)."""
        return self.sigma_apply((FPoly(self.F, (1,) * self.n),), x)[0].as_base_field()

    # -- the sigma-action -----------------------------------------------------
    # E is an n a-dimensional space over GF(p); digit i a + j of an element is
    # its coordinate on u^j X^i, with u the root of F's modulus (u^0 = 1 over
    # GF(p)).  This is the table engine's index order.

    def _digits(self, coeffs) -> np.ndarray:
        """The GF(p) digits, on a new last axis of length a, of F elements."""
        return np.asarray(coeffs, dtype=self._dtype)[..., None] // self._digit_weights % self.p

    def _times_u(self, digits: np.ndarray) -> np.ndarray:
        """(..., a) digits of c -> (..., a, a), whose row j holds the digits of u^j c."""
        return (digits[..., None, None, :] @ self._u_table)[..., 0, :] % self.p

    @functools.cached_property
    def _phi(self) -> np.ndarray:
        """The Frobenius matrix over GF(p): row i a + j holds the digits of
        sigma(u^j X^i) = u^j X^(q i), as sigma fixes F."""
        xq, powers = self.power(self.gen_x(), self.q), [self.one_element()]
        while len(powers) < self.n:
            powers.append(powers[-1] * xq)
        phi = self._times_u(self._digits([x.coeffs for x in powers]))
        return phi.transpose(0, 2, 1, 3).reshape(self.n * self.a, self.n * self.a)

    def _sigma_block(self, hs: tuple[FPoly, ...]) -> np.ndarray:
        """Row i a + j, column t a + j': digit j' of u^j h_t,i, the
        coefficients of each h_t taken mod x^n - 1 (sigma^n = 1)."""
        block = self._sigma_blocks.get(hs)
        if block is None:
            reduced = [h % FPoly.x_pow_n_minus_1(self.F, self.n) for h in hs]
            D = max([1] + [len(h.coeffs) for h in reduced])
            block = self._times_u(self._digits([[h[i] for h in reduced] for i in range(D)]))
            block = self._sigma_blocks[hs] = block.transpose(0, 2, 1, 3).reshape(D * self.a, len(hs) * self.a)
        return block

    def sigma_images(self, rows, hs: tuple[FPoly, ...]) -> np.ndarray:
        """The digits of h^sigma(x) = sum h_i x^(q^i), a k x len(hs) x n a
        array, for the k digit rows x of `rows` and each h of `hs` over F.

        The package's one sigma-action.  It is GF(p)-linear in x: the Krylov
        rows x, x Phi, ..., x Phi^(D-1) of the Frobenius matrix, with D - 1
        the largest degree of an h mod x^n - 1, meet the coefficient blocks
        of `hs` (cached per tuple) in one matmul.
        """
        p, n, a = self.p, self.n, self.a
        block, phi = self._sigma_block(hs), self._phi
        krylov = [np.asarray(rows, dtype=self._dtype)]
        while len(krylov) * a < len(block):
            krylov.append(krylov[-1] @ phi % p)
        k, D = len(krylov[0]), len(krylov)
        # one row per (x, coefficient l), one column per (power i, digit j)
        stack = np.stack(krylov, axis=1).reshape(k, D, n, a).transpose(0, 2, 1, 3).reshape(k * n, D * a)
        images = (stack @ block % p).reshape(k, n, len(hs), a)
        return images.transpose(0, 2, 1, 3).reshape(k, len(hs), n * a)

    def elements_of_digits(self, rows) -> list[Element]:
        """The elements whose digit rows are the rows of `rows`."""
        coeffs = np.asarray(rows, dtype=self._dtype).reshape(-1, self.n, self.a) @ self._digit_weights
        return [Element(self, tuple(cs)) for cs in coeffs.tolist()]

    def sigma_apply(self, hs: tuple[FPoly, ...], x: Element) -> list[Element]:
        """[h^sigma(x) for h in hs]: `sigma_images` on one row."""
        return self.elements_of_digits(self.sigma_images(self._digits(x.coeffs).reshape(1, -1), hs)[0])

    @functools.cached_property
    def cofactors(self) -> tuple[FPoly, ...]:
        """(x^n - 1)/P for the irreducible factors P of x^n - 1, in
        `xn_profile().all_factors` order: x is P-free iff the sigma-image of
        x under the cofactor of P is nonzero."""
        xn1 = FPoly.x_pow_n_minus_1(self.F, self.n)
        return tuple(xn1 // P for P in self.xn_profile().all_factors)

    def xn_profile(self) -> fpoly.FOrderProfile:
        if self._profile is None:
            self._profile = fpoly.factor_xn_minus_1(self.F, self.n)
        return self._profile

    def divisor_exponents(self, e: FPoly) -> tuple[int, ...]:
        """The exponents of e.monic() on the irreducible factors of x^n - 1,
        in `xn_profile().all_factors` order.

        This is the package's one test of divisibility by x^n - 1: it raises
        NotADivisor for e = 0 and for any e that does not divide x^n - 1.  A
        divisor costs at most r * n/n* divisions by the r factors on its
        first call and one lookup after.
        """
        if e.is_zero():
            raise NotADivisor(f"0 does not divide x^{self.n} - 1")
        rest = e.monic()
        key = rest.coeffs
        exps = self._exponents.get(key)
        if exps is None:
            profile = self.xn_profile()
            # x^n - 1 = (x^(n*) - 1)^(n/n*) and x^(n*) - 1 is squarefree
            pb = self.n // profile.n_star
            found = []
            for f in profile.all_factors:
                k = 0
                while k < pb and f.degree <= rest.degree:
                    quo, rem = divmod(rest, f)
                    if not rem.is_zero():
                        break
                    rest, k = quo, k + 1
                found.append(k)
            if not rest.is_one():
                raise NotADivisor(f"{e} does not divide x^{self.n} - 1")
            exps = self._exponents[key] = tuple(found)
        return exps

    def __repr__(self) -> str:
        return f"GF({self.q}^{self.n})/GF({self.q})"


@functools.lru_cache(maxsize=None)
def _cached_tower(F, n: int, ext_coeffs: tuple[int, ...] | None) -> FieldTower:
    """The tower over F modulo ext_coeffs, or modulo the default modulus."""
    if ext_coeffs is None:
        return FieldTower(F, n, lex_least_irreducible(F, n))
    ext = FPoly(F, ext_coeffs)
    if not ext.is_monic() or not fpoly.is_irreducible(ext):
        raise NotIrreducible(f"{ext} is not a monic irreducible over GF({F.order})")
    return FieldTower(F, n, ext)


def construct_tower(p: int, a: int, n: int) -> FieldTower:
    """GF(p) < GF(p^a) < GF(p^(a n)) with the default moduli: the preferred
    or lexicographically least irreducibles.  `tower_mod` takes any other."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if a < 1 or n < 1:
        raise InvalidArgument(f"extension degrees a = {a}, n = {n} must be positive")
    return _cached_tower(base_field(p, a), n, None)


def tower_mod(f: FPoly) -> FieldTower:
    """The tower F[x]/(f) over the field F of f's coefficients: the one way
    to choose the extension modulus.

    Raises NotIrreducible unless f is monic and irreducible over F.
    """
    return _cached_tower(f.field, f.degree, f.coeffs)


def tower_for(q: int, n: int) -> FieldTower:
    """Tower over GF(q) for a prime power q, default moduli."""
    return construct_tower(*prime_power(q), n)

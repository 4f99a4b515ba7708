"""Exact integer number theory: factorization and multiplicative functions.

Everything here is pure integer arithmetic.  Bound checks that involve
fractional powers (the W-bound constants, the primorial growth lemmas) are
phrased as integer comparisons of both sides raised to the denominator
power, so no floating point is involved in any verdict.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorTimeout, InvalidArgument, NotPrime

# Miller-Rabin with the twelve prime bases 2..37 is deterministic below
# psi_12 = 318665857834031151167461 (Sorenson and Webster 2017), which covers
# everything below 2^64.  Nothing is trusted above that bound: is_prime
# answers there only when a base proves n composite, and raises otherwise.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
DETERMINISTIC_PRIME_BOUND = 318665857834031151167461

# Trial division covers every candidate below TRIAL_BOUND, so a cofactor left
# after it has no prime factor below TRIAL_BOUND.
TRIAL_BOUND = 10**6
DEFAULT_EFFORT = 2_000_000


def is_prime(n: int) -> bool:
    """Proven primality: Miller-Rabin on the bases 2..37.

    Deterministic below DETERMINISTIC_PRIME_BOUND.  Above it, False when a
    base proves n composite; InvalidArgument when every base passes, since
    that proves nothing there.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_passes(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return True
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    if not all(witness_passes(a) for a in _MR_BASES):
        return False
    if n >= DETERMINISTIC_PRIME_BOUND:
        raise InvalidArgument(f"{n} passes Miller-Rabin on bases 2..37, which proves no primality "
                              f"at or above psi_12 = {DETERMINISTIC_PRIME_BOUND}")
    return True


def _pollard_brent(n: int, effort: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    `effort` caps the total iteration count; raises FactorTimeout beyond it.
    """
    rng = random.Random(0xC0FFEE ^ n)
    spent = 0
    while spent < effort:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            spent += r
            if spent >= effort:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorTimeout(f"no factor of {n} within effort budget {effort}")


@dataclass(frozen=True)
class Factorization:
    """value = prod(p^e) with primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev:
                raise ValueError(f"{self.factors} is not a list of increasing primes with positive exponents")
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"the factors multiply to {prod}, not {self.value}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def radical(self) -> int:
        return math.prod(self.primes)

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def W(self) -> int:
        """Number of square-free divisors, 2^omega."""
        return 1 << self.omega

    def phi(self) -> int:
        return math.prod((p - 1) * p ** (e - 1) for p, e in self.factors)

    def divisors(self) -> list[int]:
        ds = [1]
        for p, e in self.factors:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return sorted(ds)


@functools.lru_cache(maxsize=None)
def factor(n: int, effort: int = DEFAULT_EFFORT) -> Factorization:
    """Factor n >= 1 by trial division then Pollard-rho with Brent cycles.

    Raises FactorTimeout when rho spends `effort` iterations on a composite
    part, and InvalidArgument (from is_prime) on a part above the
    deterministic bound that no base proves composite.
    """
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    m = n
    fs: dict[int, int] = {}
    for p in range(2, TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            fs[p] = fs.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if is_prime(c):
            fs[c] = fs.get(c, 0) + 1
        else:
            d = _pollard_brent(c, effort)
            stack += [d, c // d]
    return Factorization(n, tuple(sorted(fs.items())))


def omega_bound(c: int) -> int:
    """Upper bound on omega(c) for c with no prime factor below TRIAL_BOUND.

    Such a c is a product of omega(c) or more factors of at least
    TRIAL_BOUND, so omega(c) <= k for the largest k with TRIAL_BOUND^k <= c.
    """
    k, power = 0, TRIAL_BOUND
    while power <= c:
        power *= TRIAL_BOUND
        k += 1
    return k


@dataclass(frozen=True)
class PartialFactorization:
    """value = found.value * prod(cofactors).

    Each cofactor is what trial division left unsplit, so it has no prime
    factor below TRIAL_BOUND; it may be prime when no proof is at hand
    (above DETERMINISTIC_PRIME_BOUND), but it is never a proven prime.
    """

    value: int
    found: Factorization
    cofactors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.found.value * self.cofactor != self.value:
            raise ValueError(f"the parts multiply to {self.found.value * self.cofactor}, not {self.value}")
        for c in self.cofactors:
            if c < TRIAL_BOUND**2 or (c < DETERMINISTIC_PRIME_BOUND and is_prime(c)):
                raise ValueError(f"cofactor {c} is a proven prime or below {TRIAL_BOUND}^2")

    @property
    def cofactor(self) -> int:
        return math.prod(self.cofactors)


def cyclotomic_value(q: int, d: int) -> int:
    """Phi_d(q) = prod over e | d of (q^e - 1)^moebius(d/e), for q >= 2."""
    num = den = 1
    for e in divisors(d):
        mu = moebius(d // e)
        if mu == 1:
            num *= q**e - 1
        elif mu == -1:
            den *= q**e - 1
    return num // den


@functools.lru_cache(maxsize=None)
def factor_cyclotomic(q: int, d: int) -> PartialFactorization:
    """Factor Phi_d(q), the d-th piece of q^n - 1 = prod over d | n of Phi_d(q).

    A prime p not dividing d divides Phi_d(q) only if q has order d mod p,
    so p = 1 (mod d).  After the primes of d are stripped, trial division
    tries only such candidates below TRIAL_BOUND (odd ones for d > 2); one
    that divides what is left is prime, since its own prime factors are
    smaller candidates and were stripped before it.  What is left after that
    is a proven prime if it lies below DETERMINISTIC_PRIME_BOUND and is_prime
    says so, and is kept as a cofactor otherwise.  No rho runs.
    """
    if q < 2 or d < 1:
        raise ValueError("factor_cyclotomic() needs q >= 2 and d >= 1")
    value = cyclotomic_value(q, d)
    m = value
    fs: dict[int, int] = {}
    for p in factor(d).primes:
        while m % p == 0:
            fs[p] = fs.get(p, 0) + 1
            m //= p
    if d == 1:
        p, step = 2, 1
    else:
        step = d if d % 2 == 0 else 2 * d
        p = 1 + step
    while p < TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            fs[p] = fs.get(p, 0) + 1
            m //= p
        p += step
    if 1 < m < DETERMINISTIC_PRIME_BOUND and is_prime(m):
        fs[m], m = 1, 1
    found = Factorization(value // m, tuple(sorted(fs.items())))
    return PartialFactorization(value, found, (m,) if m > 1 else ())


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a; NotPrime unless q is a prime power."""
    if q < 2 or factor(q).omega != 1:
        raise NotPrime(f"{q} is not a prime power")
    (p, a), = factor(q).factors
    return p, a


def radical(n: int) -> int:
    return factor(n).radical


def omega(n: int) -> int:
    return factor(n).omega


def W(n: int) -> int:
    return factor(n).W


def phi(n: int) -> int:
    return factor(n).phi()


def moebius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if f.omega % 2 else 1


def divisors(n: int) -> list[int]:
    return factor(n).divisors()


def squarefree_divisors(n: int) -> list[int]:
    ds = [1]
    for p in factor(n).primes:
        ds = ds + [d * p for d in ds]
    return sorted(ds)


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m (requires gcd(a, m) = 1)."""
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    o = phi(m)
    for p in factor(o).primes:
        while o % p == 0 and pow(a, o // p, m) == 1:
            o //= p
    return o


# --- the W(m) <= c_m * m^(1/4) machinery ------------------------------------

_SMALL_PRIMES_UNDER_16 = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class CBound:
    """c_m = 2^s / (p_1 ... p_s)^(1/4), over the primes < 16 dividing m.

    Kept as the exact pair (s, p_1*...*p_s); every comparison is done on
    fourth powers so the quarter root never materializes.
    """

    count: int
    prime_prod: int

    def __float__(self) -> float:
        return 2.0**self.count / self.prime_prod**0.25

    def less_than(self, bound: Fraction) -> bool:
        """Exact test c_m < bound, comparing fourth powers."""
        lhs = 2 ** (4 * self.count) * bound.denominator**4
        return lhs < bound.numerator**4 * self.prime_prod

    def bound_holds(self, m: int) -> bool:
        """Exact test W(m) <= c_m * m^(1/4), i.e. W^4 * prod <= 2^(4s) * m."""
        return W(m) ** 4 * self.prime_prod <= 2 ** (4 * self.count) * m


def c_bound(m: int) -> CBound:
    if m < 1:
        raise ValueError("c_bound() needs m >= 1")
    small = [p for p in _SMALL_PRIMES_UNDER_16 if m % p == 0]
    return CBound(len(small), math.prod(small))


def primes_first(k: int, exclude: int | None = None) -> list[int]:
    """The first k primes, optionally skipping one excluded prime."""
    out: list[int] = []
    c = 2
    while len(out) < k:
        if is_prime(c) and c != exclude:
            out.append(c)
        c += 1
    return out


def check_primorial_bound(k: int, num: int, den: int, exclude: int | None = None) -> bool:
    """Check 2^omega < h^(num/den) for every h with omega(h) >= k admissible primes.

    Admissible primes are all primes except `exclude`.  True iff
    2^k < P^(num/den) for P the product of the first k admissible primes
    (the minimal h), and the (k+1)-th admissible prime exceeds 2^(den/num)
    so the inequality propagates to every larger omega.
    Both inequalities are checked on integer powers.
    """
    if k < 1 or not 0 < Fraction(num, den) < 1:
        raise ValueError("need k >= 1 and exponent in (0, 1)")
    ps = primes_first(k + 1, exclude)
    P = math.prod(ps[:k])
    base_ok = 2 ** (k * den) < P**num
    growth_ok = ps[k] ** num > 2**den
    return base_ok and growth_ok

"""The certification engine: reduced moduli, sieve decompositions, bounds.

The certifier decides whether a pair (q, n) admits a primitive element
that is free over GF(q) with a free inverse.  Every bound it tries is a
sieve decomposition, which passes when q^(n/2) > 2 W(core) Delta
(`eval_decomposition`); `key_ineq` and `eval_R` serve the R(n) tables.
Every bound reads the reduction target x^k - 1 only through the degrees of
its factors (`fpoly.degree_profile`), so no bound builds a field or factors
a polynomial; only the exception-list, witness and search stages of
`certify` do, through `pff`.
Bound verdicts are computed on exact rationals: a criterion q^(n/2) > B
with rational B is decided by comparing q^n against B^2, so no verdict
ever rests on floating point.  Floats appear only in reported R values.
The primes of Q they count come from trial division below
arith.TRIAL_BOUND and deterministic Miller-Rabin below
arith.DETERMINISTIC_PRIME_BOUND; whatever is left is a cofactor whose
number of primes is bounded, so no verdict rests on a probable prime.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Literal

from . import arith, fpoly, pff, witnesses
from .arith import Factorization, factor, mult_order
from .errors import DenominatorNonPositive, InvalidArgument, NonPositiveDelta, UnsplitCofactor
from .fpoly import CyclotomicFactor, DegreeProfile, FPoly

EXCEPTIONAL_PAIRS = frozenset({(2, 3), (2, 4), (3, 4), (4, 3), (5, 4)})


# ---------------------------------------------------------------------------
# the reduced modulus Q(q, n)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QData:
    """Q(q, n) = radical of (q^n - 1)/((q - 1) gcd(n, q - 1)), plus the
    companion quantities of the reduction identity: R is the greatest
    divisor of q^n - 1 coprime to Q and Q* = (q^n - 1)/R.

    The quotient is `found` times the `cofactors` that trial division left
    unsplit (see arith.PartialFactorization), so Q has the primes `primes`
    and at most `cofactor_omega` more.  `quotient`, `radical` and `Q` are
    exact only without cofactors and raise UnsplitCofactor otherwise; R and Q*
    are always exact.
    """

    q: int
    n: int
    found: Factorization  # the proven part of the quotient
    cofactors: tuple[int, ...]
    Q_star: int
    R: int

    @property
    def cofactor(self) -> int:
        return math.prod(self.cofactors)

    @property
    def cofactor_omega(self) -> int:
        """Upper bound on the number of primes of Q inside the cofactors."""
        return sum(arith.omega_bound(c) for c in self.cofactors)

    @property
    def primes(self) -> tuple[int, ...]:
        """The proven primes of Q: all of them unless cofactors are left."""
        return self.found.primes

    @property
    def quotient(self) -> Factorization:
        """The unreduced quotient, as the tables print it."""
        if self.cofactors:
            raise UnsplitCofactor(
                f"Q({self.q}, {self.n}) keeps a cofactor of "
                f"{self.cofactor.bit_length()} bits that trial division left unsplit"
            )
        return self.found

    @functools.cached_property
    def radical(self) -> Factorization:
        """Q itself (square-free)."""
        return Factorization(self.quotient.radical, tuple((p, 1) for p in self.primes))

    @property
    def Q(self) -> int:
        return self.radical.value


def compute_Q(q: int, n: int) -> QData:
    """Q(q, n) from the pieces Phi_d(q), d | n, of q^n - 1 = prod Phi_d(q).

    The quotient is the product of the pieces with d > 1 divided by
    gcd(n, q - 1); the piece Phi_1(q) = q - 1 only enters R.  A cofactor
    has no prime below arith.TRIAL_BOUND > n, and such a prime divides at
    most one piece (a prime in Phi_d(q) and Phi_d'(q), d < d', divides
    d'), so Phi_1(q)'s cofactor lies in R and the others in Q.  Each piece
    is factored by arith.factor_cyclotomic, which runs no rho.
    """
    if n >= arith.TRIAL_BOUND:
        raise InvalidArgument(f"n = {n} is not below the trial bound {arith.TRIAL_BOUND}")
    N = q**n - 1
    g = math.gcd(n, q - 1)
    in_N: dict[int, int] = {}
    in_quotient: dict[int, int] = {}
    cofactors: list[int] = []
    R = 1
    for d in arith.divisors(n):
        piece = arith.factor_cyclotomic(q, d)
        for p, e in piece.found.factors:
            in_N[p] = in_N.get(p, 0) + e
            if d > 1:
                in_quotient[p] = in_quotient.get(p, 0) + e
        if d == 1:
            R = piece.cofactor
        elif piece.cofactor > 1:
            cofactors.append(piece.cofactor)
    for p, e in factor(g).factors:
        in_quotient[p] -= e
    exps = tuple((p, e) for p, e in sorted(in_quotient.items()) if e > 0)
    found = Factorization(N // ((q - 1) * g) // math.prod(cofactors), exps)
    R *= math.prod(p**e for p, e in in_N.items() if in_quotient.get(p, 0) <= 0)
    return QData(q, n, found, tuple(sorted(cofactors)), N // R, R)


def lemma_prime_n(q: int, n: int) -> bool:
    """Prime n >= 5, char not dividing n, q a generator mod n.

    A positive answer certifies the pair via the external trace theorem;
    certificates carry that dependency as a flag.
    """
    if n < 5 or not arith.is_prime(n):
        return False
    if q % n == 0:  # n prime, so char | n iff n = p iff n | q
        return False
    return mult_order(q, n) == n - 1


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class SieveAtom:
    """One sieving atom: a prime of Q or an irreducible factor of one of
    the two polynomial copies; weight p for primes, q^deg for polynomials.
    A factor is an FPoly or, in certify, a CyclotomicFactor known by its
    degree.  It prints as kind:value, as certificates list it."""

    kind: Literal["prime", "poly-x", "poly-y"]
    value: object
    weight: int

    @staticmethod
    def prime(p: int) -> "SieveAtom":
        return SieveAtom("prime", p, p)

    @staticmethod
    def poly(f: FPoly | CyclotomicFactor, side: str, q: int) -> "SieveAtom":
        return SieveAtom(f"poly-{side}", f, q**f.degree)

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value}"


@dataclass(frozen=True)
class SieveDecomposition:
    """A (k0, r) decomposition: a common core plus r single-atom extensions.

    `core_omega` is an upper bound on the number of primes of the core
    modulus, for cores with more primes than core_m0 shows (an unsplit
    cofactor's primes sit in the core but not in core_m0); None means
    omega(core_m0).
    """

    core_m0: int
    core_f0: tuple[FPoly | CyclotomicFactor, ...]
    core_g0: tuple[FPoly | CyclotomicFactor, ...]
    atoms: tuple[SieveAtom, ...]
    core_omega: int | None = None

    @property
    def r(self) -> int:
        return len(self.atoms)

    @functools.cached_property
    def delta(self) -> Fraction:
        # the copies of x^n - 1's factors mostly share one weight q^s
        counts = collections.Counter(a.weight for a in self.atoms)
        return Fraction(1) - sum(Fraction(c, w) for w, c in counts.items())

    @property
    def Delta(self) -> Fraction:
        d = self.delta
        if d <= 0:
            raise NonPositiveDelta(f"delta = {d}")
        return Fraction(self.r - 1, 1) / d + 2

    @property
    def u(self) -> int:
        """The number of primes counted in the core (an upper bound)."""
        return arith.omega(self.core_m0) if self.core_omega is None else self.core_omega

    @property
    def t(self) -> int:
        """The number of sieving primes."""
        return sum(a.kind == "prime" for a in self.atoms)

    @property
    def W_core(self) -> int:
        return 1 << (self.u + len(self.core_f0) + len(self.core_g0))


@dataclass(frozen=True)
class DecompResult:
    passes: bool
    rhs: Fraction  # 2 W(k0) Delta
    margin: Fraction  # q^n / rhs^2: the pair passes iff it exceeds 1
    delta: Fraction
    Delta: Fraction
    W_core: int


def eval_decomposition(q: int, n: int, d: SieveDecomposition) -> DecompResult:
    """Exact check of q^(n/2) > 2 W(k0) Delta for a decomposition with delta > 0."""
    delta = d.delta
    if delta <= 0:
        raise NonPositiveDelta(f"delta = {delta} is not positive")
    Delta = d.Delta
    rhs = 2 * d.W_core * Delta
    margin = Fraction(q) ** n / (rhs * rhs)
    return DecompResult(margin > 1, rhs, margin, delta, Delta, d.W_core)


# ---------------------------------------------------------------------------
# the main inequality and its R(n) form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Split of the primes of Q into a core (product m0) and sieving primes.

    `unknown` bounds the core primes that are not listed: those of a
    cofactor that trial division left unsplit.  Only proven primes ever sieve.
    """

    core: tuple[int, ...]
    sieving: tuple[int, ...]
    unknown: int = 0

    @property
    def u(self) -> int:
        return len(self.core) + self.unknown

    @property
    def t(self) -> int:
        return len(self.sieving)

    @property
    def delta(self) -> Fraction:
        return Fraction(1) - sum(Fraction(1, l) for l in self.sieving)


@dataclass(frozen=True)
class BoundResult:
    passes: bool
    R: float  # the equivalent R(n) value: pass iff q > R
    braced: Fraction
    numerics: dict


def _braced_value(
    q: int, n: int, s: int, X: Fraction, w_exponent: int, t: int, delta: Fraction
) -> Fraction:
    """2^w_exponent * ((2X/s + t - 1)/(delta - 2X/(s q^s)) + 2), exactly.

    X is the degree surrogate for the sieved polynomial part (n* - m in the
    exact form, n* - rho n in the relaxed one).
    """
    num = Fraction(2) * X / s + (t - 1)
    den = delta - Fraction(2) * X / (s * q**s)
    if den <= 0:
        raise DenominatorNonPositive(f"denominator {den} is not positive")
    return Fraction(2) ** w_exponent * (num / den + 2)


def _R_value(rhs: Fraction, n: int) -> float:
    """R with q^(n/2) > rhs iff q > R."""
    return float(rhs) ** (2.0 / n)


def _bound_from_braced(q: int, n: int, braced: Fraction, numerics: dict) -> BoundResult:
    passes = Fraction(q) ** n > braced * braced
    R = _R_value(braced, n)
    numerics = dict(numerics, R=R)
    return BoundResult(passes, R, braced, numerics)


def key_ineq(
    q: int,
    n: int,
    profile: DegreeProfile,
    partition: Partition,
    refined: bool = False,
    qdata: QData | None = None,
) -> BoundResult:
    """The core-atom inequality for the g/G split of x^(n*) - 1, read from
    the degree profile of (q, n).

    Additive-only when the sieving prime set is empty.  With W(Q), or its
    upper bound where a cofactor is left unsplit (the bound increases
    with u, so an upper bound on u keeps a pass sound), and exact W(g);
    `refined` replaces the true sieved degree n* - m by n* - rho n.
    The partition must cover every prime of Q(q, n), given as `qdata` or
    computed; supersets are allowed and merely weaken the bound.
    """
    qd = qdata or compute_Q(q, n)
    if (qd.q, qd.n) != (q, n):
        raise ValueError(f"qdata is for ({qd.q}, {qd.n}), not ({q}, {n})")
    covered = set(partition.core) | set(partition.sieving)
    missing = [l for l in qd.primes if l not in covered]
    if missing:
        raise ValueError(f"partition misses primes of Q: {missing}")
    if partition.unknown < qd.cofactor_omega:
        raise ValueError(
            f"partition allows {partition.unknown} unknown primes of Q, not {qd.cofactor_omega}")
    nstar, s = profile.n_star, profile.s
    omega_g, m = profile.omega_g, profile.m
    X = Fraction(nstar - omega_g) if refined else Fraction(nstar - m)
    u, t = partition.u, partition.t
    braced = _braced_value(q, n, s, X, 2 * omega_g + u + 1, t, partition.delta)
    numerics = {
        "s": s, "n_star": nstar, "m": m, "omega": omega_g,
        "rho": profile.rho, "u": u, "t": t, "delta": partition.delta,
        "refined": refined,
    }
    return _bound_from_braced(q, n, braced, numerics)


def eval_R(
    q: int,
    n: int,
    n_star: int,
    s: int,
    rho: Fraction,
    u: int,
    t: int = 0,
    delta: Fraction = Fraction(1),
) -> BoundResult:
    """R(n; q) such that the pair is certified whenever q > R(n; q).

    The relaxed parametrization of the core-atom inequality: the sieved
    degree is taken as n* - rho n, and the exponent on 2 is 2 rho n + u + 1,
    which must be an integer (rho is omega_g / n for the omega_g irreducible
    factors of x^n - 1), so R is exact.
    """
    rho = Fraction(rho)
    two_rho_n = 2 * rho * n
    if two_rho_n.denominator != 1:
        raise InvalidArgument(f"2 rho n = {two_rho_n} is not an integer")
    braced = _braced_value(q, n, s, n_star - rho * n, int(two_rho_n) + u + 1, t, Fraction(delta))
    numerics = {"s": s, "rho": rho, "u": u, "t": t, "delta": Fraction(delta)}
    return _bound_from_braced(q, n, braced, numerics)


def prime_partitions(qdata: QData) -> list[Partition]:
    """The partitions of the primes of Q that certify tries, in its order:
    the primes below q in the core and the rest sieving; every prime in the
    core; then the t largest sieving, for t = 1, ..., omega(Q).  The primes
    of an unsplit cofactor stay in the core."""
    q, primes, unknown = qdata.q, qdata.primes, qdata.cofactor_omega
    out = [Partition(tuple(p for p in primes if p < q), tuple(p for p in primes if p >= q), unknown)]
    out += [Partition(primes[:k], primes[k:], unknown) for k in range(len(primes), -1, -1)]
    return out


# ---------------------------------------------------------------------------
# the bound candidates
# ---------------------------------------------------------------------------


def _poly_core_decomposition(
    q: int, factors: tuple[CyclotomicFactor, ...], core_count: int, partition: Partition
) -> SieveDecomposition:
    """Core = product of primes in partition.core and the first core_count
    polynomial factors on both sides; everything else sieves."""
    core_polys = factors[:core_count]
    sieved = factors[core_count:]
    atoms = [SieveAtom.prime(l) for l in partition.sieving]
    for side in ("x", "y"):
        atoms += [SieveAtom.poly(f, side, q) for f in sieved]
    m0 = math.prod(partition.core)
    return SieveDecomposition(m0, core_polys, core_polys, tuple(atoms), partition.u)


def bound_candidates(
    q: int, n: int, qdata: QData, profile: DegreeProfile
) -> Iterator[tuple[str, SieveDecomposition]]:
    """The (method, decomposition) pairs certify scores, in the order it tries them.

    All are built from the K irreducible factors of the reduction target e,
    known by their degrees (`profile.factors`), the first k0 of which have
    degree below s = ord_(n*)(q):
      keyineq-additive      the first k0 factors in the core, no sieving prime;
      nosieve-bound         all K factors in the core, no sieving prime;
      keyineq-full          the first k0 factors, each partition that sieves;
      custom-decomposition  k = K..0 factors in the core, every partition.
    Each (core count, partition) is yielded once, under its first label.
    With e = x^(n*) - 1, a keyineq-* decomposition has 2 W(core) Delta equal
    to `key_ineq(..., refined=False).braced` for its partition, and delta <= 0
    exactly where key_ineq's denominator is not positive; certify skips those.
    """
    factors, K, k0 = profile.factors, len(profile.factors), profile.omega_g
    partitions = prime_partitions(qdata)
    all_core = partitions[1]
    order = [("keyineq-additive", k0, all_core), ("nosieve-bound", K, all_core)]
    order += [("keyineq-full", k0, part) for part in partitions if part.t]
    order += [("custom-decomposition", k, part) for k in range(K, -1, -1) for part in partitions]
    seen = set()
    for method, k, part in order:
        if (k, part) not in seen:
            seen.add((k, part))
            yield method, _poly_core_decomposition(q, factors, k, part)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

Status = Literal["PFF", "NOT_PFF", "UNDECIDED"]

METHODS = (
    "trivial-n<=2",
    "exception-list",
    "lemma-prime-n",
    "nosieve-bound",
    "keyineq-additive",
    "keyineq-full",
    "custom-decomposition",
    "direct-search",
    "polynomial-witness",
)


@dataclass(frozen=True)
class Certificate:
    q: int
    n: int
    status: Status
    method: str | None
    numerics: dict = field(default_factory=dict)
    witness: FPoly | None = None
    external_axiom: bool = False
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return {"decimal": f"{float(v):.12g}", "rational": f"{v.numerator}/{v.denominator}"}
            if isinstance(v, float):
                return {"decimal": f"{v:.12g}", "rational": None}
            if isinstance(v, (FPoly, SieveAtom)):
                return str(v)
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v

        return {
            "q": self.q,
            "n": self.n,
            "status": self.status,
            "method": self.method,
            "numerics": enc(self.numerics),
            "witness": str(self.witness) if self.witness is not None else None,
            "witness_coefficients": self.witness.serialize() if self.witness is not None else None,
            "external_axiom": self.external_axiom,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class CertifyConfig:
    search_budget: int = pff.SEARCH_BUDGET


def _factoring_evidence(qdata: QData) -> tuple[dict, tuple[str, ...]]:
    """Numerics and notes for what a bound certificate assumes about Q."""
    if not qdata.cofactors:
        return {}, ()
    bits, B, k = qdata.cofactor.bit_length(), arith.TRIAL_BOUND, qdata.cofactor_omega
    numerics = {"cofactor_bits": bits, "trial_bound": B, "cofactor_omega_bound": k}
    note = (f"trial division left a part of Q of {bits} bits unsplit; "
            f"it has no prime below {B}, so at most {k} primes, all counted in the core")
    return numerics, (note,)


def certify(q: int, n: int, config: CertifyConfig | None = None) -> Certificate:
    """Decide PFF / NOT_PFF for (q, n), recording the winning criterion.

    Pipeline: trivial n <= 2; exceptional pairs; the prime-n congruence
    criterion; the sieve decompositions of `bound_candidates`, in order,
    each scored by `eval_decomposition`; finally a known witness polynomial
    or direct search.  The bounds read only integers: the degree profile of
    the reduction target and Q from trial division (`compute_Q`), with no
    rho.  A cofactor of q^n - 1 left unsplit costs no verdict: the bounds
    use an upper bound on its number of primes.  UNDECIDED is only
    reachable with tiny budgets.
    """
    cfg = config or CertifyConfig()
    arith.prime_power(q)  # NotPrime unless q is a prime power
    if n < 1:
        raise InvalidArgument(f"n = {n} is not a positive extension degree")

    if n <= 2:
        return Certificate(q, n, "PFF", "trivial-n<=2",
                           notes=("primitive elements of quadratic or trivial extensions are free both ways",))

    if (q, n) in EXCEPTIONAL_PAIRS:
        found = pff.search_pff(q, n, "all")
        return Certificate(q, n, "NOT_PFF", "exception-list", notes=(
            "listed exceptional pair", f"exhaustive search cross-check: {len(found)} PFF polynomials"))

    if lemma_prime_n(q, n):
        return Certificate(
            q, n, "PFF", "lemma-prime-n",
            numerics={"q_mod_n": q % n, "order": n - 1},
            external_axiom=True,
            notes=("relies on the primitive-element-with-nonzero-trace theorem as an external axiom",),
        )

    profile = fpoly.degree_profile(q, n)
    qdata = compute_Q(q, n)
    for method, d in bound_candidates(q, n, qdata, profile):
        if d.delta <= 0:
            continue
        res = eval_decomposition(q, n, d)
        if res.passes:
            numerics = {
                "delta": res.delta, "Delta": res.Delta, "W_core": res.W_core,
                "u": d.u, "t": d.t, "core_m0": d.core_m0,
                "core_degrees": [f.degree for f in d.core_f0],
                "atoms": list(d.atoms),
                "rhs": res.rhs, "R": _R_value(res.rhs, n), "margin": res.margin,
            }
            q_numerics, q_notes = _factoring_evidence(qdata)
            return Certificate(q, n, "PFF", method, numerics=dict(numerics, **q_numerics),
                               notes=q_notes)

    # known witness polynomial, then direct search
    w = witnesses.lookup(q, n)
    if w is not None and pff.verify_pff_polynomial(w).is_pff:
        return Certificate(q, n, "PFF", "polynomial-witness", witness=w)

    if q**n <= cfg.search_budget:
        found = pff.search_pff(q, n, "first", budget=cfg.search_budget)
        if found:
            return Certificate(q, n, "PFF", "direct-search", witness=found[0])
        return Certificate(q, n, "NOT_PFF", "direct-search",
                           notes=("exhaustive search over all primitive elements found none",))

    return Certificate(q, n, "UNDECIDED", None,
                       notes=("all bounds failed and the pair exceeds the search budget",))

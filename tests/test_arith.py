import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pffcert import arith
from pffcert.arith import Factorization, c_bound, check_primorial_bound, factor
from pffcert.errors import FactorTimeout, InvalidArgument, NotPrime


def test_factor_known_values():
    assert factor(2**21 - 1).factors == ((7, 2), (127, 1), (337, 1))
    assert factor(1).factors == ()
    assert factor(2).factors == ((2, 1),)


def test_factor_13_12_roundtrip():
    n = 13**12 - 1
    f = factor(n)
    assert math.prod(p**e for p, e in f.factors) == n
    assert all(arith.is_prime(p) for p, _ in f.factors)


def test_factorization_invariant_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product is 6, not 12
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # primes not increasing
    with pytest.raises(NotPrime):
        Factorization(12, ((2, 1), (6, 1)))


def test_factorization_invariant_survives_optimize():
    # python -O strips assert statements; the checks must not be asserts
    code = (
        "from pffcert.arith import Factorization\n"
        "for args in ((12, ((2, 1), (3, 1))), (12, ((2, 1), (6, 1)))):\n"
        "    try:\n"
        "        Factorization(*args)\n"
        "    except ValueError: print('ValueError')\n"
        "    except Exception as exc: print(type(exc).__name__)\n"
    )
    src = str(Path(arith.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["ValueError", "NotPrime"], out.stderr


def test_is_prime_above_the_deterministic_bound():
    # psi_12 and psi_13 are strong pseudoprimes to all twelve bases 2..37:
    # from the bound on, passing every base proves nothing, so is_prime raises
    psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
    assert psi_12 == arith.DETERMINISTIC_PRIME_BOUND
    for n in (psi_12, psi_13, 2**89 - 1, 2**127 - 1, 4805345109492315767981401):
        with pytest.raises(InvalidArgument, match="psi_12"):
            arith.is_prime(n)
    # a base that proves compositeness is trusted at any size
    assert not arith.is_prime((2**61 - 1) * (2**89 - 1))
    assert not arith.is_prime((2**89 - 1) ** 2)


def test_omega_bound_uses_integer_powers():
    B = arith.TRIAL_BOUND
    assert arith.omega_bound(B - 1) == 0
    assert arith.omega_bound(B) == 1
    assert arith.omega_bound(B**2 - 1) == 1
    assert arith.omega_bound(B**3) == 3
    assert arith.omega_bound(B**40 - 1) == 39


ACCEPTANCE_GRID = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13) for n in range(3, 25)]


def test_factor_cyclotomic_pieces_on_acceptance_grid():
    with_cofactor = set()
    for q, n in ACCEPTANCE_GRID:
        exps: dict[int, int] = {}
        for d in arith.divisors(n):
            piece = arith.factor_cyclotomic(q, d)
            assert piece.found.value * piece.cofactor == piece.value == arith.cyclotomic_value(q, d)
            for p, e in piece.found.factors:
                assert d % p == 0 or (p - 1) % d == 0, (q, d, p)
                exps[p] = exps.get(p, 0) + e
            if piece.cofactor > 1:
                # rho, run here and not by factor_cyclotomic, splits what trial division left
                with_cofactor.add((q, n))
                c = factor(piece.cofactor)
                assert all(p >= arith.TRIAL_BOUND and (p - 1) % d == 0 for p in c.primes), (q, d)
                assert c.omega <= arith.omega_bound(piece.cofactor), (q, d)
                for p, e in c.factors:
                    exps[p] = exps.get(p, 0) + e
        assert tuple(sorted(exps.items())) == factor(q**n - 1).factors, (q, n)
    # each keeps a 65-67-bit product of two primes
    assert with_cofactor == {(9, 23), (11, 23), (13, 19)}


def test_factor_cyclotomic_keeps_a_resistant_cofactor():
    # Phi_35(7) has two primes above 10^6, whose product trial division leaves whole
    piece = arith.factor_cyclotomic(7, 35)
    c = piece.cofactor
    assert piece.found.value * c == piece.value == arith.cyclotomic_value(7, 35)
    assert math.gcd(c, piece.found.value) == 1
    full = factor(c)
    assert all(p >= arith.TRIAL_BOUND and (p - 1) % 35 == 0 for p in full.primes)
    assert c.bit_length() == 68 and 2 == full.omega <= arith.omega_bound(c) == 3
    with pytest.raises(ValueError):
        arith.PartialFactorization(piece.value, piece.found, c + 1)
    # a proven prime is never a cofactor: Phi_19(13) keeps 12865927 * 9468940004449
    piece, p = arith.factor_cyclotomic(13, 19), 9468940004449
    assert p > arith.TRIAL_BOUND**2 and piece.cofactor % p == 0
    with pytest.raises(ValueError, match="proven prime"):
        arith.PartialFactorization(piece.value, arith.factor(piece.value // p), p)


def test_factor_raises_when_rho_runs_out_of_effort(monkeypatch):
    # two primes above TRIAL_BOUND: trial division leaves their product whole
    n = 1000003 * 1000033
    factor.cache_clear()  # a cached factorization would not run rho
    monkeypatch.setattr(arith, "RHO_EFFORT", 1)
    try:
        with pytest.raises(FactorTimeout):
            factor(n)
    finally:
        monkeypatch.undo()
        factor.cache_clear()
    assert factor(n).primes == (1000003, 1000033)


def test_brent_rho_backtracks_when_a_batch_catches_every_prime():
    # on 15, the first batch of products is 0 mod 15 (g == n), so rho steps
    # back one iterate at a time from the batch start to split off 3
    code = arith._pollard_brent.__code__
    src, start = inspect.getsourcelines(arith._pollard_brent)
    backtrack = start + next(i for i, line in enumerate(src) if "ys = (ys * ys + c) % n" in line)
    lines = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        d = arith._pollard_brent(15, 10**4)
    finally:
        sys.settrace(previous)
    assert d in (3, 5)
    assert backtrack in lines


def test_multiplicative_functions():
    assert arith.radical(624) == 78
    assert arith.omega(624) == 3
    assert factor(624).W == 8
    assert factor(1).W == 1
    assert arith.phi(1) == 1
    assert arith.moebius(1) == 1
    assert arith.moebius(30) == -1
    assert arith.moebius(12) == 0
    assert arith.phi(624) == 192


def test_q_prime_set_for_9_16():
    # the reduced modulus of (9, 16) has W = 64
    val = (9**16 - 1) // ((9 - 1) * math.gcd(16, 8))
    f = factor(val)
    assert set(f.primes) == {2, 5, 17, 41, 193, 21523361}
    assert f.W == 64


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=120, deadline=None)
def test_radical_properties(n):
    r = arith.radical(n)
    assert n % r == 0
    assert arith.radical(r) == r
    assert factor(n).W == factor(r).W
    assert arith.omega(n) == arith.omega(r)


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=0, max_value=150))
@settings(max_examples=60, deadline=None)
def test_factor_prime_product_roundtrip(i, j):
    ps = arith.primes_first(151)
    p, q = ps[i], ps[j]
    f = factor(p * q)
    assert set(f.primes) == {p, q}
    assert f.value == p * q


def test_mult_order():
    assert arith.mult_order(2, 7) == 3
    assert arith.mult_order(3, 7) == 6
    assert arith.mult_order(4, 45) == 6
    with pytest.raises(ValueError):
        arith.mult_order(6, 9)


def test_c_bound_examples():
    assert float(c_bound(1)) == 1.0
    # odd m: c_m < 2.9; in general c_m < 4.9 (exact comparisons)
    worst_odd = c_bound(3 * 5 * 7 * 11 * 13)
    worst_any = c_bound(2 * 3 * 5 * 7 * 11 * 13)
    assert worst_odd.less_than(Fraction(29, 10))
    assert worst_any.less_than(Fraction(49, 10))
    assert not worst_any.less_than(Fraction(48, 10))


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_w_bound_holds(m):
    assert c_bound(m).bound_holds(m)


def test_primorial_bounds():
    # the three numeric growth lemmas, plus the stated boundary fact
    assert check_primorial_bound(49, 1, 6)
    assert arith.primes_first(50)[49] == 229 > 2**6
    assert check_primorial_bound(52, 4, 25, exclude=3)
    assert check_primorial_bound(175, 3, 25, exclude=2)
    assert not check_primorial_bound(1, 1, 6)
    with pytest.raises(ValueError):
        check_primorial_bound(10, 7, 6)

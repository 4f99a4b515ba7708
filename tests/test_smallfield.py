"""The table engine must agree with plain tower arithmetic everywhere."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pffcert
from pffcert import arith, fpoly, pff
from pffcert.errors import BudgetExceeded, InconsistentTables, NotADivisor
from pffcert.fpoly import FPoly
from pffcert.gf import tower_for
from pffcert.smallfield import ENGINE_LIMIT, engine_for

FIELDS = [(2, 6), (3, 4), (4, 3), (5, 3), (9, 2), (8, 2), (2, 9)]


@pytest.mark.parametrize("q,n", FIELDS)
def test_log_tables(q, n):
    eng = engine_for(q, n)
    rng = random.Random(q * 100 + n)
    assert int(eng.exp[0]) == eng.index_of(eng.tower.one_element())
    for _ in range(30):
        i = rng.randrange(1, eng.size)
        j = rng.randrange(1, eng.size)
        a, b = eng.element_of(i), eng.element_of(j)
        prod_idx = eng.exp[(eng.log[i] + eng.log[j]) % eng.N]
        assert int(prod_idx) == eng.index_of(a * b)
        assert eng.element_of(int(eng.inv_idx[i])) == a.inverse()


@pytest.mark.parametrize("q,n", FIELDS)
def test_trace_table(q, n):
    eng = engine_for(q, n)
    t = eng.tower
    trace = (FPoly(t.F, (1,) * n),)  # Tr_(E/F) = (1 + X + ... + X^(n-1))^sigma
    for idx in range(eng.size):
        (y,) = t.sigma_apply(trace, eng.element_of(idx))
        assert int(eng.abs_trace[idx]) == t.F.trace_to_prime(y.as_base_field())


@pytest.mark.parametrize("q,n", FIELDS)
def test_freeness_masks(q, n):
    eng = engine_for(q, n)
    t = eng.tower
    profile = t.xn_profile()
    rng = random.Random(q + n)
    xn1 = FPoly.x_pow_n_minus_1(t.F, n)
    picks = [rng.randrange(1, eng.size) for _ in range(20)]
    for idx in picks:
        e = eng.element_of(idx)
        for P in profile.all_factors:
            assert bool(eng.add_fail_mask(P)[idx]) == (fpoly.least_failing_factor(e, P) is not None)
        assert bool(eng.add_fail_mask(xn1)[idx]) == (fpoly.least_failing_factor(e, xn1) is not None)
        for l in (eng.N_factors.primes or (1,)):
            if l > 1:
                assert bool(eng.mult_fail_mask(l)[idx]) == (pff._least_failing_prime(e, l) is not None)


def test_add_fail_mask_rejects_a_non_divisor():
    # x^2 + x + 1 does not divide x^4 - 1 over GF(2): no mask, as in brute_N
    eng = engine_for(2, 4)
    F = eng.tower.F
    for e in (FPoly(F, (1, 1, 1)), FPoly.zero(F)):
        with pytest.raises(NotADivisor):
            eng.add_fail_mask(e)
        with pytest.raises(NotADivisor):
            pff.brute_N(2, 4, 1, e, FPoly.one(F))
    # x + 1 and x^4 - 1 = (x + 1)^4 have the same radical, so the same mask
    x4m1 = FPoly.x_pow_n_minus_1(F, 4)
    assert (eng.add_fail_mask(FPoly(F, (1, 1))) == eng.add_fail_mask(x4m1)).all()


def test_budget_guard():
    # 2^17 is the first power of two past ENGINE_LIMIT
    assert 2**16 <= ENGINE_LIMIT < 2**17
    with pytest.raises(BudgetExceeded):
        engine_for(2, 17)


def test_prime_field_of_two_elements():
    # N = q^n - 1 = 1: the only nonzero element is 1, primitive and free
    eng = engine_for(2, 1)
    assert eng.generator == eng.tower.one_element()
    assert list(eng.exp) == [1] and list(eng.log) == [-1, 0]
    assert list(eng.abs_trace) == [0, 1]
    assert pff.count_pff_elements(2, 1) == 1
    assert [f.coeffs for f in pff.search_pff(2, 1, "all")] == [(1, 1)]


@pytest.mark.parametrize("q,n", FIELDS)
def test_generator_is_the_least_index_one(q, n):
    eng = engine_for(q, n)
    assert eng.generator == eng.tower.generator()
    gen_idx = eng.index_of(eng.generator)
    for idx in range(1, gen_idx):
        assert pff._least_failing_prime(eng.element_of(idx), eng.N) is not None
    assert pff._least_failing_prime(eng.generator, eng.N) is None


@pytest.mark.parametrize("q,n", FIELDS + [(9, 8), (11, 10), (13, 12)])
def test_generator_matches_the_definition(q, n):
    # the least index x > 0 with x^(N/l) != 1 for every prime l | N, on full
    # powers (generator() reads the norm for the primes of q - 1)
    t = tower_for(q, n)
    N = t.order - 1
    one = t.one_element()
    cofactors = [N // l for l in arith.factor(N).primes]
    expected = next(x for x in itertools.islice(t.elements(), 1, None)
                    if all(t.power(x, c) != one for c in cofactors))
    assert t.generator() == expected


def _reference_tables(q, n):
    """Every engine table from a walk over the elements on tower arithmetic."""
    t = tower_for(q, n)
    F, N = t.F, t.order - 1
    elems = list(t.elements())  # elems[k] has index k

    def index(x):
        return sum(c * q**i for i, c in enumerate(x.coeffs))

    exp, log = [], [-1] * t.order
    acc = t.one_element()
    for j in range(N):
        exp.append(index(acc))
        log[index(acc)] = j
        acc = acc * t.generator()
    xn1 = FPoly.x_pow_n_minus_1(F, n)
    cofactors = [xn1 // P for P in t.xn_profile().all_factors]
    zero = t.element([0])
    abs_trace, add_fail = [], []
    for x in elems:
        # x, x^q, ..., x^(q^(n-1)) by square-and-multiply, which shares no
        # code with the tower's Frobenius matrix
        conjs = [x]
        while len(conjs) < n:
            conjs.append(conjs[-1] ** q)
        abs_trace.append(F.trace_to_prime(sum(conjs, zero).as_base_field()))
        # h^sigma(x) = sum h_i x^(q^i)
        killed = [sum((c * t.element([h_i]) for h_i, c in zip(h.coeffs, conjs)), zero).is_zero() for h in cofactors]
        add_fail.append(sum(k << j for j, k in enumerate(killed)))
    return {
        "exp": exp,
        "log": log,
        "digits": [[d for c in x.coeffs for d in F.prime_digits(c)] for x in elems],
        "abs_trace": abs_trace,
        "inv_idx": [0] + [index(x.inverse()) for x in elems[1:]],
        "add_fail": add_fail,
    }


@pytest.mark.parametrize("q,n", FIELDS + [(3, 8), (2, 12), (16, 3), (17, 2), (2, 1)])
def test_tables_match_the_element_walk(q, n):
    eng = engine_for(q, n)
    for name, expected in _reference_tables(q, n).items():
        assert getattr(eng, name).tolist() == expected, name


def _reference_min_polys(eng, mask):
    polys = {}
    for idx in np.nonzero(mask)[0]:
        if idx:
            f = fpoly.min_poly(eng.element_of(int(idx)))
            polys[f.coeffs] = f
    return sorted(polys.values(), key=FPoly.sort_key)


@pytest.mark.parametrize("q,n", FIELDS + [(17, 2), (2, 1)])
def test_min_polys_match_the_element_walk(q, n):
    eng = engine_for(q, n)
    nonzero = np.ones(eng.size, dtype=bool)
    nonzero[0] = False  # holds the subfield elements, whose orbits are shorter than n
    for mask in (eng.pff_mask(), eng.primitive_mask(), nonzero, np.zeros(eng.size, dtype=bool)):
        assert eng.min_polys(mask) == _reference_min_polys(eng, mask)


@pytest.mark.parametrize("q,n", [(3, 3), (4, 2), (2, 5)])
def test_index_arithmetic_matches_the_tower(q, n):
    # every pair, zero included: min_polys multiplies and adds on indices
    eng = engine_for(q, n)
    x, y = np.divmod(np.arange(eng.size**2), eng.size)
    prod, total = eng._mul_idx(x, y), eng._add_idx(x, y)
    for i, j, pij, sij in zip(x.tolist(), y.tolist(), prod.tolist(), total.tolist()):
        a, b = eng.element_of(i), eng.element_of(j)
        assert (pij, sij) == (eng.index_of(a * b), eng.index_of(a + b))


def test_prime_field_past_the_int16_digit_range():
    # GF(32771) as a degree-1 tower: every nonzero element is free, so the PFF
    # elements are the primitive ones
    eng = engine_for(32771, 1)
    assert eng.digits[:, 0].tolist() == list(range(32771))
    assert pff.count_pff_elements(32771, 1) == arith.phi(32770)


_NON_GENERATOR = """
from pffcert.fpoly import FPoly
from pffcert.gf import FieldTower, field_for_order
from pffcert.smallfield import SmallFieldEngine


class XAsGenerator(FieldTower):
    def generator(self):
        return self.gen_x()


F = field_for_order(2)
# x has order 5 in GF(2)[x]/(x^4 + x^3 + x^2 + x + 1), whose group has order 15
SmallFieldEngine(XAsGenerator(F, 4, FPoly(F, (1, 1, 1, 1, 1))))
"""


def test_a_non_generator_is_rejected():
    with pytest.raises(InconsistentTables):
        exec(_NON_GENERATOR, {})


def test_a_non_generator_is_rejected_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(pffcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", "print(__debug__)" + _NON_GENERATOR],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.split() == ["False"]
    assert proc.returncode == 1 and "InconsistentTables" in proc.stderr

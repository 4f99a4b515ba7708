"""The table engine must agree with plain tower arithmetic everywhere."""

import itertools
import random

import pytest

from pffcert import arith, pff
from pffcert.errors import BudgetExceeded
from pffcert.fpoly import FPoly, is_e_free
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
    for idx in range(eng.size):
        assert int(eng.abs_trace[idx]) == eng.element_of(idx).abs_trace()


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
            assert bool(eng.add_fail_mask(P)[idx]) == (not is_e_free(e, P))
        assert bool(eng.add_fail_mask(xn1)[idx]) == (not is_e_free(e, xn1))
        for l in (eng.N_factors.primes or (1,)):
            if l > 1:
                assert bool(eng.mult_fail_mask(l)[idx]) == (not pff.is_m_free(e, l))


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
        assert not pff.is_primitive(eng.element_of(idx))
    assert pff.is_primitive(eng.generator)


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

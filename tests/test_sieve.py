import json
import math
import random
import time
from fractions import Fraction

import pytest

from pffcert import arith, fpoly, pff
from pffcert.errors import DenominatorNonPositive, FactorTimeout, InvalidArgument, NonPositiveDelta, NotPrime
from pffcert.fpoly import FPoly
from pffcert.gf import field_for_order
from pffcert.sieve import (
    CertifyConfig,
    Partition,
    SieveAtom,
    SieveDecomposition,
    bound_candidates,
    certify,
    choose_partition,
    compute_Q,
    eval_R,
    eval_decomposition,
    key_ineq,
    lemma_prime_n,
)


def test_compute_Q_examples():
    qd = compute_Q(17, 16)
    assert set(qd.primes) == {3, 5, 29, 18913, 41761, 184417}
    qd = compute_Q(4, 12)
    assert set(qd.primes) == {5, 7, 13, 17, 241}
    qd = compute_Q(5, 4)
    assert qd.Q == 39 and set(qd.primes) == {3, 13}
    # the companion reduction quantities
    assert qd.Q_star * qd.R == 5**4 - 1
    assert math.gcd(qd.R, qd.Q) == 1


def test_reduction_target():
    # the reduction target e = x^k - 1 is known by its degree k
    assert fpoly.reduction_degree(5, 4) == 4
    assert fpoly.reduction_degree(3, 4) == 2
    assert fpoly.reduction_degree(5, 3) == 1
    assert fpoly.reduction_degree(2, 12) == 3  # char 2: n* = 3


def test_lemma_prime_n():
    assert lemma_prime_n(7, 5)  # 7 = 2 mod 5
    assert lemma_prime_n(3, 7)  # order of 3 mod 7 is 6
    assert not lemma_prime_n(11, 5)  # 11 = 1 mod 5
    assert not lemma_prime_n(5, 5)  # char divides n
    assert not lemma_prime_n(4, 5)  # 4 has order 2 mod 5
    assert not lemma_prime_n(2, 9)  # not prime
    # the advertised congruence classes: n = 5 wants q = 2, 3 (mod 5),
    # n = 7 wants 3, 5 (mod 7), n = 11 wants 2, 6, 7, 8 (mod 11)
    assert lemma_prime_n(7, 5) and lemma_prime_n(13, 5)
    assert not lemma_prime_n(11, 5) and not lemma_prime_n(19, 5)
    assert lemma_prime_n(5, 7) and not lemma_prime_n(2, 7)
    assert lemma_prime_n(2, 11) and lemma_prime_n(7, 11) and lemma_prime_n(13, 11)
    assert not lemma_prime_n(3, 11)


def _seventeen_sixteen_decomposition():
    F = field_for_order(17)
    factors = sorted(fpoly.factor_squarefree(FPoly.x_pow_n_minus_1(F, 16)), key=FPoly.sort_key)
    core = tuple(factors[:10])
    atoms = [SieveAtom.prime(l) for l in (29, 18913, 41761, 184417)]
    for side in ("x", "y"):
        for f in factors[10:]:
            atoms.append(SieveAtom.poly(f, side, 17))
    return SieveDecomposition(15, core, core, tuple(atoms))


def test_eval_decomposition_17_16():
    d = _seventeen_sixteen_decomposition()
    assert d.r == 16
    res = eval_decomposition(17, 16, d)
    assert res.passes
    assert res.delta > Fraction(2595, 10000)
    assert abs(float(res.Delta) - 59.7917) < 1e-3
    assert res.W_core == 2**22
    criterion = float(res.rhs) ** (2 / 16)
    assert 12.23 < criterion < 12.24 < 17


def test_trivial_decomposition_Delta_is_2():
    d = SieveDecomposition(1, (), (), (SieveAtom.prime(7),))
    assert d.Delta == 2
    res = eval_decomposition(3, 4, d)
    assert res.rhs == pytest.approx(4.0)  # 2 * W(1) * 2


def test_non_positive_delta():
    d = SieveDecomposition(1, (), (), (SieveAtom.prime(2), SieveAtom.prime(3), SieveAtom.prime(5)))
    with pytest.raises(NonPositiveDelta):
        eval_decomposition(5, 4, d)


def test_key_ineq_5_9():
    profile = fpoly.degree_profile(5, 9)
    res = key_ineq(5, 9, profile, Partition((19, 31, 829), ()), refined=True)
    assert res.passes
    assert math.ceil(res.R * 100) / 100 == 4.49
    exact = key_ineq(5, 9, profile, Partition((19, 31, 829), ()), refined=False)
    assert exact.passes and exact.R <= res.R


def test_key_ineq_4_15_fails():
    profile = fpoly.degree_profile(4, 15)
    part = Partition(tuple(compute_Q(4, 15).primes), ())
    res = key_ineq(4, 15, profile, part, refined=True)
    assert not res.passes


def test_key_ineq_rejects_partitions_missing_primes():
    profile = fpoly.degree_profile(5, 9)
    with pytest.raises(ValueError):
        key_ineq(5, 9, profile, Partition((19, 31), ()), refined=True)


def test_key_ineq_denominator_guard():
    # s = 1 with q = 2 makes the additive denominator vanish
    profile = fpoly.degree_profile(2, 16)
    part = Partition(tuple(compute_Q(2, 16).primes), ())
    with pytest.raises(DenominatorNonPositive):
        key_ineq(2, 16, profile, part, refined=False)


def test_eval_R_table_rows():
    assert eval_R(3, 52, 6, Fraction(11, 52), 6).R == pytest.approx(2.403790, abs=1e-5)
    assert eval_R(2, 45, 12, Fraction(2, 15), 6).R == pytest.approx(1.96389, abs=1e-4)
    assert eval_R(4, 36, 3, Fraction(1, 12), 12, n_star=9).R == pytest.approx(2.2779, abs=1e-4)
    # basic (unrefined) uses (1 - rho) n and is never smaller
    basic = eval_R(4, 36, 3, Fraction(1, 12), 12, refined=False, n_star=9)
    assert basic.R >= 2.2779


def test_eval_R_rejects_a_fractional_exponent():
    # 2 rho n = 20/7: no float-derived R is ever returned
    with pytest.raises(ValueError):
        eval_R(3, 10, 2, Fraction(1, 7), 4)


def test_eval_R_pass_verdict_matches_key_ineq():
    for q, n in [(5, 9), (3, 13), (2, 45), (4, 35)]:
        profile = fpoly.degree_profile(q, n)
        u = compute_Q(q, n).radical.omega
        part = Partition(tuple(compute_Q(q, n).primes), ())
        a = key_ineq(q, n, profile, part, refined=True)
        b = eval_R(q, n, profile.s, profile.rho, u, 0, Fraction(1), True, profile.n_star)
        assert a.passes == b.passes
        assert a.R == pytest.approx(b.R, rel=1e-12)


def test_choose_partition():
    part = choose_partition(9, 16)
    assert part.core == (2, 5) and part.sieving == (17, 41, 193, 21523361)
    part = choose_partition(5, 16)
    assert part.core == (2, 3)
    assert abs(float(part.delta) - 0.8610) < 1e-3
    part = choose_partition(13, 8, "sieve-4")
    assert part.core == (2,) and len(part.sieving) == 4
    res = key_ineq(13, 8, fpoly.degree_profile(13, 8), part, refined=True)
    assert res.passes and res.R < 11


def test_certify_examples():
    assert certify(2, 2).status == "PFF"
    assert certify(2, 3).status == "NOT_PFF"
    c59 = certify(5, 9)
    assert c59.status == "PFF" and c59.method == "keyineq-additive"
    # the exact key inequality; the refined 4.4809 is pinned in test_key_ineq_5_9
    assert abs(c59.numerics["R"] - 4.37719) < 1e-5
    c74 = certify(7, 4)
    assert c74.method == "polynomial-witness"
    assert str(c74.witness) == "x^4 + x^3 - x^2 - x - 2"
    c221 = certify(2, 21)
    assert c221.method == "custom-decomposition"
    assert abs(float(c221.numerics["delta"]) - 0.2838) < 1e-3


def test_certify_prime_n_flag():
    c = certify(7, 5)
    assert c.method == "lemma-prime-n" and c.external_axiom


def test_certificate_json_roundtrip():
    c = certify(5, 9)
    blob = json.dumps(c.to_json_dict(), sort_keys=True)
    assert json.loads(blob)["status"] == "PFF"
    # the two copies of the degree-6 factor of x^9 - 1 sieve, 5^6 = 15625 each
    assert json.loads(blob)["numerics"]["delta"]["rational"] == "15623/15625"


def _random_decomposition(rng, q, n, qdata, factors):
    m_primes = [p for p in qdata.primes if rng.random() < 0.8]
    f_parts = [f for f in factors if rng.random() < 0.8]
    g_parts = [f for f in factors if rng.random() < 0.8]
    core_m = [p for p in m_primes if rng.random() < 0.5]
    core_f = [f for f in f_parts if rng.random() < 0.5]
    core_g = [f for f in g_parts if rng.random() < 0.5]
    atoms = [SieveAtom.prime(p) for p in m_primes if p not in core_m]
    atoms += [SieveAtom.poly(f, "x", q) for f in f_parts if f not in core_f]
    atoms += [SieveAtom.poly(f, "y", q) for f in g_parts if f not in core_g]
    if not atoms:
        return None
    return (m_primes, f_parts, g_parts, core_m, core_f, core_g, atoms)


def _poly_prod(F, parts):
    out = FPoly.one(F)
    for f in parts:
        out = out * f
    return out


def sieve_inequality_holds(q, n, rng, rounds=50):
    F = field_for_order(q)
    qdata = compute_Q(q, n)
    factors = list(fpoly.factor_xn_minus_1(F, n).all_factors)
    checked = 0
    while checked < rounds:
        pick = _random_decomposition(rng, q, n, qdata, factors)
        if pick is None:
            continue
        m_primes, f_parts, g_parts, core_m, core_f, core_g, atoms = pick
        m = math.prod(m_primes) if m_primes else 1
        f = _poly_prod(F, f_parts)
        g = _poly_prod(F, g_parts)
        m0 = math.prod(core_m) if core_m else 1
        f0 = _poly_prod(F, core_f)
        g0 = _poly_prod(F, core_g)
        total = pff.brute_N(q, n, m, f, g)
        core_count = pff.brute_N(q, n, m0, f0, g0)
        rhs = -(len(atoms) - 1) * core_count
        for a in atoms:
            mi, fi, gi = m0, f0, g0
            if a.kind == "prime":
                mi = m0 * a.value
            elif a.kind == "poly-x":
                fi = f0 * a.value
            else:
                gi = g0 * a.value
            rhs += pff.brute_N(q, n, mi, fi, gi)
        assert total >= rhs, (q, n, m, str(f), str(g))
        checked += 1
    return checked


def test_sieve_inequality_randomized_small():
    rng = random.Random(20_24)
    for q, n in [(2, 6), (3, 4), (5, 2), (4, 3)]:
        assert sieve_inequality_holds(q, n, rng, rounds=25) == 25


def test_lower_bound_soundness_spot():
    # brute_N >= theta(m) Theta(g) Theta(h) q^(n/2) (q^(n/2) - 2 W(m)W(g)W(h))
    from pffcert.charsum import _Theta, _theta
    from pffcert.smallfield import engine_for

    rng = random.Random(5)
    for q, n in [(2, 8), (2, 10), (3, 4), (3, 6), (4, 3), (4, 5), (5, 3), (7, 3), (9, 3), (13, 2)]:
        eng = engine_for(q, n)
        F = eng.tower.F
        factors = list(eng.tower.xn_profile().all_factors)
        N = q**n - 1
        for _ in range(20):
            m = math.prod([p for p in arith.factor(N).primes if rng.random() < 0.6] or [1])
            g = _poly_prod(F, [f for f in factors if rng.random() < 0.6])
            h = _poly_prod(F, [f for f in factors if rng.random() < 0.6])
            count = pff.brute_N(q, n, m, g, h)
            scale = _theta(m) * _Theta(eng, g) * _Theta(eng, h)
            Wm = arith.W(m)
            Wg = 2 ** sum(1 for f in factors if (g % f).is_zero())
            Wh = 2 ** sum(1 for f in factors if (h % f).is_zero())
            # count >= scale * (q^n - 2 W q^(n/2)): exact comparison via squaring
            slack = Fraction(count) - scale * q**n
            rhs = -scale * 2 * Wm * Wg * Wh  # times q^(n/2)
            # slack >= rhs * sqrt(q^n)
            if slack >= 0 >= rhs:
                continue
            assert slack < 0 and rhs < 0
            assert slack * slack <= rhs * rhs * q**n, (q, n, m, str(g), str(h))


def test_tau_monotone_on_grid():
    # the increasing-in-rho surrogate justifying the relaxed forms
    def tau(rho, n, q, s):
        X = (1 - rho) * n
        num = 2 * X / s - 1
        den = 1 - 2 * X / (s * q**s)
        return 2.0 ** (2 * rho * n) * num / den

    rng = random.Random(77)
    sampled = 0
    while sampled < 200:
        q = rng.choice([3, 4, 5, 7, 8, 9, 11, 13, 16])
        s = rng.randrange(2, 7)
        n = rng.randrange(8, 40)
        if not (s < n and n < q**s):
            continue
        if s == 2 and not n < q**2 / 2:
            continue
        vals = [tau(Fraction(k, 24), n, q, s) for k in range(0, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), (q, s, n)
        sampled += 1


def test_certify_agrees_with_search_small():
    cfg = CertifyConfig()
    for q, n in [(2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4),
                 (7, 3), (8, 3), (9, 3), (11, 3), (13, 3), (16, 3), (17, 3)]:
        cert = certify(q, n, cfg)
        found = pff.search_pff(q, n, "all", budget=10**5)
        assert (cert.status == "PFF") == bool(found), (q, n)
        assert cert.status != "UNDECIDED"


def test_certify_searches_pairs_no_bound_settles():
    # 4^4 = 256 elements: no decomposition passes and no witness is listed
    cert = certify(4, 4)
    assert (cert.status, cert.method) == ("PFF", "direct-search")
    assert pff.verify_pff_polynomial(cert.witness).is_pff


def test_certify_falls_back_to_direct_search():
    # (2, 6) passes no bound; without the witness table it is searched
    cert = certify(2, 6, CertifyConfig(use_witness_table=False))
    assert (cert.status, cert.method) == ("PFF", "direct-search")
    assert pff.verify_pff_polynomial(cert.witness).is_pff
    cert = certify(2, 6, CertifyConfig(use_witness_table=False, search_budget=10))
    assert (cert.status, cert.method, cert.witness) == ("UNDECIDED", None, None)


BOUND_METHODS = {"nosieve-bound", "keyineq-additive", "keyineq-full", "custom-decomposition"}


def test_bound_passes_imply_witness_exists():
    # soundness: wherever a criterion certifies a pair within search range,
    # an explicit PFF element really is there
    confirmed = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17):
        if arith.factor(q).omega != 1:
            continue
        for n in range(3, 18):
            if q**n > 10**5:
                break
            cert = certify(q, n)
            if cert.method in BOUND_METHODS:
                assert pff.search_pff(q, n, "first", budget=10**5), (q, n, cert.method)
                confirmed += 1
    assert confirmed >= 10


def test_r_values_against_high_precision():
    # the double-precision R reports agree with 50-digit evaluation of the
    # same exact rational bound side
    import mpmath

    from pffcert import goldens
    from pffcert.verify import recompute_r_row

    mpmath.mp.dps = 50
    for row in goldens.ALL_R_ROWS:
        profile, u, delta, res = recompute_r_row(row)
        braced = res.braced
        hp = mpmath.power(mpmath.mpf(braced.numerator) / braced.denominator,
                          mpmath.mpf(2) / row.n)
        assert abs(res.R - float(hp)) < 1e-12 * float(hp)
        # the exact pass verdict matches the high-precision comparison
        assert res.passes == (row.q > hp)


def test_recompute_r_row_rejects_sieving_primes_outside_Q():
    import dataclasses

    from pffcert import goldens
    from pffcert.verify import recompute_r_row

    row = next(r for r in goldens.ALL_R_ROWS if r.t)
    bad = dataclasses.replace(row, sieving_primes=row.sieving_primes[:-1] + (7919,))
    with pytest.raises(ValueError):
        recompute_r_row(bad)


def test_r_table_bold_is_decided_exactly(monkeypatch):
    # a bound side just below q^(n/2): the float R rounds to q itself, so only
    # the exact comparison sees that the bound passes (not bold)
    import dataclasses

    from pffcert import goldens, verify
    from pffcert.sieve import _bound_from_braced

    row = goldens.Q4_ROWS[0]
    assert (row.q, row.n) == (4, 45)
    recompute = verify.recompute_r_row

    def just_below_q(r):
        profile, u, delta, _ = recompute(r)
        braced = Fraction(2**45) - Fraction(1, 2**20)  # braced^2 < 4^45
        return profile, u, delta, _bound_from_braced(4, 45, braced, {})

    res = just_below_q(row)[3]
    assert res.passes and abs(res.R - 4) < 1e-12 and res.R >= 4
    monkeypatch.setattr(verify, "recompute_r_row", just_below_q)
    assert verify.check_r_table_row(dataclasses.replace(row, R=4.0, bold=False)).ok
    assert not verify.check_r_table_row(dataclasses.replace(row, R=4.0, bold=True)).ok


def test_no_bound_passes_for_exceptional_pairs():
    # every criterion is a sufficient condition, so each must fail on the
    # five genuinely non-PFF pairs even with the exception list bypassed
    from pffcert.sieve import EXCEPTIONAL_PAIRS

    for q, n in sorted(EXCEPTIONAL_PAIRS):
        assert not lemma_prime_n(q, n)
        qd = compute_Q(q, n)
        profile = fpoly.degree_profile(q, n)
        methods, scored = set(), []
        for method, d in bound_candidates(q, n, qd, profile):
            methods.add(method)
            scored.append(d)
            if d.delta > 0:
                assert not eval_decomposition(q, n, d).passes, (q, n, method)
        assert {"keyineq-additive", "custom-decomposition"} <= methods
        # the unsieved bound is scored too: as keyineq-additive where every factor has degree < s
        assert any(not d.atoms and len(d.core_f0) == len(profile.factors) for d in scored)
        # key_ineq in both forms, over every prime partition, fails as well
        for t in range(len(qd.primes) + 1):
            part = Partition(qd.primes[: len(qd.primes) - t], qd.primes[len(qd.primes) - t :])
            for refined in (True, False):
                try:
                    assert not key_ineq(q, n, profile, part, refined=refined).passes
                except DenominatorNonPositive:
                    pass


def test_bound_certificates_carry_the_exact_key_inequality():
    # the certificate's rhs = 2 W(core) Delta is key_ineq's exact braced value
    for q, n in [(5, 9), (7, 35), (7, 37), (13, 8)]:
        cert = certify(q, n)
        assert cert.method == ("keyineq-full" if (q, n) == (13, 8) else "keyineq-additive")
        qd = compute_Q(q, n)
        profile = fpoly.degree_profile(q, n)
        sieving = tuple(a.value for a in cert.numerics["atoms"] if a.kind == "prime")
        part = Partition(tuple(p for p in qd.primes if p not in sieving), sieving, qd.cofactor_omega)
        exact = key_ineq(q, n, profile, part, refined=False, qdata=qd)
        assert exact.passes
        assert cert.numerics["rhs"] == exact.braced
        assert cert.numerics["margin"] == Fraction(q) ** n / exact.braced**2
        assert cert.numerics["R"] == exact.R
        assert (cert.numerics["u"], cert.numerics["t"]) == (exact.numerics["u"], exact.numerics["t"])


def test_key_inequality_candidates_equal_key_ineq_on_the_acceptance_grid():
    # on x^(n*) - 1, the keyineq-* decompositions score exactly what
    # key_ineq(refined=False) does, and have delta <= 0 exactly where its
    # denominator is not positive
    compared = 0
    for q, n in ACCEPTANCE_GRID:
        if fpoly.reduction_degree(q, n) != fpoly.n_star_of(n, arith.prime_power(q)[0]):
            continue
        qd = compute_Q(q, n)
        profile = fpoly.degree_profile(q, n)
        for method, d in bound_candidates(q, n, qd, profile):
            if not method.startswith("keyineq"):
                continue
            part = Partition(tuple(p for p in qd.primes if SieveAtom.prime(p) not in d.atoms),
                             tuple(a.value for a in d.atoms if a.kind == "prime"), qd.cofactor_omega)
            try:
                exact = key_ineq(q, n, profile, part, refined=False, qdata=qd)
            except DenominatorNonPositive:
                assert d.delta <= 0
                continue
            res = eval_decomposition(q, n, d)
            assert (res.rhs, res.passes) == (exact.braced, exact.passes), (q, n, method)
            compared += 1
    assert compared > 500


ACCEPTANCE_GRID = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13) for n in range(3, 25)]


def _compute_Q_by_three_factorizations(q, n):
    N = q**n - 1
    quotient = arith.factor(N // ((q - 1) * math.gcd(n, q - 1)))
    rad = quotient.radical
    R = math.prod(p**e for p, e in arith.factor(N).factors if rad % p)
    return quotient, arith.factor(rad), N // R, R


def test_compute_Q_matches_whole_number_factoring():
    with_cofactor = set()
    for q, n in ACCEPTANCE_GRID:
        qd = compute_Q(q, n)
        quotient, rad, Q_star, R = _compute_Q_by_three_factorizations(q, n)
        assert (qd.Q_star, qd.R) == (Q_star, R), (q, n)
        if not qd.cofactors:
            assert (qd.quotient, qd.radical) == (quotient, rad), (q, n)
            continue
        with_cofactor.add((q, n))
        assert qd.found.value * qd.cofactor == quotient.value
        # rho, run here and not by compute_Q, splits what trial division left
        for c in qd.cofactors:
            d = next(d for d in arith.divisors(n) if c in arith.factor_cyclotomic(q, d).cofactors)
            primes = arith.factor(c).primes
            assert all(p >= arith.TRIAL_BOUND and (p - 1) % d == 0 for p in primes), (q, n)
            assert len(primes) <= arith.omega_bound(c), (q, n)
        exps = dict(qd.found.factors)
        for p, e in arith.factor(qd.cofactor).factors:
            exps[p] = exps.get(p, 0) + e
        assert tuple(sorted(exps.items())) == quotient.factors, (q, n)
    assert with_cofactor == {(9, 23), (11, 23), (13, 19)}


def test_pairs_share_cyclotomic_pieces():
    certify(13, 24)
    misses = arith.factor_cyclotomic.cache_info().misses
    certify(13, 12)
    assert arith.factor_cyclotomic.cache_info().misses == misses


def test_resistant_cofactor_is_bounded_not_fatal():
    # after trial division Phi_35(7) keeps a 68-bit cofactor
    t0 = time.perf_counter()
    cert = certify(7, 35)
    assert time.perf_counter() - t0 < 1.0
    qd = compute_Q(7, 35)
    assert qd.cofactor.bit_length() == 68 and qd.cofactor_omega == 3
    assert (cert.status, cert.method) == ("PFF", "keyineq-additive")
    assert cert.numerics["cofactor_bits"] == 68
    assert cert.numerics["trial_bound"] == arith.TRIAL_BOUND
    assert cert.numerics["cofactor_omega_bound"] == 3
    assert cert.numerics["u"] == len(qd.primes) + 3
    assert any("at most 3 primes" in note for note in cert.notes)
    # the bound covers the primes the cofactor really has, as rho finds them
    _, rad, Q_star, R = _compute_Q_by_three_factorizations(7, 35)
    assert set(qd.primes) < set(rad.primes)
    assert rad.omega <= qd.omega_bound
    assert (qd.Q_star, qd.R) == (Q_star, R)


def test_qdata_with_cofactor_is_exact_only_where_it_can_be():
    qd = compute_Q(7, 35)
    N = 7**35 - 1
    assert qd.found.value * qd.cofactor == N // (6 * math.gcd(35, 6))
    assert qd.Q_star * qd.R == N
    for attr in ("Q", "radical", "quotient"):
        with pytest.raises(FactorTimeout):
            getattr(qd, attr)
    # sieving atoms are proven primes; the unknown ones stay in the core
    for strat in ("default", "all-core", "sieve-2"):
        part = choose_partition(7, 35, strat, qd)
        assert set(part.sieving) <= set(qd.primes) and part.unknown == 3
    profile = fpoly.degree_profile(7, 35)
    with pytest.raises(ValueError):
        key_ineq(7, 35, profile, Partition(qd.primes, ()), qdata=qd)
    assert key_ineq(7, 35, profile, Partition(qd.primes, (), 3), qdata=qd).passes


def test_probable_primes_are_listed():
    # Phi_37(7) keeps the 82-bit prime 4805345109492315767981401, which no
    # deterministic test reaches: it counts through the omega bound instead
    cert = certify(7, 37)
    assert cert.method == "keyineq-additive"
    assert cert.numerics["cofactor_bits"] == 82
    assert cert.numerics["cofactor_omega_bound"] == 4
    assert cert.numerics["u"] == 6
    assert "probable_primes" not in cert.numerics
    assert compute_Q(7, 37).cofactors == (4805345109492315767981401,)


def test_certify_rejects_invalid_input():
    for n in (0, -3):
        with pytest.raises(InvalidArgument):
            certify(2, n)
    for q in (6, 1, 0):
        with pytest.raises(NotPrime):
            certify(q, 3)


def test_compute_Q_rejects_n_past_the_trial_bound():
    # a cofactor prime of at least TRIAL_BOUND could otherwise divide two pieces
    with pytest.raises(InvalidArgument):
        compute_Q(2, arith.TRIAL_BOUND)


def test_bound_candidates_yield_each_decomposition_once():
    qd, profile = compute_Q(2, 21), fpoly.degree_profile(2, 21)
    keys = [(len(d.core_f0), d.core_m0, d.atoms) for _, d in bound_candidates(2, 21, qd, profile)]
    assert len(keys) == len(set(keys))
    # k0 = K = 1 on x - 1: the unsieved bound is the additive one, labelled as such
    methods = [m for m, _ in bound_candidates(5, 3, compute_Q(5, 3), fpoly.degree_profile(5, 3))]
    assert "nosieve-bound" not in methods and methods[0] == "keyineq-additive"


def test_bound_atoms_are_labelled_cyclotomic_factors():
    cert = certify(5, 9)
    # x^9 - 1 over GF(5): Phi_1 and Phi_3 split into degree-1 and degree-2 factors, Phi_9 stays
    assert [str(a) for a in cert.numerics["atoms"]] == ["poly-x:Phi_9#1", "poly-y:Phi_9#1"]
    assert cert.numerics["core_degrees"] == [1, 2]


def test_bound_stages_factor_no_polynomial_and_build_no_field(monkeypatch):
    import functools

    from pffcert import gf

    def boom(*args, **kwargs):
        raise AssertionError("a bound stage factored a polynomial or built GF(q)")

    for name in ("_base_field_cached", "_cached_tower"):  # empty caches, restored afterwards
        monkeypatch.setattr(gf, name, functools.lru_cache(maxsize=None)(getattr(gf, name).__wrapped__))
    monkeypatch.setattr(gf.PolyExtField, "_build_tables", boom)
    monkeypatch.setattr(fpoly, "factor_squarefree", boom)
    monkeypatch.setattr(fpoly, "factor_xn_minus_1", boom)
    for q, n in [(125, 22), (121, 40), (128, 30), (81, 33), (64, 36)]:
        cert = certify(q, n)
        assert (cert.status, cert.method) == ("PFF", "keyineq-additive"), (q, n)


def test_certify_finds_the_exceptional_pairs_by_search_without_the_list(monkeypatch):
    from pffcert import sieve

    monkeypatch.setattr(sieve, "EXCEPTIONAL_PAIRS", frozenset())
    for q, n in [(2, 3), (2, 4), (3, 4), (4, 3), (5, 4)]:
        cert = certify(q, n)
        assert (cert.status, cert.method, cert.witness) == ("NOT_PFF", "direct-search", None), (q, n)

"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured runtime so the suite doubles
as the certification report.  Criterion 6 re-derives every published table
figure; rows whose published entries are internally inconsistent are pinned
to frozen recomputations and must *disagree* with the print in exactly the
declared fields (see pffcert.goldens for the classification).
"""

import random
import time

import numpy as np

from pffcert import arith, charsum as cs, pff, verify, witnesses
from pffcert.fpoly import FPoly
from pffcert.gf import field_for_order
from pffcert.sieve import EXCEPTIONAL_PAIRS, certify, compute_Q
from pffcert.smallfield import engine_for

from test_sieve import sieve_inequality_holds


def _report(num, title, detail, t0):
    print(f"\nACCEPTANCE {num} ({title}): PASS - {detail} [{time.time() - t0:.1f}s]")


# -- 1: exception reproduction ------------------------------------------------


def test_acceptance_1_exceptions():
    t0 = time.time()
    pairs = verify.small_field_pairs()
    assert (17, 3) in pairs and (16, 3) in pairs  # the range really reaches 5000
    zero_pairs = set()
    for q, n in pairs:
        if pff.count_pff_elements(q, n) == 0:
            zero_pairs.add((q, n))
    assert zero_pairs == EXCEPTIONAL_PAIRS
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "exceptional pairs", f"{len(pairs)} fields, exceptions exactly "
            f"{sorted(zero_pairs)}", t0)


# -- 2: polynomial tables -----------------------------------------------------


def test_acceptance_2_polynomial_tables():
    t0 = time.time()
    verified = []
    for (q, n) in witnesses.table_pairs():
        v = pff.verify_pff_polynomial(witnesses.lookup(q, n))
        assert v.is_pff, (q, n)
        verified.append((q, n))
    # the garbled degree-16 ternary entry: replaced by a successful search
    found = pff.search_pff(3, 16, "first", budget=10**8)
    assert found and pff.verify_pff_polynomial(found[0]).is_pff
    # the two binary entries whose printed forms factor: search replacements
    for (q, n) in ((2, 7), (2, 8)):
        repl = witnesses.lookup(q, n)
        assert repl.coeffs in {f.coeffs for f in pff.search_pff(q, n, "all")}
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(2, "polynomial tables",
            f"{len(verified)} table entries PFF, degree-16 ternary search hit "
            f"{found[0]}", t0)


# -- 3: counting cross-checks -------------------------------------------------


def test_acceptance_3_counts():
    t0 = time.time()
    cubics = verify.primitive_polynomials(4, 3)
    assert len(cubics) == 12
    quartics = verify.primitive_polynomials(5, 4)
    assert len(quartics) == 48
    both = [f for f in quartics if f[3] != 0 and f[1] != 0]
    assert len(both) == 32
    _report(3, "counting cross-checks", "12 cubics / 48 quartics / 32 with both "
            "middle coefficients nonzero", t0)


# -- 4: character-sum oracle --------------------------------------------------

CHAR_FIELDS_1024 = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3),
    (11, 2), (13, 2), (16, 2), (17, 2), (19, 2), (23, 2), (25, 2), (27, 2),
    (29, 2), (31, 2), (32, 2),
]

NFORMULA_FIELDS = verify.NFORMULA_SPOTS + [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2), (9, 2), (8, 2)]


def test_acceptance_4_charsum_oracle():
    t0 = time.time()
    combos = verify.nformula_suite(NFORMULA_FIELDS)
    assert len(combos) >= 60
    for q, n, m, g, h in combos:
        val = cs.N_formula(q, n, m, g, h)
        assert abs(val.im) < 1e-6
        assert round(val.re) == pff.brute_N(q, n, m, g, h), (q, n, m, str(g), str(h))

    checked_chars = 0
    rng = random.Random(4)
    for q, n in CHAR_FIELDS_1024:
        eng = engine_for(q, n)
        N, size = eng.N, float(q**n)
        logs_order = np.argsort(eng.log[1:])  # element index of gamma^j, j ascending
        chi_seq = cs._proot_powers(eng.p)[eng.abs_trace[1:][logs_order] % eng.p]
        # all Gauss sums at once: G(eta_k) = sum_j chi(gamma^j) e^(2 pi i k j / N)
        G = np.fft.ifft(chi_seq) * N
        assert abs(G[0] + 1) < 1e-6
        assert np.max(np.abs(np.abs(G[1:]) ** 2 - size)) < 1e-6 * size
        # all K(1, 1; eta) at once from the sequence chi(gamma^j + gamma^-j)
        inv_seq = eng.abs_trace[eng.inv_idx[1:]][logs_order]
        two_tr = (eng.abs_trace[1:][logs_order] + inv_seq) % eng.p
        K11 = np.fft.ifft(cs._proot_powers(eng.p)[two_tr]) * N
        assert np.max(np.abs(K11)) <= 2 * size**0.5 + 1e-6
        # K(alpha, 0; eta) = conj(eta)(alpha) G(eta), pointwise
        etas = cs.all_characters(eng) if size <= 128 else \
            [cs.MulChar(eng, rng.randrange(N)) for _ in range(24)]
        for eta in etas:
            Gv = cs.gauss(eta).value
            alphas = range(1, int(size)) if size <= 128 else \
                [rng.randrange(1, int(size)) for _ in range(8)]
            for a in alphas:
                lhs = cs.kloosterman(int(a), 0, eta).value
                rhs = eta.conj()(int(a)) * Gv
                assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))
            checked_chars += 1
    _report(4, "character-sum oracle",
            f"{len(combos)} N(m,g,h) comparisons, {len(CHAR_FIELDS_1024)} fields "
            f"of full Gauss/Kloosterman checks, {checked_chars} pointwise characters", t0)


# -- 5: sieve inequality ------------------------------------------------------

SIEVE_FIELDS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3),
    (11, 2), (13, 2),
]


def test_acceptance_5_sieve_inequality():
    t0 = time.time()
    rng = random.Random(0x5EED)
    total = 0
    for q, n in SIEVE_FIELDS:
        total += sieve_inequality_holds(q, n, rng, rounds=50)
    _report(5, "sieve inequality", f"{total} randomized decompositions, zero violations", t0)


# -- 6: table golden values ---------------------------------------------------


def test_acceptance_6_golden_tables():
    t0 = time.time()
    results = verify.check_rvalues()
    failures = [r for r in results if not r.ok]
    assert not failures, failures
    flagged = [r for r in results if "[" in r.detail]
    _report(6, "golden tables",
            f"{len(results)} table checks; {len(flagged)} rows carry documented "
            "discrepancy notes and match their frozen recomputations", t0)


# -- 7: certifier closure -----------------------------------------------------


def test_acceptance_7_certifier_closure():
    t0 = time.time()
    decided = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for n in range(3, 25):
            cert = certify(q, n)
            assert cert.status != "UNDECIDED", (q, n)
            assert (cert.status == "NOT_PFF") == ((q, n) in EXCEPTIONAL_PAIRS), (q, n)
            decided += 1
    elapsed = time.time() - t0
    assert elapsed < 900
    _report(7, "certifier closure", f"{decided} pairs decided, consistent with "
            "the five exceptional pairs", t0)


# -- 8: the Q-reduction identity ---------------------------------------------


def test_acceptance_8_q_reduction_identity():
    t0 = time.time()
    checked = 0
    for q in range(2, 50):
        if arith.factor(q).omega != 1:
            continue
        for n in range(2, 12):
            if q**n > 2500:
                break
            qd = compute_Q(q, n)
            if qd.R == 1:
                continue
            F = field_for_order(q)
            xn1 = FPoly.x_pow_n_minus_1(F, n)
            lhs = pff.brute_N(q, n, qd.Q, xn1, xn1) * arith.phi(qd.R)
            rhs = qd.R * pff.brute_N(q, n, q**n - 1, xn1, xn1)
            assert lhs == rhs, (q, n)
            checked += 1
    assert checked >= 20
    _report(8, "Q-reduction identity", f"{checked} fields with R > 1, all exact", t0)


# -- 9: W-bound lemmas ---------------------------------------------------------


def test_acceptance_9_w_bounds():
    t0 = time.time()
    limit = 10**6
    # omega(m) for every m <= 10^6 by sieving
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0]
    omega_arr = np.zeros(limit + 1, dtype=np.int64)
    for p in primes:
        omega_arr[p::p] += 1
    m = np.arange(limit + 1, dtype=np.int64)
    W4 = (np.int64(1) << (4 * omega_arr))
    prod = np.ones(limit + 1, dtype=np.int64)
    scount = np.zeros(limit + 1, dtype=np.int64)
    for p in (2, 3, 5, 7, 11, 13):
        mask = m % p == 0
        prod[mask] *= p
        scount[mask] += 1
    lhs = W4 * prod
    rhs = (np.int64(1) << (4 * scount)) * m
    ok = lhs[1:] <= rhs[1:]
    assert ok.all(), np.nonzero(~ok)[0][:5]
    # the primorial growth lemmas, exact integer comparisons
    assert arith.check_primorial_bound(49, 1, 6)
    assert arith.check_primorial_bound(52, 4, 25, exclude=3)
    assert arith.check_primorial_bound(175, 3, 25, exclude=2)
    _report(9, "W-bound lemmas", f"W(m) <= c_m m^(1/4) for all m <= 10^6; "
            "primorial bounds at omega = 49, 52, 175 hold exactly", t0)

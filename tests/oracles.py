"""Reference functions that only the tests use: the F-order of an element,
by its definition, against which `charsum.poly_phi`'s counts are checked,
and the reciprocal of a polynomial, under which the PFF lists are closed."""

from pffcert.fpoly import FPoly


def f_order(x) -> FPoly:
    """Minimal monic divisor g of x^n - 1 with g^sigma(x) = 0."""
    tower = x.tower
    profile = tower.xn_profile()
    pb = tower.n // profile.n_star
    exps = {f: pb for f in profile.all_factors}
    current = FPoly.x_pow_n_minus_1(tower.F, tower.n)
    for f in profile.all_factors:
        while exps[f] > 0:
            cand = current // f
            if not tower.sigma_apply((cand,), x)[0].is_zero():
                break
            current = cand
            exps[f] -= 1
    return current


def reciprocal(f: FPoly) -> FPoly:
    """Monic reciprocal x^deg * f(1/x) / f(0); needs f(0) != 0."""
    if not f.coeffs or f.coeffs[0] == 0:
        raise ValueError("reciprocal needs a nonzero constant term")
    return FPoly.make(f.field, tuple(reversed(f.coeffs))).monic()

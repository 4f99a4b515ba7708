"""Known PFF polynomials, used as certificate witnesses.

Coefficients are listed least significant first, in the int encoding of the
default base fields (see gf.field_for_order): residues for prime fields; packed
digits for GF(4) = GF(2)(u) with u^2+u+1 = 0, GF(8) = GF(2)(u) with
u^3+u+1 = 0 and GF(9) = GF(3)(u) with u^2-u-1 = 0, so e.g. u encodes as 2
over GF(4)/GF(8) and as 3 over GF(9).

Every entry is re-verified from scratch by the test suite; none is trusted.
"""

from __future__ import annotations

from .fpoly import FPoly
from .gf import field_for_order

# fmt: off
KNOWN_PFF_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (11, 4): (2, 6, 0, 1, 1),                                   # x^4+x^3-5x+2
    (7, 4): (5, 6, 6, 1, 1),                                    # x^4+x^3-x^2-x-2
    (13, 12): (2, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),         # x^12+x^11-3x+2
    (11, 10): (2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1),                # x^10+x^9-2x+2
    (9, 8): (6, 2, 4, 5, 8, 2, 2, 7, 1),                        # x^8-(u-1)x^7-x^6-x^5-(u+1)x^4+(u-1)x^3+(u+1)x^2-x-u
    (8, 7): (6, 2, 4, 7, 5, 3, 1, 1),                           # x^7+x^6+(u+1)x^5+(u^2+1)x^4+(u^2+u+1)x^3+u^2x^2+ux+u^2+u
    (7, 6): (3, 6, 1, 0, 0, 1, 1),                              # x^6+x^5+x^2-x+3
    (13, 4): (11, 12, 0, 1, 1),                                 # x^4+x^3-x-2
    (11, 5): (9, 3, 0, 0, 1, 1),                                # x^5+x^4+3x-2
    (9, 4): (7, 1, 1, 2, 1),                                    # x^4-x^3+x^2+x-u+1
    (7, 3): (4, 2, 1, 1),                                       # x^3+x^2+2x-3
    (7, 12): (5, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),           # x^12+x^11-3x-2
    (5, 8): (3, 4, 4, 0, 0, 0, 0, 1, 1),                        # x^8+x^7-x^2-x-2
    (5, 6): (3, 4, 1, 1, 0, 1, 1),                              # x^6+x^5+x^3+x^2-x-2
    (5, 12): (3, 3, 4, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1),           # x^12+x^11+x^3-x^2-2x-2
    (4, 15): (3, 2, 1, 0, 2, 2, 2, 1, 1, 1, 3, 0, 3, 0, 1, 1),
    (4, 9): (2, 3, 0, 2, 0, 2, 3, 2, 3, 1),
    # recorded with coefficient 1 on x, which makes the inverse non-free;
    # the u must have been dropped (one-symbol fix)
    (4, 6): (3, 2, 0, 3, 3, 2, 1),                              # x^6+ux^5+(u+1)x^4+(u+1)x^3+ux+u+1
    (4, 5): (3, 1, 0, 2, 2, 1),
    (3, 12): (2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1),           # x^12+x^11+x^3+x^2+x-1
    (3, 10): (2, 2, 0, 1, 0, 0, 0, 1, 0, 1, 1),                 # x^10+x^9+x^7+x^3-x-1
    (3, 8): (2, 1, 2, 2, 1, 0, 0, 1, 1),                        # x^8+x^7+x^4-x^3-x^2+x-1
    (3, 6): (2, 1, 1, 1, 0, 1, 1),                              # x^6+x^5+x^3+x^2+x-1
    (3, 5): (1, 2, 0, 0, 1, 1),                                 # x^5+x^4-x+1
    (3, 3): (1, 2, 1, 1),                                       # x^3+x^2-x+1
    (2, 15): (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),  # x^15+x^14+x^4+x+1
    # recorded with x^2 in place of x^5 (the printed form factors); one-digit fix
    (2, 14): (1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1),     # x^14+x^13+x^9+x^5+x^4+x+1
    (2, 12): (1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1),           # x^12+x^11+x^9+x^4+x^3+x+1
    (2, 10): (1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1),                 # x^10+x^9+x^4+x+1
    (2, 9): (1, 1, 0, 1, 1, 1, 0, 0, 1, 1),                     # x^9+x^8+x^5+x^4+x^3+x+1
    (2, 6): (1, 1, 1, 0, 0, 1, 1),                              # x^6+x^5+x^2+x+1
    (2, 5): (1, 1, 1, 0, 1, 1),                                 # x^5+x^4+x^2+x+1
}

# Entries recovered by search where the recorded polynomial is unusable:
# the degree-8 binary entry has an even number of terms (root at 1), the
# degree-7 one factors as (x^3+x^2+1)(x^4+x^3+x^2+x+1), and the degree-16
# ternary entry is garbled.  Each replacement is the first PFF polynomial
# of the right degree in deterministic search order.
SEARCHED_PFF_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 8): (1, 1, 1, 0, 0, 0, 0, 1, 1),                        # x^8+x^7+x^2+x+1
    (2, 7): (1, 1, 0, 1, 0, 0, 1, 1),                           # x^7+x^6+x^3+x+1
    (3, 16): (2, 2, 0, 2, 1, 2, 0, 0, 2, 1, 2, 0, 0, 1, 0, 1, 1),
}
# fmt: on


def lookup(q: int, n: int) -> FPoly | None:
    coeffs = KNOWN_PFF_POLYNOMIALS.get((q, n)) or SEARCHED_PFF_POLYNOMIALS.get((q, n))
    if coeffs is None:
        return None
    return FPoly.make(field_for_order(q), coeffs)


def table_pairs() -> list[tuple[int, int]]:
    return sorted(KNOWN_PFF_POLYNOMIALS)

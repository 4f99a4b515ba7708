"""Exhaustive-enumeration engine for small extensions.

Builds one-time discrete-log, trace and freeness tables for a tower with at
most ``ENGINE_LIMIT`` elements, so that counting, exhaustive search and
character-sum work can be vectorized with numpy.  This is the package's only
exhaustive path: `pff.search_pff` in "all"/"count" mode, `pff.count_pff_elements`,
`pff.brute_N` and the character sums all read these tables, and a larger
field raises `BudgetExceeded`.  Everything outside this module treats
elements as coefficient tuples; here they get dense integer indices.
"""

from __future__ import annotations

import functools

import numpy as np

from . import arith, fpoly
from .errors import BudgetExceeded
from .fpoly import FPoly
from .gf import Element, FieldTower, tower_for

ENGINE_LIMIT = 10**5


class SmallFieldEngine:
    """Lookup tables for one tower with q^n <= ENGINE_LIMIT.

    Index 0 is the zero element; `exp[j]` is the index of gamma^j for the
    least-index generator gamma (`FieldTower.generator`), and `log[idx]`
    inverts that map on E*.
    """

    def __init__(self, tower: FieldTower):
        if tower.order > ENGINE_LIMIT:
            raise BudgetExceeded(f"field of order {tower.order} exceeds the table budget")
        self.tower = tower
        self.size = tower.order
        self.N = tower.order - 1
        self.q = tower.q
        self.n = tower.n
        self.p = tower.p
        F = tower.F
        self.N_factors = arith.factor(self.N)

        self.generator = tower.generator()
        # discrete log tables
        self.exp = np.zeros(self.N, dtype=np.int64)
        self.log = np.full(self.size, -1, dtype=np.int64)
        acc = tower.one_element()
        for j in range(self.N):
            idx = self.index_of(acc)
            self.exp[j] = idx
            self.log[idx] = j
            acc = acc * self.generator
        assert self.index_of(acc) == self.exp[0]

        # prime-field digit matrix, shape (size, n*a)
        a = tower.a
        digs = np.zeros((self.size, tower.n * a), dtype=np.int16)
        qprime = tower.p
        for idx in range(self.size):
            coeffs = self._coeffs_of_index(idx)
            row = []
            for c in coeffs:
                row.extend(F.prime_digits(c))
            digs[idx] = row
        self.digits = digs
        self._pack_weights = np.array(
            [qprime ** (i % a) * self.q ** (i // a) for i in range(tower.n * a)],
            dtype=np.int64,
        )

        self.abs_trace = self._build_abs_trace()
        self.inv_idx = self._build_inverses()
        self.add_fail = self._build_add_fail()

    # -- indexing ----------------------------------------------------------

    def _coeffs_of_index(self, idx: int) -> tuple[int, ...]:
        q = self.q
        return tuple((idx // q**i) % q for i in range(self.n))

    def index_of(self, x: Element) -> int:
        q = self.q
        idx = 0
        for i, c in enumerate(x.coeffs):
            idx += c * q**i
        return idx

    def element_of(self, idx: int) -> Element:
        return self.tower.element(self._coeffs_of_index(idx))

    def _pack_digit_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self._pack_weights

    # -- construction helpers ------------------------------------------------

    def _build_abs_trace(self) -> np.ndarray:
        # absolute trace to GF(p): sum of w^(p^j) over the full prime degree
        deg = self.n * self.tower.a
        logs = self.log[1:].copy()
        total = np.zeros(self.size, dtype=np.int64)
        digsum = np.zeros((self.size - 1, self.digits.shape[1]), dtype=np.int64)
        for j in range(deg):
            idxs = self.exp[(logs * pow(self.p, j, self.N)) % self.N]
            digsum += self.digits[idxs]
        digsum %= self.p
        # the trace lies in GF(p): the constant prime digit
        assert not digsum[:, 1:].any()
        total[1:] = digsum[:, 0]
        return total

    def _build_inverses(self) -> np.ndarray:
        inv = np.zeros(self.size, dtype=np.int64)
        inv[1:] = self.exp[(-self.log[1:]) % self.N]
        return inv

    def _sigma_eval_all(self, h: FPoly) -> np.ndarray:
        """Indices of h^sigma(w) for every w (0 at w = 0)."""
        F = self.tower.F
        acc = np.zeros((self.size - 1, self.digits.shape[1]), dtype=np.int64)
        logs = self.log[1:]
        for i, c in enumerate(h.coeffs):
            if c == 0:
                continue
            idxs = (logs * pow(self.q, i, self.N)) % self.N
            if c != 1:
                idxs = (idxs + int(self.log[self.index_of(self.tower.embed_base(c))])) % self.N
            acc += self.digits[self.exp[idxs]]
        acc %= self.p
        out = np.zeros(self.size, dtype=np.int64)
        out[1:] = self._pack_digit_rows(acc)
        return out

    def _build_add_fail(self) -> np.ndarray:
        """Bit j set for w iff ((x^n - 1)/P_j)^sigma kills w (P_j-freeness fails)."""
        profile = self.tower.xn_profile()
        xn1 = FPoly.x_pow_n_minus_1(self.tower.F, self.n)
        bits = np.zeros(self.size, dtype=np.int64)
        for j, P in enumerate(profile.all_factors):
            vals = self._sigma_eval_all(xn1 // P)
            bits |= (vals == 0).astype(np.int64) << j
        bits[0] = (1 << len(profile.all_factors)) - 1
        return bits

    # -- masks ----------------------------------------------------------------

    def mult_fail_mask(self, m: int) -> np.ndarray:
        """True where w is NOT m-free (some prime of m divides the index)."""
        out = np.zeros(self.size, dtype=bool)
        out[0] = True
        for l in arith.factor(m).primes:
            out[1:] |= self.log[1:] % l == 0
        return out

    def add_fail_mask(self, e: FPoly) -> np.ndarray:
        """True where w is NOT e-free, for monic e dividing x^n - 1."""
        profile = self.tower.xn_profile()
        sel = 0
        for j, P in enumerate(profile.all_factors):
            if P.divides(e):
                sel |= 1 << j
        return (self.add_fail & sel) != 0

    def free_mask(self) -> np.ndarray:
        """True where w is free over F (full x^n - 1 freeness)."""
        return self.add_fail == 0

    def primitive_mask(self) -> np.ndarray:
        return ~self.mult_fail_mask(self.N)

    def pff_mask(self) -> np.ndarray:
        """True where w is primitive and free with a free inverse."""
        free = self.free_mask()
        return free & free[self.inv_idx] & self.primitive_mask()

    # -- enumeration ----------------------------------------------------------

    def min_polys(self, mask: np.ndarray) -> list[FPoly]:
        """Distinct minimal polynomials of the masked nonzero elements, sorted.

        Two elements share a minimal polynomial iff they are conjugate, so one
        element per orbit of w -> w^q (log -> q log mod N) is enough; the
        orbit's least log picks it.
        """
        logs = self.log[np.nonzero(mask)[0]]
        least = logs
        for _ in range(1, self.n):
            logs = logs * self.q % self.N
            least = np.minimum(least, logs)
        roots = self.exp[np.unique(least)]
        return sorted((fpoly.min_poly(self.element_of(int(i))) for i in roots), key=FPoly.sort_key)


@functools.lru_cache(maxsize=64)
def engine_for(q: int, n: int) -> SmallFieldEngine:
    return SmallFieldEngine(tower_for(q, n))

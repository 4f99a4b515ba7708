"""Exhaustive-enumeration engine for small extensions.

Builds one-time discrete-log, trace and freeness tables for a tower with at
most ``ENGINE_LIMIT`` elements, so that counting, exhaustive search and
character-sum work can be vectorized with numpy.  This is the package's only
exhaustive path: `pff.search_pff` in "all"/"count" mode, `pff.count_pff_elements`,
`pff.brute_N` and the character sums all read these tables, and a larger
field raises `BudgetExceeded`.  Everything outside this module treats
elements as coefficient tuples; here they get dense integer indices.

An index is a base-p number whose digits are the element's coordinates over
GF(p), so the digit matrix of the whole field is the base-p digits of
``arange(q^n)``.  Every table is then built from GF(p)-linear maps applied to
that matrix, with no loop over elements: multiplication by a fixed beta, the
absolute trace and each freeness cofactor h^sigma are matrices over GF(p)
whose d = n a rows are the images of the d basis elements.  The product by
beta is tower arithmetic; the trace and the cofactors are one call of the
tower's sigma kernel (`FieldTower.sigma_images`) on the identity rows.  The
exp table comes from doubling: rows gamma^0..gamma^(L-1) times the matrix of
gamma^L give the next L rows, and squaring that matrix steps L to 2L, so
ceil(log2 N) doubling steps replace N tower products.
"""

from __future__ import annotations

import functools

import numpy as np

from . import arith
from .errors import BudgetExceeded, InconsistentTables
from .fpoly import FPoly
from .gf import Element, FieldTower, tower_for

ENGINE_LIMIT = 10**5


class SmallFieldEngine:
    """Lookup tables for one tower with q^n <= ENGINE_LIMIT.

    Index 0 is the zero element; `exp[j]` is the index of gamma^j for the
    least-index generator gamma (`FieldTower.generator`), and `log[idx]`
    inverts that map on E*.  `digits[idx]` holds the GF(p) coordinates of
    an element, least significant first.
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
        self.N_factors = arith.factor(self.N)

        # digit j of an index is the coordinate on the basis element of index p^j
        self._pack_weights = self.p ** np.arange(tower.n * tower.a, dtype=np.int64)
        self.digits = (np.arange(self.size)[:, None] // self._pack_weights % self.p).astype(np.int32)
        basis = [self.element_of(int(w)) for w in self._pack_weights]
        # the images of the basis (the identity rows) under every cofactor and
        # under the trace to F, 1 + X + ... + X^(n-1): d x (r + 1) x d digits
        trace = FPoly(tower.F, (1,) * self.n)
        images = tower.sigma_images(np.eye(len(basis), dtype=np.int64), tower.cofactors + (trace,))

        self.generator = tower.generator()
        self.exp, self.log = self._build_logs(basis)
        self.abs_trace = self._build_abs_trace(images[:, -1])
        self.inv_idx = self._build_inverses()
        self.add_fail = self._build_add_fail(images[:, :-1])

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

    def _matrix_of(self, images) -> np.ndarray:
        """The matrix over GF(p) whose row j is the digit row of images[j]."""
        return self.digits[[self.index_of(y) for y in images]].astype(np.int64)

    # -- construction helpers ------------------------------------------------

    def _build_logs(self, basis: list[Element]) -> tuple[np.ndarray, np.ndarray]:
        p, N = self.p, self.N
        step = self._matrix_of(self.generator * b for b in basis)  # w -> gamma^L w, L = 1
        rows = self.digits[1:2].astype(np.int64)  # gamma^0
        while len(rows) < N:
            rows = np.vstack((rows, rows @ step % p))
            step = step @ step % p
        exp = self._pack_digit_rows(rows[:N])
        log = np.full(self.size, -1, dtype=np.int64)
        log[exp] = np.arange(N)
        # N powers fill all N nonzero slots only if they are distinct and nonzero
        if (log[1:] < 0).any():
            raise InconsistentTables(f"{self.generator} does not generate the multiplicative group of {self.tower}")
        return exp, log

    def _build_abs_trace(self, traces: np.ndarray) -> np.ndarray:
        # the absolute trace to GF(p) is GF(p)-linear: one value per basis
        # element, Tr_(F/GF(p)) of its trace to F (the digit rows `traces`)
        tower = self.tower
        values = [tower.F.trace_to_prime(t.as_base_field()) for t in tower.elements_of_digits(traces)]
        return self.digits @ np.array(values, dtype=np.int64) % self.p

    def _build_inverses(self) -> np.ndarray:
        inv = np.zeros(self.size, dtype=np.int64)
        inv[1:] = self.exp[(-self.log[1:]) % self.N]
        return inv

    def _build_add_fail(self, images: np.ndarray) -> np.ndarray:
        """Bit j set for w iff ((x^n - 1)/P_j)^sigma kills w (P_j-freeness
        fails), from the basis images `images[:, j]`, one factor at a time."""
        bits = np.zeros(self.size, dtype=np.int64)
        for j in range(images.shape[1]):
            killed = ~(self.digits @ images[:, j] % self.p).any(axis=1)
            bits |= killed.astype(np.int64) << j
        return bits

    # -- index arithmetic ---------------------------------------------------------

    def _mul_idx(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        prod = self.exp[(self.log[x] + self.log[y]) % self.N]
        return np.where((x == 0) | (y == 0), 0, prod)

    def _add_idx(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._pack_digit_rows((self.digits[x] + self.digits[y]) % self.p)

    def _monic_from_roots(self, roots: np.ndarray) -> np.ndarray:
        """Coefficient indices of prod_i (X - roots[:, i]), one row per row of roots."""
        neg = self._pack_digit_rows(-self.digits[roots] % self.p)
        poly = np.ones((len(roots), 1), dtype=np.int64)
        for i in range(roots.shape[1]):
            shifted = np.pad(poly, ((0, 0), (1, 0)))
            scaled = np.pad(self._mul_idx(poly, neg[:, i:i + 1]), ((0, 0), (0, 1)))
            poly = self._add_idx(shifted, scaled)
        return poly

    # -- masks ----------------------------------------------------------------

    def mult_fail_mask(self, m: int) -> np.ndarray:
        """True where w is NOT m-free (some prime of m divides the index)."""
        out = np.zeros(self.size, dtype=bool)
        out[0] = True
        for l in arith.factor(m).primes:
            out[1:] |= self.log[1:] % l == 0
        return out

    def radical_mask(self, e: FPoly) -> int:
        """Bit j set iff the j-th irreducible factor of x^n - 1 divides e.

        Raises NotADivisor unless e divides x^n - 1 (`FieldTower.divisor_exponents`).
        """
        return sum(1 << j for j, k in enumerate(self.tower.divisor_exponents(e)) if k)

    def add_fail_mask(self, e: FPoly) -> np.ndarray:
        """True where w is NOT e-free, for e dividing x^n - 1."""
        return (self.add_fail & self.radical_mask(e)) != 0

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
        orbit's least log picks it.  An orbit of k elements gives
        prod (X - c) over its k conjugates, multiplied out for all orbits of
        one size at once on index arrays.
        """
        N, q, n = self.N, self.q, self.n
        logs = self.log[1:][np.asarray(mask)[1:]]
        q_pows = np.array([pow(q, i, N) for i in range(n + 1)], dtype=np.int64)
        # bincount rather than np.unique, which imports numpy.ma on its first call
        least = np.flatnonzero(np.bincount((logs[:, None] * q_pows[:n] % N).min(axis=1)))
        conj = least[:, None] * q_pows % N
        # the orbit size: the first i >= 1 with c^(q^i) = c (at the latest i = n)
        sizes = (conj[:, 1:] == conj[:, :1]).argmax(axis=1) + 1
        F = self.tower.F
        polys = []
        for k in set(sizes.tolist()):
            coeffs = self._monic_from_roots(self.exp[conj[sizes == k, :k]])
            if (coeffs >= q).any():
                raise InconsistentTables(f"a minimal polynomial over {self.tower} has a coefficient outside GF({q})")
            polys += [FPoly.make(F, row) for row in coeffs.tolist()]
        return sorted(polys, key=FPoly.sort_key)


@functools.lru_cache(maxsize=64)
def engine_for(q: int, n: int) -> SmallFieldEngine:
    return SmallFieldEngine(tower_for(q, n))

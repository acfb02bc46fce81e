"""Exact rational dense linear algebra.

The decision-critical computations in this package are ranks and pivot
profiles of integer condition matrices.  Everything here is exact: the
workhorse is a fraction-free row echelon over arbitrary-precision integers
(cross-multiplication updates with per-row gcd stripping, which subsumes the
Bareiss divisor and keeps entries near-minimal on structured rows), followed
by an exact rational back-substitution when a reduced form is requested.

gmpy2 is used for the big-integer arithmetic when importable; the pure-int
fallback computes identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rng import SeededRng

try:
    from gmpy2 import mpz, gcd as _gcd
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def mpz(x):  # type: ignore
        return x

    _gcd = math.gcd


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" with arbitrary-precision integers."""
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction | int) -> str:
    """Render exactly: integers as "p", non-integers as "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def clear_denominators(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row (gcd 1).

    Row scaling preserves rank, pivot profiles, kernels and reduced
    echelon forms, so integer rows are a safe fast path everywhere below.
    """
    lcm = 1
    for x in row:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [x.numerator * (lcm // x.denominator) for x in row]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
        if g == 1:
            return ints
    if g > 1:
        ints = [v // g for v in ints]
    return ints


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of Fractions, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        data = [[Fraction(x) for x in r] for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in data for x in r))

    @classmethod
    def identity(cls, k: int) -> "RatMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_list(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def int_rows(self) -> list[list[int]]:
        return [clear_denominators(self.row(i)) for i in range(self.rows)]

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [
            sum((self.at(i, j) * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            out.append(
                [
                    sum(
                        (self.at(i, k) * other.at(k, j) for k in range(self.cols)),
                        Fraction(0),
                    )
                    for j in range(other.cols)
                ]
            )
        return RatMatrix.from_rows(out)


def _strip_gcd(row: list, start_cols: Sequence[int]) -> None:
    g = 0
    for j in start_cols:
        v = row[j]
        if v:
            g = _gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j in start_cols:
            if row[j]:
                row[j] //= g


def echelon_int(
    rows: list[list[int]], order: Sequence[int], ncols: int
) -> tuple[list[int], list[list[int]]]:
    """Fraction-free forward elimination with pivot scan along `order`.

    Returns (pivot columns in scan order, echelon rows aligned with them).
    Columns outside `order` are carried along but never pivoted.  Input rows
    are consumed (mutated).
    """
    work = [[mpz(x) for x in r] for r in rows]
    extras = sorted(set(range(ncols)) - set(order))
    pivots: list[int] = []
    r = 0
    for idx, c in enumerate(order):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        a = prow[c]
        tail = list(order[idx + 1 :]) + extras
        for i in range(r + 1, len(work)):
            row = work[i]
            b = row[c]
            if not b:
                continue
            row[c] = mpz(0)
            for j in tail:
                row[j] = a * row[j] - b * prow[j]
            _strip_gcd(row, tail)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[:r]


MODULUS = 1073741789  # the largest prime below 2**30


def free_columns_mod_p(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Non-pivot columns of the integer rows reduced mod MODULUS, scanning
    the columns from the last one to the first (ascending result).

    Rows independent mod p are independent over Q, so an empty result proves
    that the rows have full column rank over Q.  A non-empty result proves
    nothing over Q: it is the rational pivot profile unless p divides one
    of the minors that decide it.  Input rows are left untouched.

    Each row is packed into one integer, the j-th scanned column in bits
    [j*w, (j+1)*w), so a row operation is one big-integer multiply-add.
    Slots stay non-negative and are reduced only when their row becomes
    the pivot row: a slot starts below p and gains (p - b) * y < p**2 per
    pivot, so w = 2*bits(p) + bits(ncols) + 1 bits never overflow.
    """
    p = MODULUS
    w = 2 * p.bit_length() + ncols.bit_length() + 1
    mask = (1 << w) - 1

    def pack(vals) -> int:
        x = 0
        for v in reversed(vals):
            x = (x << w) | v
        return x

    # The low slot of every row is always the column being scanned; rows
    # drop it once it has been scanned.
    work = [pack([v % p for v in reversed(r)]) for r in rows]
    free: list[int] = []
    for c in range(ncols - 1, -1, -1):
        lead = [(x & mask) % p for x in work]
        k = next((i for i, a in enumerate(lead) if a), None)
        if k is None:
            free.append(c)
            work = [x >> w for x in work]
            continue
        x = work.pop(k) >> w
        inv = pow(lead.pop(k), -1, p)
        tail = []
        for _ in range(c):
            tail.append((x & mask) * inv % p)
            x >>= w
        prow = pack(tail)
        work = [(x >> w) + (p - b) * prow if b else x >> w
                for x, b in zip(work, lead)]
    return free[::-1]


def pivot_columns(mat: RatMatrix, order: Sequence[int]) -> list[int]:
    """Pivot columns of the echelon form scanning columns in `order`."""
    _check_order(order, mat.cols)
    pivots, _ = echelon_int(mat.int_rows(), order, mat.cols)
    return pivots


def rank(mat: RatMatrix) -> int:
    pivots, _ = echelon_int(mat.int_rows(), range(mat.cols), mat.cols)
    return len(pivots)


def _check_order(order: Sequence[int], cols: int) -> None:
    if sorted(order) != list(range(cols)):
        raise ValueError("order must be a permutation of the column indices")


def _back_substitute(
    pivots: list[int], ech: list[list[int]], ncols: int
) -> list[list[Fraction]]:
    """Exact reduced form: pivots scaled to 1, eliminated above."""
    rows = [[Fraction(x) for x in r] for r in ech]
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        inv = rows[i][c]
        rows[i] = [x / inv for x in rows[i]]
        for k in range(i):
            f = rows[k][c]
            if f:
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[i])]
    return rows


def rref_with_column_order(
    mat: RatMatrix, order: Sequence[int], want_transform: bool = False
):
    """Reduced row echelon form with pivot selection scanning `order`.

    Returns (pivot columns in scan order, reduced matrix).  With
    want_transform=True additionally returns an invertible T with
    T * mat == reduced (padded with zero rows to the original height).
    """
    _check_order(order, mat.cols)
    if not want_transform:
        pivots, ech = echelon_int(mat.int_rows(), order, mat.cols)
        reduced = _back_substitute(pivots, ech, mat.cols)
        reduced += [[Fraction(0)] * mat.cols for _ in range(mat.rows - len(reduced))]
        return pivots, RatMatrix.from_rows(reduced) if reduced else _empty_like(mat)
    # Transform tracking works on the original rational rows (no row
    # scaling), augmenting with an identity block that is never pivoted.
    n, c = mat.rows, mat.cols
    aug = [mat.row(i) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots: list[int] = []
    r = 0
    for col in order:
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][col]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    reduced = RatMatrix.from_rows([row[:c] for row in aug]) if aug else _empty_like(mat)
    transform = RatMatrix.from_rows([row[c:] for row in aug])
    return pivots, reduced, transform


def _empty_like(mat: RatMatrix) -> RatMatrix:
    return RatMatrix(mat.rows, mat.cols, tuple())


def nullspace(mat: RatMatrix) -> list[list[Fraction]]:
    """Exact basis of the right kernel; len == cols - rank."""
    pivots, ech = echelon_int(mat.int_rows(), range(mat.cols), mat.cols)
    reduced = _back_substitute(pivots, ech, mat.cols)
    free = [j for j in range(mat.cols) if j not in set(pivots)]
    basis = []
    for f in free:
        v = [Fraction(0)] * mat.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis


def random_invertible_matrix(rng: SeededRng, size: int, bound: int) -> RatMatrix:
    """Random integer matrix with entries in [-bound, bound], redrawn until
    invertible.  Deterministic given (rng seed position, size, bound)."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    for _ in range(100):
        rows = [
            [rng.next_int(-bound, bound) for _ in range(size)] for _ in range(size)
        ]
        pivots, _ = echelon_int([list(r) for r in rows], range(size), size)
        if len(pivots) == size:
            return RatMatrix.from_rows(rows)
    raise RuntimeError("could not draw an invertible matrix in 100 attempts")

"""Exact integer linear algebra for the pivot profiles of condition matrices.

The decision-critical computations in this package are ranks and pivot
profiles of integer condition matrices, and every answer is exact.  A
profile is computed mod a prime p (pivot_profile_mod_p) and then proved
over Q (certified_free_columns): rows independent mod p are independent
over Q.  Full row rank mod p with the free columns last in the scan needs
no more: every column suffix has at most as many free columns over Q as
mod p, and the two ranks are equal.  Otherwise each column free mod p
gets an exact kernel vector, found by Dixon's p-adic lifting with
rational reconstruction and checked exactly against every row.  There is
no exact elimination of a condition matrix to fall back on: a proof that
fails is reported, and the caller redraws its coordinate change.  The only
exact elimination is determinant (Bareiss), on the small square matrices
of coordinate changes and hyperplane systems.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .rng import SeededRng


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


def clear_denominators(row: Sequence[Fraction | int]) -> list[int]:
    """Scale a rational row to a primitive integer row (gcd 1), keeping its
    signs; an integer row is divided by the gcd of its entries."""
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


MODULUS = 1073741789  # the largest prime below 2**30


def _pack(vals: Sequence[int], nb: int) -> int:
    """One integer holding vals[j] in bytes [j*nb, (j+1)*nb), for
    0 <= vals[j] < 256**nb."""
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in vals), "little")


def _unpack(x: int, nb: int, count: int) -> list[int]:
    """The first count slots of a _pack result whose slots did not overflow."""
    buf = x.to_bytes(nb * count, "little")
    return [int.from_bytes(buf[j * nb:(j + 1) * nb], "little") for j in range(count)]


def _slot_bytes(updates: int) -> int:
    """Bytes per slot for values below p that take up to `updates` additions
    of (p - b) * y < p**2 each before they are reduced."""
    return (2 * MODULUS.bit_length() + updates.bit_length() + 8) // 8


def pivot_profile_mod_p(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[int], list[int], list[int]]:
    """Pivot profile of the integer rows reduced mod MODULUS, scanning the
    columns from the last one to the first: the non-pivot columns
    (ascending), the pivot columns in scan order, and for each pivot the
    index of the row that became its pivot row.

    Rows independent mod p are independent over Q, so an empty set of
    non-pivot columns proves that the rows have full column rank over Q.
    A non-empty one proves nothing over Q: it is the rational pivot
    profile unless p divides one of the minors that decide it
    (certified_free_columns settles which).  Input rows are left untouched.

    Each row is packed into one integer, the j-th scanned column in the
    j-th slot of w bits, so a row operation is one big-integer multiply-add.
    Slots stay non-negative and are reduced only when their row becomes
    the pivot row: a slot starts below p and gains (p - b) * y < p**2 per
    pivot, so w = 2*bits(p) + bits(ncols) + 1 bits, rounded up to whole
    bytes, never overflow.
    """
    p = MODULUS
    nb = _slot_bytes(ncols)
    w = 8 * nb
    mask = (1 << w) - 1
    # The low slot of every row is always the column being scanned; rows
    # drop it once it has been scanned.
    work = [_pack([v % p for v in reversed(r)], nb) for r in rows]
    row_ids = list(range(len(rows)))
    free: list[int] = []
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for c in range(ncols - 1, -1, -1):
        lead = [(x & mask) % p for x in work]
        k = next((i for i, a in enumerate(lead) if a), None)
        if k is None:
            free.append(c)
            work = [x >> w for x in work]
            continue
        pivots.append(c)
        pivot_rows.append(row_ids.pop(k))
        inv = pow(lead.pop(k), -1, p)
        prow = _pack([y * inv % p for y in _unpack(work.pop(k) >> w, nb, c)], nb)
        work = [(x >> w) + (p - b) * prow if b else x >> w
                for x, b in zip(work, lead)]
    return free[::-1], pivots, pivot_rows


def free_columns_mod_p(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """The non-pivot columns of pivot_profile_mod_p, ascending."""
    return pivot_profile_mod_p(rows, ncols)[0]


def _inverse_columns_mod_p(mat: list[list[int]]) -> list[int] | None:
    """The columns of mat**-1 mod MODULUS, each packed with
    _slot_bytes(len(mat)) bytes per slot, slots reduced below p; None if mat
    is singular mod p.

    Gauss-Jordan on the rows of [mat^T | I], whose right half ends as the
    transpose of mat**-1.  Slots are reduced only in the pivot row, as in
    pivot_profile_mod_p: a row takes one update of less than p**2 per
    pivot, so the same width never overflows.
    """
    p = MODULUS
    r = len(mat)
    nb = _slot_bytes(r)
    w = 8 * nb
    mask = (1 << w) - 1
    work = [
        _pack([mat[j][i] % p for j in range(r)] + [int(i == j) for j in range(r)], nb)
        for i in range(r)
    ]
    for c in range(r):
        lead = [(x & mask) % p for x in work]
        k = next((i for i in range(c, r) if lead[i]), None)
        if k is None:
            return None
        work[c], work[k] = work[k], work[c]
        lead[c], lead[k] = lead[k], lead[c]
        inv = pow(lead[c], -1, p)
        prow = _pack([y * inv % p for y in _unpack(work[c] >> w, nb, 2 * r - c - 1)], nb)
        work = [
            prow if i == c else (x >> w) + (p - b) * prow if b else x >> w
            for i, (x, b) in enumerate(zip(work, lead))
        ]
    return [_pack([y % p for y in _unpack(x, nb, r)], nb) for x in work]


def _reconstruct(xs: list[int], modulus: int, bound: int) -> tuple[int, list[int]] | None:
    """Common-denominator rational reconstruction: the primitive (den,
    nums) with den > 0 and den * xs[j] = nums[j] mod modulus, built with
    den and every |nums[j]| at most bound when it is first reached;
    None if there is none.

    Each entry first tries the denominator found so far; only an entry
    that stays large runs the extended Euclidean algorithm (stopped at the
    first remainder within bound) and multiplies the denominator up.
    """
    den = 1
    nums: list[int] = []
    for x in xs:
        y = den * x % modulus
        if y > modulus >> 1:
            y -= modulus
        if abs(y) > bound:
            r0, r1, s0, s1 = modulus, y % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            if den * s1 > bound:
                return None
            den *= s1
            nums = [a * s1 for a in nums]
            y = r1
        nums.append(y)
    g = math.gcd(den, *nums)
    return den // g, [a // g for a in nums]


def _lift_kernel(
    rows: Sequence[Sequence[int]],
    free: list[int],
    pivots: list[int],
    pivot_rows: list[int],
) -> list[list[int]] | None:
    """For each column f in free, a candidate integer kernel vector: v[f] > 0,
    the other entries on the pivot columns, solving the square system
    B x = -A[pivot_rows, f] with B = A[pivot_rows, pivots]; None when B is
    singular mod p or the lifting does not converge.

    Dixon's p-adic lifting (Numer. Math. 1982) with symmetric digits: one
    inverse of B mod p, then per step digit = B**-1 * residual mod p and
    residual = (residual - B * digit) / p, exactly.  All free columns are
    lifted in one loop; B's columns and each residual are packed into big
    integers, so a step costs a few multiply-adds per pivot.  Every other
    step the columns try a rational reconstruction, widest last, and drop
    out once it succeeds.  The reconstruction keeps 20 bits of margin on
    both the numerators and the denominator, which makes a false one about
    as likely as 2**-40; a false one still fails the exact checks of the
    caller.  The step cap is where Hadamard's bound on every r x r minor
    of [B | A[pivot_rows, f]] guarantees the reconstruction.
    """
    ncols = len(free) + len(pivots)
    if not pivots:
        return [[int(c == f) for c in range(ncols)] for f in free]
    p = MODULUS
    r = len(pivots)
    square = [rows[i] for i in pivot_rows]
    inv_cols = _inverse_columns_mod_p([[row[c] for c in pivots] for row in square])
    if inv_cols is None:
        return None
    nb = _slot_bytes(r)
    top = max(abs(v) for row in square for v in row).bit_length()
    # A residual slot stays below r * 2**top * p in absolute value, also
    # between the subtraction and the division by p.  Offset by half a
    # slot, the slots are non-negative and unpack like the others.
    rb = (top + r.bit_length() + p.bit_length() + 2) // 8 + 1
    half = 1 << (8 * rb - 1)
    offset = _pack([half] * r, rb)

    def pack_signed(vals: list[int]) -> int:
        return _pack([v + half for v in vals], rb) - offset

    b_cols = [pack_signed([row[c] for row in square]) for c in pivots]
    residual = {f: pack_signed([-row[f] for row in square]) for f in free}
    digits_sum = {f: [0] * r for f in free}
    margin = 20
    hadamard_bits = (r + 1) * (top + (r.bit_length() + 1) // 2)
    cap = (2 * hadamard_bits + 2 * margin + 2) // (p.bit_length() - 1) + 1
    found: dict[int, list[int]] = {}
    modulus = 1
    for step in range(1, cap + 1):
        for f, res in residual.items():
            ys = [(y - half) % p for y in _unpack(res + offset, rb, r)]
            ts = [t - p if t > p >> 1 else t
                  for t in (t % p for t in _unpack(sum(map(mul, inv_cols, ys)), nb, r))]
            residual[f] = (res - sum(map(mul, b_cols, ts))) // p
            digits_sum[f] = [x + t * modulus for x, t in zip(digits_sum[f], ts)]
        modulus *= p
        if step % 2 and step < cap:
            continue
        bound = math.isqrt(modulus >> (2 * margin + 1))
        # Kernel vectors tend to grow as the column index falls, so larger
        # columns are tried first and the first failure ends the round.
        for f in sorted(residual, reverse=True):
            got = _reconstruct(digits_sum[f], modulus, bound)
            if got is None:
                break
            den, nums = got
            v = [0] * ncols
            v[f] = den
            for c, a in zip(pivots, nums):
                v[c] = a
            found[f] = v
            del residual[f]
        if not residual:
            return [found[f] for f in free]
    return None


def certified_free_columns(
    rows: Sequence[Sequence[int]], ncols: int
) -> list[int] | None:
    """Non-pivot columns of the last-column-first scan over Q, proved from
    the profile mod p; None when the proof fails.

    The mod-p pivots of every suffix of columns are independent mod p,
    hence over Q.  So the two profiles agree once every mod-p free column
    f has a certificate: an integer vector v with v[f] != 0, support in
    {f} and the pivots scanned before f (the larger pivot columns), and
    A v = 0 exactly on every row.  Then column f lies in the Q-span of the
    pivots after it, and by induction over the scan prefixes every suffix
    has the same rank over Q as mod p.  The candidates come from
    _lift_kernel; the square system it solves is the pivot rows of the
    final all-rows check, so nothing it returns is trusted unchecked.

    One profile needs no certificates: rank len(rows) mod p with the free
    columns exactly 0..k-1, the last ones scanned.  A minor nonzero mod p
    is nonzero over Q, so rank_p(S) <= rank_Q(S) for every column suffix
    S, and S has at most as many free columns over Q as mod p.  The suffix
    k..ncols-1 has none mod p, so every column free over Q is below k.
    And rank_Q <= len(rows) = rank_p, so the ranks are equal and exactly k
    columns are free over Q: the columns 0..k-1.
    """
    free, pivots, pivot_rows = pivot_profile_mod_p(rows, ncols)
    if not free:
        return []
    if len(pivots) == len(rows) and free[-1] == len(free) - 1:
        return free
    kernel = _lift_kernel(rows, free, pivots, pivot_rows)
    if kernel is None:
        return None
    pivot_set = set(pivots)
    for f, v in zip(free, kernel):
        if len(v) != ncols or not v[f]:
            return None
        if any(v[c] for c in range(ncols) if c != f and (c < f or c not in pivot_set)):
            return None
        if any(sum(map(mul, row, v)) for row in rows):
            return None
    return free


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination: the
    entries after step c are (c+1) x (c+1) minors, so every division by
    the previous pivot is exact."""
    work = [list(r) for r in rows]
    sign, prev = 1, 1
    for c in range(len(work)):
        k = next((i for i in range(c, len(work)) if work[i][c]), None)
        if k is None:
            return 0
        if k != c:
            work[c], work[k] = work[k], work[c]
            sign = -sign
        prow, a = work[c], work[c][c]
        for i in range(c + 1, len(work)):
            b = work[i][c]
            work[i] = [(a * x - b * y) // prev for x, y in zip(work[i], prow)]
        prev = a
    return sign * prev


def random_invertible_matrix(
    rng: SeededRng, size: int, bound: int
) -> list[list[int]]:
    """Rows of a random integer matrix with entries in [-bound, bound],
    redrawn until invertible.  Deterministic given (rng seed position, size,
    bound)."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    for _ in range(100):
        rows = [
            [rng.next_int(-bound, bound) for _ in range(size)] for _ in range(size)
        ]
        if determinant(rows):
            return rows
    raise RuntimeError("could not draw an invertible matrix in 100 attempts")

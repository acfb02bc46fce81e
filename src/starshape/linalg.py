"""Exact integer linear algebra for the pivot profiles of condition matrices.

The decision-critical computations in this package are ranks and pivot
profiles of integer condition matrices, and every answer is exact.  A
profile is computed mod a prime p (pivot_profile_mod_p) and then proved
over Q (certified_free_columns): rows independent mod p are independent
over Q, so no column suffix has a smaller rank over Q than mod p.  The
rest is proved by integer certificates, kernel vectors found by Dixon's
p-adic lifting with rational reconstruction (_dixon_solve) and checked
exactly on the whole matrix, both kinds by one routine
(_kernel_certificates).  Dual certificates, one left-kernel vector per
row that is no pivot row mod p (a kernel vector of the transpose), bound
the rank over Q by the rank mod p, which proves every free column below
the smallest pivot column; a free column above it gets a column
certificate, a kernel vector.  Where that takes more vectors than there
are free columns, every free column gets a column certificate instead.
Full row rank mod p with the free columns last in the scan takes zero
vectors.

A caller that has proved an upper bound on the rank over Q by other means
passes it in, and where it equals the rank mod p it replaces the dual
certificates.  gin passes one for a star's degree-e conditions: N minus
the rank mod p of products of the star's hyperplanes that vanish to order
m at every point, N the degree-e monomials.  Its proof is in gin's module
docstring.

There is no exact elimination of a condition matrix to fall back on: a
proof that fails is reported, and the caller redraws its coordinate
change.  The only exact elimination is determinant (Bareiss), on the small
square matrices of coordinate changes and hyperplane systems.

The mod-p work packs each row into one big integer, one slot per entry, so
a row operation is one multiply-add.  p is below 2**26, so a slot that
takes up to 2,047 updates of less than p**2 fits one 64-bit word, and
packing and unpacking go through array('Q') at C speed.  Slot j holds bits
[64j, 64j + 64) of the integer whatever the host's byte order.  Slots of
other widths (more than 2,047 updates, or Dixon residuals sized by their
entries) go byte by byte.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .rng import SeededRng


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" with arbitrary-precision integers; ValueError on
    anything else, a zero denominator included."""
    text = s.strip()
    num, slash, den = text.partition("/")
    if slash and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den) if slash else 1)


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


# The largest prime below 2**26: then (p - 1)**2 * u + p < 2**64 for up to
# u = 2,047 updates, so a slot is one machine word (_slot_bytes).
MODULUS = 67108859
_SWAP = sys.byteorder == "big"


def _pack(vals: Sequence[int], nb: int) -> int:
    """One integer holding vals[j] in bytes [j*nb, (j+1)*nb), for
    0 <= vals[j] < 256**nb."""
    if nb == 8:
        words = array("Q", vals)
        if _SWAP:
            words.byteswap()
        return int.from_bytes(words, "little")
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in vals), "little")


def _unpack(x: int, nb: int, count: int) -> list[int]:
    """The first count slots of a _pack result whose slots did not overflow."""
    buf = x.to_bytes(nb * count, "little")
    if nb == 8:
        words = array("Q", buf)
        if _SWAP:
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(buf[j * nb:(j + 1) * nb], "little") for j in range(count)]


def _slot_bytes(updates: int) -> int:
    """Bytes per slot for values below p that take up to `updates` additions
    of (p - b) * y < p**2 each before they are reduced: 8, one 64-bit word,
    for up to 2,047 updates."""
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
    bytes, never overflow.  With p < 2**26 that is one 64-bit word for up
    to 2,047 columns (the largest matrix here has 561).
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


def _inverse_columns_mod_p(mat: list[list[int]]) -> list[int]:
    """The columns of mat**-1 mod MODULUS, each packed with
    _slot_bytes(len(mat)) bytes per slot (one 64-bit word up to 2,047
    rows), slots reduced below p.  mat must be invertible mod p.

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
        k = next(i for i in range(c, r) if lead[i])
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


def _dixon_solve(
    square: list[list[int]], rhs: list[list[int]], inv_cols: list[int]
) -> list[tuple[int, list[int]]] | None:
    """For each b in rhs, the primitive integer solution of square * x = b:
    (den, nums) with den > 0 and square * nums = den * b; None when the
    lifting does not converge.  inv_cols are the columns of square**-1 mod
    p as _inverse_columns_mod_p packs them.

    Dixon's p-adic lifting (Numer. Math. 1982) with symmetric digits: per
    step digit = square**-1 * residual mod p and residual = (residual -
    square * digit) / p, exactly.  All right-hand sides are lifted in one
    loop; square's columns and each residual are packed into big integers,
    so a step costs a few multiply-adds per column.  Every other step the
    right-hand sides try a rational reconstruction, last first, and drop
    out once it succeeds; the first failure ends the round, so callers put
    the solutions expected to be widest first.  The reconstruction keeps 20 bits of
    margin on both the numerators and the denominator, which makes a false
    one about as likely as 2**-40; a false one still fails the exact
    checks of the caller.  The step cap is where Hadamard's bound on every
    r x r minor of [square | b] guarantees the reconstruction, with the
    entry size taken from the system solved.
    """
    p = MODULUS
    r = len(square)
    nb = _slot_bytes(r)
    top = max(abs(v) for row in (*square, *rhs) for v in row).bit_length()
    # A residual slot stays below r * 2**top * p in absolute value, also
    # between the subtraction and the division by p.  Offset by half a
    # slot, the slots are non-negative and unpack like the others.
    rb = (top + r.bit_length() + p.bit_length() + 2) // 8 + 1
    half = 1 << (8 * rb - 1)
    offset = _pack([half] * r, rb)

    def pack_signed(vals: list[int]) -> int:
        return _pack([v + half for v in vals], rb) - offset

    square_cols = [pack_signed(list(col)) for col in zip(*square)]
    residual = {k: pack_signed(b) for k, b in enumerate(rhs)}
    digits_sum = {k: [0] * r for k in residual}
    margin = 20
    hadamard_bits = (r + 1) * (top + (r.bit_length() + 1) // 2)
    cap = (2 * hadamard_bits + 2 * margin + 2) // (p.bit_length() - 1) + 1
    found: dict[int, tuple[int, list[int]]] = {}
    modulus = 1
    for step in range(1, cap + 1):
        for k, res in residual.items():
            ys = [(y - half) % p for y in _unpack(res + offset, rb, r)]
            ts = [t - p if t > p >> 1 else t
                  for t in (t % p for t in _unpack(sum(map(mul, inv_cols, ys)), nb, r))]
            residual[k] = (res - sum(map(mul, square_cols, ts))) // p
            digits_sum[k] = [x + t * modulus for x, t in zip(digits_sum[k], ts)]
        modulus *= p
        if step % 2 and step < cap:
            continue
        bound = math.isqrt(modulus >> (2 * margin + 1))
        for k in sorted(residual, reverse=True):
            got = _reconstruct(digits_sum[k], modulus, bound)
            if got is None:
                break
            found[k] = got
            del residual[k]
        if not residual:
            return [found[k] for k in range(len(rhs))]
    return None


def _kernel_certificates(
    mat: Sequence[Sequence[int]],
    heads: list[int],
    eqs: list[int],
    basis: list[int],
    inverse: list[int],
    ordered: bool = False,
) -> list[list[int]] | None:
    """Checked integer kernel vectors of mat, one for each column h in
    heads: v[h] != 0, the other entries on the columns in basis, and
    mat v = 0 exactly on every row; None when _dixon_solve fails or a
    vector fails a check.  inverse holds the packed columns of
    mat[eqs][basis]**-1 mod p.

    Each v solves mat[eqs][basis] x = -mat[eqs][h] with _dixon_solve,
    heads in the order given (the widest expected first), so its support
    is {h} and basis by construction.  With ordered, heads and basis are
    columns of one last-column-first scan, and v must also vanish on the
    basis columns below h, the ones scanned after it.
    """
    square = [[mat[i][c] for c in basis] for i in eqs]
    sols = _dixon_solve(square, [[-mat[i][h] for i in eqs] for h in heads], inverse)
    if sols is None:
        return None
    kernel = []
    for h, (den, nums) in zip(heads, sols, strict=True):
        if not den or (ordered and any(a for c, a in zip(basis, nums) if c < h)):
            return None
        v = [0] * len(mat[0])
        v[h] = den
        for c, a in zip(basis, nums):
            v[c] = a
        if any(sum(map(mul, row, v)) for row in mat):
            return None
        kernel.append(v)
    return kernel


def certified_free_columns(
    rows: Sequence[Sequence[int]],
    ncols: int,
    rank_bound: Callable[[], int] | None = None,
) -> list[int] | None:
    """Non-pivot columns of the last-column-first scan over Q, proved from
    the profile mod p; None when the proof fails.

    The mod-p pivots of every suffix of columns are independent mod p,
    hence over Q, so rank_p(S) <= rank_Q(S) for every column suffix S.
    Let c* be the smallest pivot column.  The free columns mod p above c*
    (interleaved) and below it (leading) are proved in two ways.

    A column certificate for a free column f is an integer vector v with
    v[f] != 0, support in {f} and the pivots scanned before f (the larger
    pivot columns), and A v = 0 exactly on every row.  Column f then lies
    in the Q-span of the pivots after it.

    A dual certificate for a non-pivot row i is an integer vector y with
    y[i] != 0, support in {i} and the pivot rows, and y A = 0 exactly on
    every column.  One for each of the rows - rank_p non-pivot rows gives
    that many independent vectors of the left kernel, so rank_Q(A) <=
    rank_p(A).  The suffix S* from c* holds every pivot, so rank_p(S*) =
    rank_p(A), and rank_p(S*) <= rank_Q(S*) <= rank_Q(A) <= rank_p(A) are
    all equal.  Every longer suffix has a Q-rank between rank_Q(S*) and
    rank_Q(A), so no leading column raises the rank: each is free over Q.

    A rank bound, when given, is a callable returning a proved upper bound
    on rank_Q(A), called only when non-pivot rows exist (for a star, gin
    passes N - rank_p(products); see its module docstring).  Since rank_p(A)
    <= rank_Q(A), a bound equal to rank_p(A) proves rank_Q(A) = rank_p(A)
    as the dual certificates do, so none is lifted; a bound below it is a
    contradiction and the proof fails; a larger one proves nothing.

    Then by induction over the scan prefixes every suffix has the same
    rank over Q as mod p, and the profiles agree.  Either every free
    column gets a column certificate, or every non-pivot row a dual one
    and every interleaved column a column one, whichever needs fewer
    vectors (the duals on a tie).  Full row rank mod p with no interleaved
    column needs none.  Without pivots the rows are the certificate: every
    column is free over Q only if every row is zero.  Both kinds come from
    _kernel_certificates, a dual certificate as a kernel vector of the
    transpose, and nothing the lifting returns is trusted unchecked.  Both
    kinds solve with B = rows[pivot_rows][pivots], invertible mod p by the
    profile: column certificates with B, dual ones with its transpose.  So
    B is inverted once, and the rows of B**-1 serve as the columns of
    (B^T)**-1.
    """
    free, pivots, pivot_rows = pivot_profile_mod_p(rows, ncols)
    if not free:
        return []
    if not pivots:
        return None if any(map(any, rows)) else free
    pivot_row_set = set(pivot_rows)
    spare = [i for i in range(len(rows)) if i not in pivot_row_set]
    interleaved = [f for f in free if f > pivots[-1]]
    if spare and rank_bound is not None:
        bound = rank_bound()
        if bound < len(pivots):
            return None
        if bound == len(pivots):
            spare = []
    if len(spare) + len(interleaved) <= len(free):
        cols = interleaved
    else:
        cols, spare = free, []
    if not cols and not spare:
        return free
    inverse = _inverse_columns_mod_p([[rows[i][c] for c in pivots] for i in pivot_rows])
    # Kernel vectors tend to grow as the column index falls, left-kernel
    # vectors with the row index: both lists go widest first.
    if cols and _kernel_certificates(
            rows, cols, pivot_rows, pivots, inverse, ordered=True) is None:
        return None
    if spare:
        r = len(pivots)
        nb = _slot_bytes(r)
        inverse = [_pack(row, nb) for row in zip(*(_unpack(x, nb, r) for x in inverse))]
        if _kernel_certificates(list(zip(*rows)), spare[::-1], pivots, pivot_rows, inverse) is None:
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

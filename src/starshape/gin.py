"""Degreewise computation of reverse-lexicographic generic initial ideals
of symbolic powers of point ideals.

No Groebner machinery: for a saturated zero-dimensional ideal every minimal
generator of the generic initial ideal shows up by the degree where the
quotient Hilbert function stabilizes, so the whole ideal is recovered from
finitely many exact kernel computations.

The degree-d slice of the initial ideal is read off one elimination: order
the degree-d monomials descending by revlex and scan the columns of the
condition matrix from the *smallest* monomial up.  A kernel vector with
leading (largest) monomial mu reduces, against kernel vectors led by the
pivots below mu, to one supported on mu and smaller non-pivot columns; so
the set of leading monomials of the kernel is exactly the set of non-pivot
columns of that scan.  Columns already known to lie in the ideal (multiples
of generators found in lower degrees) are provably leading monomials and
are deleted up front, which keeps the matrices near the size of the scheme
length.

The answer is exact over Q.  Each degree first runs the pivot profile mod a
prime p (linalg.MODULUS).  Rows independent mod p are independent over Q,
so a zero kernel mod p settles the degree exactly: it has no new generator.
In every other degree the generators are the columns free mod p, once each
has an exact kernel certificate: an integer vector, found by p-adic lifting,
that uses only the column and the pivots scanned before it and vanishes
exactly on every condition row (linalg.certified_free_columns).  If any
certificate fails, the degree runs the exact fraction-free elimination
over Q instead (_free_columns), which is kept only as that fallback.

Genericity of the random coordinate change is certified operationally: the
whole computation runs under two independently seeded changes and must
agree, and every result is checked to be Borel-fixed, to avoid the last
variable, to reproduce the Hilbert function degree by degree, and to have
the predicted finite colength.  Any failure triggers a redraw.  The second
change is a witness, not part of the answer: in each degree with new
generators its pivot profile is computed mod p only and must equal the
exact profile of the first change.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

from .errors import GenericityError
from .linalg import (
    certified_free_columns,
    echelon_int,
    format_rational,
    free_columns_mod_p,
    random_invertible_matrix,
)
from .monomial import (
    Exponents,
    MonomialIdeal,
    dimension_of_degree,
    divides,
    monomials_of_degree,
)
from .rng import SeededRng
from .scheme import FatPointScheme, _condition_rows, transform_scheme

CACHE_VERSION = 1
GIN_SCHEMA = "starshape.gin/1"


@dataclass(frozen=True)
class GinResult:
    """The generic initial ideal of one symbolic power.

    min_generators lives in the n+1 ambient variables.  hf_table rows are
    (d, dim of the symbolic power in degree d, quotient Hilbert function at
    d) for d = 0..stop_degree.
    """

    n: int
    m: int
    min_generators: MonomialIdeal
    hf_table: tuple[tuple[int, int, int], ...]
    stop_degree: int
    colength: int
    seeds_used: tuple[int, int]
    bound: int

    @cached_property
    def artinian(self) -> MonomialIdeal:
        """The same ideal read in the first n variables (valid because no
        minimal generator involves the last one)."""
        return self.min_generators.drop_last_variable()

    def t_vector(self) -> list[int]:
        """Minimal pure-power exponents t_1..t_n of the artinian reduction."""
        ts = []
        for i in range(1, self.n + 1):
            p = self.artinian.pure_power_threshold(i)
            if p is None:
                raise GenericityError("missing pure power on axis %d" % i)
            ts.append(p)
        return ts

    def alpha(self) -> int:
        """Least degree with a nonzero element of the symbolic power."""
        for d, dim_d, _ in self.hf_table:
            if dim_d > 0:
                return d
        raise GenericityError("symbolic power appears to be zero")

    def regularity(self) -> int:
        """Max degree of a minimal generator (= regularity, Borel-fixed case)."""
        return self.min_generators.max_generator_degree()


def _free_columns(
    rows: list[list[int]], ncols: int
) -> tuple[list[int], int]:
    """Non-pivot columns under the smallest-monomial-first scan, and rank,
    by exact elimination over Q."""
    pivots, _ = echelon_int(rows, range(ncols - 1, -1, -1), ncols)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    return free, len(pivots)


def _settled_free_columns(
    rows: list[list[int]], ncols: int
) -> tuple[list[int], int]:
    """What _free_columns returns, proved from the profile mod p.

    A zero kernel mod p is exact; otherwise each free column mod p needs an
    exact kernel certificate (linalg.certified_free_columns).  Any failure
    runs the exact elimination over Q instead.
    """
    settled = certified_free_columns(rows, ncols)
    return _free_columns(rows, ncols) if settled is None else settled


def _run_pair(
    sch: FatPointScheme,
    g1: list[list[int]],
    g2: list[list[int]],
    seeds: tuple[int, int],
    bound: int,
) -> GinResult:
    n, m = sch.dim, sch.multiplicity
    k = n + 1
    z1 = transform_scheme(sch, g1).int_points
    z2 = transform_scheme(sch, g2).int_points
    gens: list[Exponents] = []
    hf_table: list[tuple[int, int, int]] = []
    prev_q: int | None = None
    cap = m * (len(sch.points) + n) + k + 2
    d = 0
    while True:
        total = dimension_of_degree(k, d)
        mons = monomials_of_degree(k, d)
        if d < m:
            hf_d = 0
            new: list[Exponents] = []
        else:
            kept = [j for j, mon in enumerate(mons)
                    if not any(divides(g, mon) for g in gens)]
            if not kept:
                hf_d = total
                new = []
            else:
                sub = [mons[j] for j in kept]
                rows = _condition_rows(z1, k, m, sub, d)
                free1, rank = _settled_free_columns(rows, len(sub))
                hf_d = total - rank
                if free1:
                    # New generators depend on the coordinate change; the
                    # second seed, a witness run mod p, must reproduce them.
                    # (A zero kernel is change-independent, so it needs no
                    # witness.)
                    rows2 = _condition_rows(z2, k, m, sub, d)
                    if free_columns_mod_p(rows2, len(sub)) != free1:
                        raise GenericityError(
                            f"coordinate changes disagree in degree {d}"
                        )
                    new = [sub[j] for j in free1]
                else:
                    new = []
        gens.extend(new)
        q = total - hf_d
        hf_table.append((d, hf_d, q))
        if d >= 1 and q == prev_q:
            stop = d
            break
        prev_q = q
        d += 1
        if d > cap:
            raise GenericityError(
                f"Hilbert function failed to stabilize by degree {cap}"
            )

    if any(g[-1] != 0 for g in gens):
        raise GenericityError("a minimal generator involves the last variable")
    min_generators = MonomialIdeal(k, gens)
    if len(min_generators.generators) != len(gens):
        raise GenericityError("generator set failed minimality")
    colength = min_generators.drop_last_variable().colength()
    if colength is None:
        raise GenericityError("artinian reduction has infinite colength")
    return GinResult(
        n=n,
        m=m,
        min_generators=min_generators,
        hf_table=tuple(hf_table),
        stop_degree=stop,
        colength=colength,
        seeds_used=seeds,
        bound=bound,
    )


def _validate(res: GinResult, sch: FatPointScheme) -> None:
    if not res.min_generators.is_borel_fixed():
        raise GenericityError("computed initial ideal is not Borel-fixed")
    if res.colength != sch.fat_point_degree():
        raise GenericityError(
            f"colength {res.colength} != expected {sch.fat_point_degree()}"
        )
    for d, _, q in res.hf_table:
        if res.min_generators.hilbert_function(d) != q:
            raise GenericityError(
                f"Hilbert functions of ideal and initial ideal differ at {d}"
            )


def _fits(res: GinResult, sch: FatPointScheme, bound: int) -> bool:
    """Whether a cached result was computed for this request, has the
    scheme's length, no generator in the last variable and a quotient
    Hilbert column of the shape _run_pair leaves: row d at index d, 0 <= q_d
    <= dim of degree d, no plateau before the last two entries, and those
    equal to the colength.  Cheap checks only: the full _validate is not run
    on cache hits."""
    qs = [q for _, _, q in res.hf_table]
    return (
        (res.n, res.m, res.bound) == (sch.dim, sch.multiplicity, bound)
        and res.colength == sch.fat_point_degree()
        and not any(g[-1] for g in res.min_generators.generators)
        and len(qs) >= 2
        and all(
            e == d and type(e) is type(q) is int
            and 0 <= q <= dimension_of_degree(res.n + 1, d)
            for d, (e, _, q) in enumerate(res.hf_table)
        )
        and all(a != b for a, b in zip(qs[:-2], qs[1:-1]))
        and qs[-2] == qs[-1] == res.colength
    )


def compute_gin(
    sch: FatPointScheme,
    seed: int = 0,
    bound: int = 1000,
    cache: "GinCache | None" = None,
    max_retries: int = 3,
) -> GinResult:
    """Generic initial ideal of the scheme's symbolic power.

    Runs every degree under two coordinate changes seeded independently
    from `seed` and requires identical results; redraws on disagreement or
    on any structural-invariant failure, up to max_retries pairs.
    Deterministic given (scheme, seed, bound).  A cache hit for another
    request or of the wrong length is recomputed and overwritten.
    """
    key = cache_key(sch, seed, bound)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None and _fits(hit, sch, bound):
            return hit
    k = sch.dim + 1
    master = SeededRng(seed)
    failures: list[str] = []
    for _ in range(max_retries):
        s1 = master.next_u64()
        s2 = master.next_u64()
        g1 = random_invertible_matrix(SeededRng(s1), k, bound)
        g2 = random_invertible_matrix(SeededRng(s2), k, bound)
        try:
            res = _run_pair(sch, g1, g2, (s1, s2), bound)
            _validate(res, sch)
        except GenericityError as exc:
            failures.append(str(exc))
            continue
        if cache is not None:
            cache.put(key, res)
        return res
    raise GenericityError(
        "no generic coordinate change found after "
        f"{max_retries} attempts: {failures}"
    )


# ---------------------------------------------------------------------------
# Serialization and caching.  One JSON document per result; the same schema
# is emitted by the command-line tool.


def result_to_json(res: GinResult) -> dict:
    return {
        "schema": GIN_SCHEMA,
        "n": res.n,
        "m": res.m,
        "bound": res.bound,
        "seeds_used": [str(s) for s in res.seeds_used],
        "generators": [list(g) for g in res.artinian.generators],
        "generators_full": [list(g) for g in res.min_generators.generators],
        "hf_table": [list(row) for row in res.hf_table],
        "stop_degree": res.stop_degree,
        "colength": format_rational(res.colength),
        "t": res.t_vector(),
        "alpha": res.alpha(),
        "reg": res.regularity(),
    }


def result_from_json(doc: dict) -> GinResult:
    if doc["schema"] != GIN_SCHEMA:
        raise ValueError(f"not a {GIN_SCHEMA} document")
    n = doc["n"]
    # The document's "generators" field is output only: GinResult derives
    # the artinian generators from generators_full.  Of the Hilbert table
    # only the quotient column q is read; dim_d = C(d + n, n) - q_d, and the
    # table ends at the stop degree (_fits checks the column's shape).
    hf_table = tuple(
        (d, dimension_of_degree(n + 1, d) - q, q) for d, _, q in doc["hf_table"]
    )
    return GinResult(
        n=n,
        m=doc["m"],
        min_generators=MonomialIdeal(n + 1, [tuple(g) for g in doc["generators_full"]]),
        hf_table=hf_table,
        stop_degree=len(hf_table) - 1,
        colength=int(doc["colength"]),
        seeds_used=tuple(int(s) for s in doc["seeds_used"]),
        bound=doc["bound"],
    )


def cache_key(sch: FatPointScheme, seed: int, bound: int) -> str:
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "dim": sch.dim,
            "m": sch.multiplicity,
            "points": [[format_rational(c) for c in p] for p in sch.points],
            "seed": seed,
            "bound": bound,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class GinCache:
    """In-memory result cache keyed by content hash."""

    def __init__(self) -> None:
        self._store: dict[str, GinResult] = {}

    def get(self, key: str) -> GinResult | None:
        return self._store.get(key)

    def put(self, key: str, res: GinResult) -> None:
        self._store[key] = res


class FileGinCache(GinCache):
    """Content-addressed JSON files, written atomically."""

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str) -> GinResult | None:
        hit = super().get(key)
        if hit is not None:
            return hit
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                res = result_from_json(json.load(fh))
        except (ValueError, KeyError, TypeError):
            # Truncated, undecodable or schema-broken: a miss, so the caller
            # recomputes and put() overwrites the file atomically.
            return None
        super().put(key, res)
        return res

    def put(self, key: str, res: GinResult) -> None:
        super().put(key, res)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(result_to_json(res), fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

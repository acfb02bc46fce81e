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
Full row rank mod p with the free columns the last ones scanned (the
largest monomials) settles it too: no column suffix has more free columns
over Q than mod p, and the ranks are equal, so those columns are the
generators.  That is the profile of the last generator degree: there the
rank is the scheme's length, the number of rows, and every standard
monomial is divisible by the last variable while no generator is, so the
generators come first in revlex.  In every other degree the generators
are the columns free mod p, once each has an exact kernel certificate: an
integer vector, found by p-adic lifting, that uses only the column and the
pivots scanned before it and vanishes exactly on every condition row
(linalg.certified_free_columns).  If any certificate fails, the degree
runs the exact fraction-free elimination over Q instead (_free_columns),
which is kept only as that fallback.

Genericity of the random coordinate change is certified operationally: the
whole computation runs under two independently seeded changes and must
agree, and every result is checked (_validate) to be Borel-fixed, to avoid
the last variable and to have the predicted finite colength.  Any failure
triggers a redraw.  The second change is a witness, not part of the answer:
in each degree with new generators its pivot profile is computed mod p only
and must equal the exact profile of the first change.

A result is its minimal generators; the Hilbert table, stop degree and
colength are derived from them.  Checking that table degree by degree
against the generators is a tautology: in each degree the pivots (kept
columns minus free ones) are exactly the generators' standard monomials.
One rule serves a cache hit: it answers the request (n, m, bound, and
seeds_used one of the pairs the seed draws), passes the same _validate as
a fresh result, and a file is byte for byte the document its generators
define.  Anything else is a miss, recomputed and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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

    min_generators lives in the n+1 ambient variables; all else is derived
    from it, and deriving raises GenericityError when a minimal generator
    involves the last variable or the colength is infinite.  hf_table rows
    are (d, dim of the symbolic power in degree d, quotient Hilbert function
    at d) for d = 0..stop_degree.
    """

    n: int
    m: int
    min_generators: MonomialIdeal
    seeds_used: tuple[int, int]
    bound: int

    @cached_property
    def artinian(self) -> MonomialIdeal:
        """The same ideal read in the first n variables (valid because no
        minimal generator involves the last one)."""
        gens = self.min_generators.generators
        if any(g[-1] for g in gens):
            raise GenericityError("a minimal generator involves the last variable")
        return MonomialIdeal(self.n, [g[:-1] for g in gens])

    @cached_property
    def _hilbert_values(self) -> list[int]:
        values = self.artinian.hilbert_values()
        if values is None:
            raise GenericityError("artinian reduction has infinite colength")
        return values

    @cached_property
    def colength(self) -> int:
        return sum(self._hilbert_values)

    @cached_property
    def stop_degree(self) -> int:
        """Degree of the first zero of the artinian Hilbert function, where
        the quotient Hilbert function of the symbolic power stops growing."""
        return len(self._hilbert_values) - 1

    @cached_property
    def hf_table(self) -> tuple[tuple[int, int, int], ...]:
        # Without generators in the last variable, the degree-d standard
        # monomials are the artinian ones of degree <= d times a power of it.
        return tuple(
            (d, dimension_of_degree(self.n + 1, d) - q, q)
            for d, q in enumerate(accumulate(self._hilbert_values))
        )

    def t_vector(self) -> list[int]:
        """Minimal pure-power exponents t_1..t_n of the artinian reduction."""
        ts = [self.artinian.pure_power_threshold(i) for i in range(1, self.n + 1)]
        if None in ts:
            raise GenericityError(f"missing pure power on axis {ts.index(None) + 1}")
        return ts

    def alpha(self) -> int:
        """Least degree with a nonzero element of the symbolic power: the
        least degree of a minimal generator."""
        return min(sum(g) for g in self.min_generators.generators)

    def regularity(self) -> int:
        """Max degree of a minimal generator (= regularity, Borel-fixed case)."""
        return max(sum(g) for g in self.min_generators.generators)


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

    A zero kernel mod p is exact, and so is full row rank mod p with the
    free columns the last ones scanned; otherwise each free column mod p
    needs an exact kernel certificate (linalg.certified_free_columns).  Any
    failure runs the exact elimination over Q instead.
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
    # Quotient Hilbert function by degree: the rank of the conditions.
    qs: list[int] = []
    cap = m * (len(sch.points) + n) + k + 2
    d = 0
    while True:
        mons = monomials_of_degree(k, d)
        if d < m:
            q = len(mons)
            new: list[Exponents] = []
        else:
            kept = [j for j, mon in enumerate(mons)
                    if not any(divides(g, mon) for g in gens)]
            if not kept:
                q = 0
                new = []
            else:
                sub = [mons[j] for j in kept]
                rows = _condition_rows(z1, k, m, sub, d)
                free1, q = _settled_free_columns(rows, len(sub))
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
        qs.append(q)
        if d >= 1 and q == qs[-2]:
            break
        d += 1
        if d > cap:
            raise GenericityError(
                f"Hilbert function failed to stabilize by degree {cap}"
            )

    # Minimal by construction: no kept column is a multiple of an earlier
    # generator, and distinct monomials of one degree never divide each other.
    res = GinResult(n, m, MonomialIdeal(k, gens), seeds, bound)
    if [q for _, _, q in res.hf_table] != qs:
        raise GenericityError("Hilbert function of the generators differs from the ranks")
    return res


def _validate(res: GinResult, sch: FatPointScheme) -> None:
    """The structural checks, alike for fresh results and cache hits.
    Deriving the colength raises when a minimal generator involves the last
    variable or the colength is infinite."""
    colength = res.colength
    if not res.min_generators.is_borel_fixed():
        raise GenericityError("computed initial ideal is not Borel-fixed")
    if colength != sch.fat_point_degree():
        raise GenericityError(
            f"colength {colength} != expected {sch.fat_point_degree()}"
        )


def _seed_pairs(seed: int, max_retries: int) -> list[tuple[int, int]]:
    """The coordinate-change seed pairs compute_gin draws, in order."""
    master = SeededRng(seed)
    return [(master.next_u64(), master.next_u64()) for _ in range(max_retries)]


def _serves(hit: GinResult, sch: FatPointScheme, bound: int, pairs: list) -> bool:
    """Whether a cached result answers the request: its n, m and bound, one
    of the seed pairs the request draws, and the same _validate as a fresh
    result."""
    request = (sch.dim, sch.multiplicity, bound)
    if (hit.n, hit.m, hit.bound) != request or hit.seeds_used not in pairs:
        return False
    try:
        _validate(hit, sch)
    except GenericityError:
        return False
    return True


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
    Deterministic given (scheme, seed, bound).  A cache hit that does not
    answer the request is recomputed and overwritten.
    """
    key = cache_key(sch, seed, bound)
    pairs = _seed_pairs(seed, max_retries)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None and _serves(hit, sch, bound, pairs):
            return hit
    k = sch.dim + 1
    failures: list[str] = []
    for s1, s2 in pairs:
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
    """The result a document's generators define; result_to_json derives
    every other field.  Numbers go through int(), so a document holding
    other JSON numbers (true, 3.0) is not its canonical form."""
    if doc["schema"] != GIN_SCHEMA:
        raise ValueError(f"not a {GIN_SCHEMA} document")
    n = int(doc["n"])
    return GinResult(
        n=n,
        m=int(doc["m"]),
        min_generators=MonomialIdeal(
            n + 1, [tuple(map(int, g)) for g in doc["generators_full"]]
        ),
        seeds_used=tuple(int(s) for s in doc["seeds_used"]),
        bound=int(doc["bound"]),
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
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            res = result_from_json(json.loads(data))
            canonical = json.dumps(result_to_json(res), sort_keys=True)
        except Exception:
            # Outside input: whatever fails to decode or derive is a miss,
            # so the caller recomputes and put() overwrites the file.
            return None
        if data != canonical.encode("utf-8"):
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

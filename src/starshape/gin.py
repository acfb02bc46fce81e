"""Reverse-lexicographic generic initial ideals of symbolic powers of point
ideals: one pivot profile mod p finds the ideal, exact certificates in its
generator degrees prove it.

No Groebner machinery.  Order the degree-d monomials descending by revlex
and scan the columns of the condition matrix from the *smallest* monomial
up.  A kernel vector with leading (largest) monomial mu reduces, against
kernel vectors led by the pivots below mu, to one supported on mu and
smaller non-pivot columns; so the leading monomials of the kernel, the
degree-d slice of the initial ideal, are exactly the non-pivot columns of
that scan.  With some columns deleted up front, the non-pivot columns of
the rest are the leading monomials of the kernel vectors supported on
them, so they still lie in the initial ideal.

One profile mod a prime p (linalg.MODULUS) finds the ideal: for a
saturated ideal in generic coordinates no minimal generator of the revlex
initial ideal involves the last variable (Bayer-Stillman), so all of it
shows up in the first degree D where the rank of the conditions reaches
the scheme's length (_run_pair).  That profile is only a guess.  The
answer is exact over Q because each degree where the guess has generators
is proved by a certificate from its profile mod p
(linalg.certified_free_columns), and the colength check of _validate
closes the argument.

Genericity of the random coordinate change is certified operationally: the
candidate is found under two independently seeded changes and must agree,
its generator degrees must be proved over Q, and every result is checked
(_validate) to be Borel-fixed, to avoid the last variable and to have the
predicted finite colength.  Any failure triggers a redraw.  That includes
a certificate that fails: it fails only when p divides a minor that
decides the first change's profile, or when a rational reconstruction is
false (about 2**-40) and the exact check refuses it, and both depend on
the draw.  The second change is a witness, not part of the answer: its
profile mod p in degree D must have the same free columns as the first
change's.

A result is its minimal generators; the Hilbert table, stop degree and
colength are derived from them.  One rule serves a cache hit: it answers
the request (n, m, bound, and seeds_used one of the pairs the seed draws),
passes the same _validate as a fresh result, and a file is byte for byte
the document its generators define.  Anything else is a miss, recomputed
and rewritten.
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
    format_rational,
    free_columns_mod_p,
    random_invertible_matrix,
)
from .monomial import (
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


def _run_pair(
    sch: FatPointScheme,
    g1: list[list[int]],
    g2: list[list[int]],
    seeds: tuple[int, int],
    bound: int,
) -> GinResult:
    """The initial ideal of the scheme's symbolic power after the change g1,
    found from one profile mod p and proved in its generator degrees; g2 is
    the witness.  x_k is the last of the k = n+1 variables.

    1. In every degree d >= m-1 there are exactly `length` condition rows
       (below m-1 they are not the conditions, by Euler's relation), and
       their rank is the quotient Hilbert function, at most `length`.  The
       search profiles all degree-d monomials mod p, from the least such d
       with at least `length` of them, and stops at the first degree D
       where the rank is `length`.
    2. Because in(I) : x_k = in(I), the free columns at D with x_k stripped
       are in(I)'s monomials of degree at most D in x_1..x_n; and since the
       rank is `length`, the artinian Hilbert function vanishes above D, so
       every degree-(D+1) monomial in x_1..x_n lies in in(I) too.  Together
       they generate the candidate J.
    3. The witness profile of g2 at D must have the same free columns.
    4. In each degree e of a generator of J, ascending, the columns are the
       degree-e monomials that no lower-degree generator of J divides.
       Their free columns over Q, proved by linalg.certified_free_columns,
       lie in in(I), and they must be exactly J's degree-e generators.  So
       J is in in(I).  A certificate that fails fails this step.
       (Below degree m-1 the rows vanish and every column is free, x_k^e
       among them, so a generator there fails this check; in degree 0 it
       is the unit ideal, which fails the colength check below.)

    That is a proof over Q, whatever the profiles mod p did: by revlex,
    in(I + x_k) = in(I) + x_k, and R/(I + x_k) has length at least
    `length`, with equality exactly when x_k is a nonzerodivisor.  So the
    x_k-free part of in(I) has colength at least `length`.  J lies inside
    it, and once _validate has checked that J's colength is `length`, J is
    all of it, x_k is a nonzerodivisor and J = in(I).  A wrong guess, or a
    certificate that fails under g1, fails step 3, step 4 or that check and
    triggers a redraw.
    """
    n, m = sch.dim, sch.multiplicity
    k = n + 1
    z1 = transform_scheme(sch, g1).int_points
    z2 = transform_scheme(sch, g2).int_points
    length = sch.fat_point_degree()
    cap = m * (len(sch.points) + n) + k + 2
    d = m - 1
    while dimension_of_degree(k, d) < length:
        d += 1
    while True:
        mons = monomials_of_degree(k, d)
        free = free_columns_mod_p(_condition_rows(z1, k, m, mons, d), len(mons))
        if len(mons) - len(free) == length:
            break
        d += 1
        if d > cap:
            raise GenericityError(
                f"Hilbert function failed to stabilize by degree {cap}"
            )
    if free_columns_mod_p(_condition_rows(z2, k, m, mons, d), len(mons)) != free:
        raise GenericityError(f"coordinate changes disagree in degree {d}")
    candidate = MonomialIdeal(
        k,
        [mons[j][:-1] + (0,) for j in free]
        + [u + (0,) for u in monomials_of_degree(n, d + 1)],
    )
    gens = candidate.generators
    for e in sorted({sum(g) for g in gens}):
        lower = [g for g in gens if sum(g) < e]
        sub = [u for u in monomials_of_degree(k, e)
               if not any(divides(g, u) for g in lower)]
        proved = certified_free_columns(_condition_rows(z1, k, m, sub, e), len(sub))
        if proved is None or [sub[j] for j in proved] != [g for g in gens if sum(g) == e]:
            raise GenericityError(f"degree-{e} generators fail the proof over Q")
    return GinResult(n, m, candidate, seeds, bound)


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

    Finds and proves the ideal under one coordinate change and checks it
    against a second, seeded independently from `seed`: the witness is one
    pivot profile mod p in the degree D where the search stops, whose free
    columns must be the first change's (_run_pair).  Redraws on a witness
    mismatch, a failed certificate or any structural-invariant failure, up
    to max_retries pairs.  Deterministic given (scheme, seed, bound).  A
    cache hit that does not answer the request is recomputed and
    overwritten.
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

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

A star's hyperplanes make most certificates free.  Products of them that
vanish to order m at every point lie in I^(m), so in a degree e with N
monomials, N - rank_p(products) bounds the rank over Q of the conditions
A_sub on any column subset sub from above (_StarProducts, passed as the
rank bound).  The products are taken in the scheme's own coordinates,
since the bound measures only dim I_e: a change g1 maps I^(m)_e onto the
degree-e piece of the moved ideal, and each span prod h_i^a_i * R_(e-|a|)
onto that of the moved products.  The proof:
  - rank_Q(A_sub) <= rank_Q(A_full) = N - dim I_e, in any coordinates;
  - vectors independent mod p are independent over Q, so dim I_e >=
    rank_p(products), and their values at points mod p have no larger rank;
  - a product vanishes at a point p to order sum(a_i : h_i(p) = 0), and
    each incidence is checked exactly in integers.
Where that bound equals the rank mod p, no dual certificate is lifted.
Without hyperplanes (custom schemes), or when the products fall short,
the certificates run as they would.

The products also give the search its start: one below the top degree of
the minimal products.  It is a hint, never asserted: any start at or above
D finds the same ideal, and a start below D walks up to it, so it stays out
of cache keys and documents.  And the degree D+1 needs no proof.  A draw
that moves a point onto x_k = 0, checked in integers, is refused at once:
x_k is then a zero divisor on R/I, and J, free of x_k, could only fail
later (_run_pair).  Otherwise x_k is a nonzerodivisor on R/I, so H(D+1) >=
H(D) = `length` (the rank mod p reached `length` at D, and H is at most
`length`), hence (R/(I+x_k))_{D+1} = 0; since in(I+x_k) = in(I) + (x_k) in
revlex, every degree-(D+1) monomial in x_1..x_n lies in in(I) (Eisenbud,
Commutative Algebra, 15.9).

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
change's.  Both changes have integer entries in [-GIN_BOUND, GIN_BOUND],
whatever the coefficients of the input.

A result is its minimal generators; the Hilbert table, stop degree and
colength are derived from them.  A cache stores document bytes, and
_served alone decides whether they serve a request.  It refuses more
generators than an answer has, or one of degree above the scheme's length,
before deriving anything.  A refused or unreadable entry is a miss,
recomputed and rewritten; a write that fails is an error naming the entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import prod
from operator import mul

from .errors import GenericityError, StarshapeError
from .linalg import (
    MODULUS,
    certified_free_columns,
    format_rational,
    free_columns_mod_p,
    pivot_profile_mod_p,
    random_invertible_matrix,
)
from .monomial import (
    MonomialIdeal,
    dimension_of_degree,
    divides,
    monomials_of_degree,
)
from .rng import SeededRng
from .scheme import FatPointScheme, _condition_rows

CACHE_VERSION = 1
GIN_SCHEMA = "starshape.gin/1"
# The coordinate changes draw their entries from [-GIN_BOUND, GIN_BOUND]: a
# deciding minor, a nonzero polynomial of degree e in those entries, vanishes
# on a draw with probability at most e / (2 * GIN_BOUND + 1) (Schwartz-Zippel).
# Result documents and cache keys record the bound, so changing it orphans
# every cache file.  compute_gin tries at most GIN_DRAWS seed pairs.
GIN_BOUND = 1000
GIN_DRAWS = 3


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


def _minimal_exponents(through: list[list[int]], s: int, m: int) -> list[tuple[int, ...]]:
    """The minimal a in N^s with sum(a[i] for i in t) >= m for every t in
    through, ascending by degree.

    A feasible a is minimal exactly when every i with a[i] > 0 lies in some
    t whose sum is m.  The search sets a[0], a[1], ... in turn, each from
    the least value the constraints ending at it allow, and only that value
    once no constraint on it ends later.  An index u not set yet will be at
    least low[u], what the constraints whose other indices are all set
    demand.  A branch is cut when a set index j with a[j] > 0 lies in no t
    whose set entries plus those lows stay within m: no t on j can then end
    with sum m.
    """
    if not all(through):
        return []
    on = [[t for t in through if i in t] for i in range(s)]
    ends = [[t for t in through if max(t) == i] for i in range(s)]
    # feeds[i]: (u, t) for each u > i and t on u whose other indices are
    # all set by step i.
    feeds = [[(u, t) for u in range(i + 1, s) for t in on[u]
              if max((x for x in t if x != u), default=-1) <= i] for i in range(s)]
    a = [0] * s
    found = []

    def search(i):
        least = max([0] + [m - sum(a[x] for x in t) for t in ends[i]])
        last = all(max(t) == i for t in on[i])
        for a[i] in [least] if last else range(least, m + 1):
            low = a[:i + 1] + [0] * (s - i - 1)
            for u, t in feeds[i]:
                low[u] = max(low[u], m - sum(a[x] for x in t if x != u))
            if all(not a[j] or any(sum(low[x] for x in t) <= m for t in on[j])
                   for j in range(i + 1)):
                if i + 1 < s:
                    search(i + 1)
                else:
                    found.append(tuple(a))
        a[i] = 0

    search(0)
    return sorted(found, key=sum)


class _StarProducts:
    """Products of a star's hyperplanes that lie in its symbolic power, in
    the scheme's own coordinates, for proving rank bounds (_run_pair, step 4).

    A product of the h_i ** a_i vanishes at a point p to order
    sum(a_i : h_i(p) = 0), each incidence checked exactly in integers, so
    it lies in I^(m) when that sum is at least m at every point; the
    minimal such a are the candidates.  Nothing depends on whether these
    products generate I^(m): fewer only weaken the bound.
    """

    def __init__(self, sch: FatPointScheme, rng: SeededRng) -> None:
        self.sch, self.rng = sch, rng
        self.points: list[list[int]] = []

    @cached_property
    def exponents(self) -> list[tuple[int, ...]]:
        planes = self.sch.hyperplanes
        through = [[i for i, h in enumerate(planes) if not sum(map(mul, h, p))]
                   for p in self.sch.int_points]
        return _minimal_exponents(through, len(planes), self.sch.multiplicity)

    def rank(self, e: int, count: int) -> int:
        """A lower bound on dim I_e, at most count: the rank mod p of the
        degree-e products times every monomial of the remaining degree, as
        values at `count` points drawn mod p.  The values are the products'
        coefficient vectors mod p times the monomials' values, so their
        rank is at most the coefficients' rank mod p, itself at most their
        rank over Q."""
        p, k = MODULUS, self.sch.dim + 1
        while len(self.points) < count:
            self.points.append([self.rng.next_below(p) for _ in range(k)])
        qs = self.points[:count]
        plane_values = [[sum(map(mul, h, q)) % p for q in qs] for h in self.sch.hyperplanes]
        monomial_values: dict[tuple[int, ...], list[int]] = {}
        rows = []
        for a in self.exponents:
            if sum(a) > e:
                break
            product = [prod(pow(v[c], ai, p) for v, ai in zip(plane_values, a)) % p
                       for c in range(count)]
            for b in monomials_of_degree(k, e - sum(a)):
                if b not in monomial_values:
                    monomial_values[b] = [prod(map(pow, q, b)) % p for q in qs]
                rows.append(list(map(mul, product, monomial_values[b])))
        return len(pivot_profile_mod_p(rows, count)[1])


def _run_pair(
    sch: FatPointScheme,
    g1: list[list[int]],
    g2: list[list[int]],
    seeds: tuple[int, int],
) -> GinResult:
    """The initial ideal of the scheme's symbolic power after the change g1,
    found from one profile mod p and proved in its generator degrees; g2 is
    the witness.  x_k is the last of the k = n+1 variables.

    1. In every degree d >= m-1 there are exactly `length` condition rows
       (below m-1 they are not the conditions, by Euler's relation), and
       their rank is the quotient Hilbert function, at most `length`.  The
       search profiles all degree-d monomials mod p, from the least such d
       with at least `length` of them, and stops at the first degree D
       where the rank is `length`.  For a star it starts instead at the
       top degree of its minimal products minus one, when that is higher:
       then D is the first degree from there with rank `length`, and steps
       2-4 hold for it as they do for the least one.
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
       J is in in(I).  A certificate that fails fails this step.  For a
       star the proof gets N - rank_p(products) as an upper bound on the
       rank over Q, N the degree-e monomials, from the products of its
       hyperplanes (proved in the module docstring).  They are built only
       when the proof would otherwise lift dual certificates, and evaluated
       at dim J_e points, the count that lets the bound meet the rank.
       (Below degree m-1 the rows vanish and every column is free, x_k^e
       among them, so a generator there fails this check; in degree 0 it
       is the unit ideal, which fails the colength check below.)  Degree
       D+1 needs no proof: its monomials lie in in(I) by the module
       docstring's nonzerodivisor argument.

    That is a proof over Q, whatever the profiles mod p did: by revlex,
    in(I + x_k) = in(I) + x_k, and R/(I + x_k) has length at least
    `length`, with equality exactly when x_k is a nonzerodivisor.  So the
    x_k-free part of in(I) has colength at least `length`.  J lies inside
    it, and once _validate has checked that J's colength is `length`, J is
    all of it, x_k is a nonzerodivisor and J = in(I).  A wrong guess, or a
    certificate that fails under g1, fails step 3, step 4 or that check and
    triggers a redraw.  So does, before step 1, a point moved onto x_k = 0:
    x_k is then a zero divisor, the x_k-free part of in(I) has colength
    above `length`, and no J inside it could pass.
    """
    n, m = sch.dim, sch.multiplicity
    k = n + 1
    # Each point p moves to g p.  Scaling a row of g or a point is the
    # torus action, and a scale below p is a unit mod p, so neither needs
    # normalising: no profile and no ideal would change.
    z1 = [[sum(map(mul, row, p)) for row in g1] for p in sch.int_points]
    if not all(z[-1] for z in z1):
        raise GenericityError("a moved point lies on x_k = 0")
    z2 = [[sum(map(mul, row, p)) for row in g2] for p in sch.int_points]
    length = sch.fat_point_degree()
    cap = m * (len(sch.points) + n) + k + 2
    # The products' evaluation points come from a substream of the first seed.
    products = (_StarProducts(sch, SeededRng(seeds[0]).derive(1))
                if sch.hyperplanes else None)
    d = m - 1
    while dimension_of_degree(k, d) < length:
        d += 1
    if products and products.exponents:
        # A start, never asserted: one below the minimal products' top degree.
        d = max(d, sum(products.exponents[-1]) - 1)
    while True:
        mons = monomials_of_degree(k, d)
        free = free_columns_mod_p(_condition_rows(z1, m, mons), len(mons))
        if len(mons) - len(free) == length:
            break
        d += 1
        if d > cap:
            raise GenericityError(
                f"Hilbert function failed to stabilize by degree {cap}"
            )
    if free_columns_mod_p(_condition_rows(z2, m, mons), len(mons)) != free:
        raise GenericityError(f"coordinate changes disagree in degree {d}")
    candidate = MonomialIdeal(
        k,
        [mons[j][:-1] + (0,) for j in free]
        + [u + (0,) for u in monomials_of_degree(n, d + 1)],
    )
    gens = candidate.generators
    # x_k is a nonzerodivisor on R/I, so degree d+1 needs no proof.
    for e in sorted({sum(g) for g in gens if sum(g) <= d}):
        lower = [g for g in gens if sum(g) < e]
        mons = monomials_of_degree(k, e)
        sub = [u for u in mons if not any(divides(g, u) for g in lower)]
        top = [g for g in gens if sum(g) == e]

        def rank_bound():
            # At dim J_e points (the len(mons) - len(sub) multiples of lower
            # generators, and top) the bound can meet J's rank and no more.
            return len(mons) - products.rank(e, len(mons) - len(sub) + len(top))

        proved = certified_free_columns(
            _condition_rows(z1, m, sub), len(sub), rank_bound if products else None)
        if proved is None or [sub[j] for j in proved] != top:
            raise GenericityError(f"degree-{e} generators fail the proof over Q")
    return GinResult(n, m, candidate, seeds)


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


def _seed_pairs(seed: int) -> list[tuple[int, int]]:
    """The coordinate-change seed pairs compute_gin draws, in order."""
    master = SeededRng(seed)
    return [(master.next_u64(), master.next_u64()) for _ in range(GIN_DRAWS)]


def _document(res: GinResult) -> bytes:
    """The bytes a cache stores for a result: its canonical document."""
    return json.dumps(result_to_json(res), sort_keys=True).encode("utf-8")


def _served(data: bytes, sch: FatPointScheme, pairs: list) -> GinResult | None:
    """The result a cache entry's bytes define if it serves the request,
    else None (a miss).  Cheapest first: the bytes decode; the generators
    are few and low enough for an answer; the result answers the request
    (n, m, and seeds_used one of its pairs); the bytes are its canonical
    document; and it passes the same _validate as a fresh result."""
    length = sch.fat_point_degree()
    try:
        doc = json.loads(data)
        gens = doc["generators_full"]
        # An answer is artinian of colength L in n variables.  Each minimal
        # generator is x_i times a standard monomial, i its last variable,
        # so there are at most n * L of them, of degree at most L.  Others
        # are refused before minimalizing or deriving anything.
        if len(gens) > sch.dim * length or any(sum(map(int, g)) > length for g in gens):
            return None
        res = result_from_json(doc)
        if ((res.n, res.m) != (sch.dim, sch.multiplicity) or res.seeds_used not in pairs
                or _document(res) != data):
            return None
        _validate(res, sch)
    except Exception:
        # Outside input: whatever fails to decode, derive or validate is a
        # miss, so the caller recomputes and put() overwrites the entry.
        return None
    return res


def compute_gin(
    sch: FatPointScheme,
    seed: int = 0,
    cache: "GinCache | None" = None,
) -> GinResult:
    """Generic initial ideal of the scheme's symbolic power.

    Finds and proves the ideal under one coordinate change and checks it
    against a second, seeded independently from `seed`: the witness is one
    pivot profile mod p in the degree D where the search stops, whose free
    columns must be the first change's (_run_pair).  Redraws on a point
    moved onto x_k = 0, a witness mismatch, a failed certificate or any
    structural-invariant failure, up to GIN_DRAWS pairs.  Deterministic
    given (scheme, seed).  A cache entry that _served refuses is recomputed
    and overwritten.
    """
    key = cache_key(sch, seed)
    pairs = _seed_pairs(seed)
    if cache is not None and (data := cache.get(key)) is not None:
        hit = _served(data, sch, pairs)
        if hit is not None:
            return hit
    k = sch.dim + 1
    failures: list[str] = []
    for s1, s2 in pairs:
        g1 = random_invertible_matrix(SeededRng(s1), k, GIN_BOUND)
        g2 = random_invertible_matrix(SeededRng(s2), k, GIN_BOUND)
        try:
            res = _run_pair(sch, g1, g2, (s1, s2))
            _validate(res, sch)
        except GenericityError as exc:
            failures.append(str(exc))
            continue
        if cache is not None:
            cache.put(key, _document(res))
        return res
    raise GenericityError(
        "no generic coordinate change found after "
        f"{GIN_DRAWS} attempts: {failures}"
    )


# ---------------------------------------------------------------------------
# Serialization and caching.  One JSON document per result; the same schema
# is emitted by the command-line tool.


def result_to_json(res: GinResult) -> dict:
    return {
        "schema": GIN_SCHEMA,
        "n": res.n,
        "m": res.m,
        "bound": GIN_BOUND,
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
    every other field and writes GIN_BOUND as the bound.  Numbers go
    through int(), so a document holding other JSON numbers (true, 3.0) is
    not its canonical form."""
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
    )


def cache_key(sch: FatPointScheme, seed: int) -> str:
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "dim": sch.dim,
            "m": sch.multiplicity,
            "points": [[format_rational(c) for c in p] for p in sch.points],
            "seed": seed,
            "bound": GIN_BOUND,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class GinCache:
    """In-memory store of document bytes by key; compute_gin decides hits."""

    def __init__(self) -> None:
        self._store: dict[str, bytes] = {}

    def get(self, key: str) -> bytes | None:
        return self._store.get(key)

    def put(self, key: str, data: bytes) -> None:
        self._store[key] = data


class FileGinCache(GinCache):
    """Content-addressed JSON files, written atomically."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StarshapeError(f"cannot create cache directory {directory}: {exc}") from exc

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str) -> bytes | None:
        """The entry's bytes; None when it is missing or cannot be read."""
        try:
            with open(self._path(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            raise StarshapeError(f"cannot write cache entry {path}: {exc}") from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)

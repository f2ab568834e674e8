"""Finite ordered structures: graphs, posets, ultrametric and metric spaces.

All four kinds carry an explicit linear order on their universe (a
:class:`~ramseylift.orders.BaseOrder`).  Elements and exact rational
distances appear where a structure is built, in JSON and text output and
in error messages; no floating point is used anywhere.  Validation, balls,
downsets and embeddings work on ranks: a relation as a tuple of rank
bitmasks, one row per value and rank (``relation_rows``; a poset's are the
up rows its validation found), distances as integers over their common
denominator (``scaled``), balls as rank bitmasks (``ball_masks``), an
embedding as the tuple of its target ranks.  Each structure derives these
views once and caches them, and each encoder remembers its last four
structures (:func:`_memo_recent`).  A :class:`Ball` is a named tuple
``(points, radius_index)``.  Construction through the ``build``
classmethods or :func:`from_json` validates every axiom; the raw dataclass
constructors are unchecked so that tests can exercise the validators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import BudgetError, DomainError, EmbeddingError, SpectrumError, StructureError
from .errors import VerificationError
from .orders import BaseOrder, tuple_key

DEFAULT_MAX_POINTS = 343  # largest tuple space the decoders build by default (7^3 points)
_MEMO_SIZE = 4  # structures each encoder remembers; a phi/witness chain touches two


def _memo_recent(encode):
    """Decorate a one-structure encoder to return its stored result for the
    last ``_MEMO_SIZE`` structures it encoded.  Keys compare with ``is`` and
    are held strongly, so no id is reused while its entry lives; structures
    are immutable, so a stored result is what a fresh call would build."""
    recent = ()  # (structure, result) pairs, newest first; replaced whole, never mutated

    @wraps(encode)
    def encode_recent(s):
        nonlocal recent
        for key, result in recent:
            if key is s:
                return result
        result = encode(s)
        recent = ((s, result),) + recent[:_MEMO_SIZE - 1]
        return result

    return encode_recent


def parse_rational(value) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or an int into an exact rational."""
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a rational: {value!r}") from None
    raise DomainError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Canonical text form: ``"p"`` for integers, else ``"p/q"`` in lowest terms."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_count(n: int) -> str:
    """``n`` in decimal, or ``<d digits>`` past 30 digits: a refusal may
    name a number too long for Python to convert to text."""
    if n < 10**30:
        return str(n)
    digits = (n.bit_length() - 1) * 301029995 // 10**9  # log10(2) rounded down
    while n >= 10**digits:
        digits += 1
    return f"<{digits} digits>"


def checked_spectrum(values) -> tuple[Fraction, ...]:
    """Parse a distance spectrum, which must be nonempty, start at 0 and strictly increase."""
    vals = tuple(parse_rational(v) for v in values)
    if not vals:
        raise SpectrumError("spectrum must be nonempty")
    if vals[0] != 0:
        raise SpectrumError("spectrum must start at 0")
    if any(not a < b for a, b in zip(vals, vals[1:])):
        raise SpectrumError("spectrum must be strictly increasing")
    return vals


# ---------------------------------------------------------------------------
# structure kinds


@dataclass(frozen=True)
class LinOrderedGraph:
    order: BaseOrder
    edges: frozenset[frozenset]

    kind = "graph"
    relation_values = (False, True)  # whether ranks r and s are adjacent

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable[Iterable]) -> "LinOrderedGraph":
        order = BaseOrder(vertices)
        g = cls(order, frozenset(frozenset(e) for e in edges))
        validate_structure(g)
        return g

    @property
    def universe(self) -> tuple:
        return self.order.elements

    @cached_property
    def relation_rows(self) -> tuple[int, ...]:
        """See :func:`embedding_ranks`."""
        rank, rows = self.order.rank_map, [0] * len(self.order)
        for x, y in self.edges:
            rows[rank[x]] |= 1 << rank[y]
            rows[rank[y]] |= 1 << rank[x]
        full = (1 << len(rows)) - 1
        return tuple([full ^ row for row in rows] + rows)


@dataclass(frozen=True)
class LinOrderedPoset:
    order: BaseOrder
    leq: frozenset[tuple]  # all pairs (a, b) with a below-or-equal b, reflexive pairs included

    kind = "poset"
    relation_values = (False, True)  # whether r <= s

    @classmethod
    def build(cls, vertices: Iterable, strict_pairs: Iterable[tuple]) -> "LinOrderedPoset":
        order = BaseOrder(vertices)
        pairs = set((a, b) for a, b in strict_pairs)
        pairs.update((v, v) for v in order.elements)
        p = cls(order, frozenset(pairs))
        validate_structure(p)
        return p

    @property
    def universe(self) -> tuple:
        return self.order.elements

    def below(self, a, b) -> bool:
        return (a, b) in self.leq

    def strict_pairs(self) -> list[tuple]:
        return [(a, b) for (a, b) in self.leq if a != b]

    @cached_property
    def relation_rows(self) -> tuple[int, ...]:
        """See :func:`embedding_ranks`; rank s is related to r when r <= s.
        Computing them validates the poset (see :func:`_validate_poset`)."""
        up, full = _validate_poset(self), (1 << len(self.universe)) - 1
        return tuple([full ^ row for row in up] + up)


def _dist_matrix(order: BaseOrder, dist: Mapping) -> tuple[tuple[Fraction, ...], ...]:
    n = len(order)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), value in dist.items():
        ra, rb = order.rank(a), order.rank(b)
        mat[ra][rb] = value
        mat[rb][ra] = value
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class _Space:
    """A finite space with exact distances on a linearly ordered universe:
    the distance matrix in rank order and a spectrum covering it.  The two
    metric kinds differ only in ``kind`` (and the ultrametric's balls), so
    the generated ``__eq__`` tells a space of one kind from the other."""

    order: BaseOrder
    dmatrix: tuple[tuple[Fraction, ...], ...]
    spectrum: tuple[Fraction, ...]

    relation_values = property(lambda self: self.spectrum)

    @classmethod
    def build(cls, points, dist, spectrum=None):
        order = BaseOrder(points)
        dist = {tuple(k): parse_rational(v) for k, v in dict(dist).items()}
        matrix = _dist_matrix(order, dist)
        if spectrum is None:
            spect = tuple(sorted({Fraction(0), *(v for row in matrix for v in row)}))
        else:
            spect = tuple(parse_rational(v) for v in spectrum)
        space = cls(order, matrix, spect)
        validate_structure(space)
        return space

    def d(self, x, y) -> Fraction:
        return self.dmatrix[self.order.rank(x)][self.order.rank(y)]

    @property
    def universe(self) -> tuple:
        return self.order.elements

    def attained(self) -> frozenset[Fraction]:
        """All distances attained, read off the diagonal (0 for a nonempty
        space) and the upper triangle of the matrix."""
        return frozenset(v for r, row in enumerate(self.dmatrix) for v in row[r:])

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The distance matrix and the spectrum as integers over their common
        denominator.  Comparisons, sums and differences of these are exact and
        ordered like the rationals they stand for."""
        den = math.lcm(*{v.denominator for row in self.dmatrix for v in row},
                       *(v.denominator for v in self.spectrum))
        return (tuple(tuple([v.numerator * (den // v.denominator) for v in row])
                      for row in self.dmatrix),
                tuple([v.numerator * (den // v.denominator) for v in self.spectrum]))

    @cached_property
    def relation_rows(self) -> tuple[int, ...]:
        """See :func:`embedding_ranks`; distances compare as integers over
        the common denominator."""
        dist, spect = self.scaled
        return tuple([sum(1 << z for z, d in enumerate(row) if d == v)
                      for v in spect for row in dist])


def _members(elems: tuple, mask: int) -> frozenset:
    return frozenset(x for r, x in enumerate(elems) if mask >> r & 1)


class ConvUltrametricSpace(_Space):
    kind = "ultrametric"

    @cached_property
    def ball_masks(self) -> tuple[tuple[int, ...], ...]:
        """``ball_masks[i][r]``: the ranks within distance ``spectrum[i]`` of rank r."""
        dist, spect = self.scaled
        return tuple(tuple(sum(1 << z for z, v in enumerate(row) if v <= radius) for row in dist)
                     for radius in spect)


class LinOrderedMetricSpace(_Space):
    kind = "metric"


# ---------------------------------------------------------------------------
# validation


def _validate_metric_axioms(space, strong: bool) -> None:
    pts = space.universe
    dist, _ = space.scaled
    for r, x in enumerate(pts):
        if dist[r][r] != 0:
            raise StructureError(f"d({x!r},{x!r}) must be 0")
    for (r, x), (q, y) in itertools.combinations(enumerate(pts), 2):
        if dist[r][q] <= 0:
            raise StructureError(f"d({x!r},{y!r}) must be positive for distinct points")
    what = "strong triangle inequality" if strong else "triangle inequality"
    for r, q, z in itertools.permutations(range(len(pts)), 3):
        a, b, c = dist[r][q], dist[q][z], dist[r][z]
        if (c > a and c > b) if strong else c > a + b:
            raise StructureError(f"{what} fails on ({pts[r]!r},{pts[q]!r},{pts[z]!r})")
    if not space.attained() <= set(space.spectrum):
        extra = sorted(space.attained() - set(space.spectrum))
        raise StructureError(
            f"attained distances {[format_rational(v) for v in extra]} missing from spectrum"
        )


def _validate_convexity(space: ConvUltrametricSpace) -> None:
    masks = space.ball_masks
    for r, x in enumerate(space.universe):
        for i, radius in enumerate(space.spectrum):
            run = masks[i][r] // (masks[i][r] & -masks[i][r])
            if run & (run + 1):
                raise StructureError(
                    f"ball around {x!r} of radius {format_rational(radius)} is not an interval"
                )


def _ranked_pairs(p: LinOrderedPoset) -> list[tuple[int, int]]:
    """The relation as pairs of ranks, in the iteration order of ``leq``."""
    rank = p.order.rank_map
    try:
        return [(rank[a], rank[b]) for a, b in p.leq]
    except KeyError:
        a, b = next((a, b) for a, b in p.leq if a not in rank or b not in rank)
        raise StructureError(f"relation pair ({a!r},{b!r}) uses undeclared elements") from None


def _validate_poset(s: LinOrderedPoset) -> list[int]:
    """The up rows ``up[r]``, the ranks above rank r, once every axiom holds."""
    elems = s.universe
    pairs = _ranked_pairs(s)
    up = [0] * len(elems)  # up[r]: the ranks above rank r
    for ra, rb in pairs:
        up[ra] |= 1 << rb
    for r, a in enumerate(elems):
        if not up[r] >> r & 1:
            raise StructureError(f"relation not reflexive at {a!r}")
    for ra, rb in pairs:
        if ra != rb and up[rb] >> ra & 1:
            raise StructureError(f"relation not antisymmetric on ({elems[ra]!r},{elems[rb]!r})")
    for ra, rb in pairs:
        missing = up[rb] & ~up[ra]
        if missing:
            a, b, c = elems[ra], elems[rb], elems[(missing & -missing).bit_length() - 1]
            raise StructureError(f"relation not transitive via ({a!r},{b!r},{c!r})")
    for ra, rb in pairs:
        if ra > rb:
            a, b = elems[ra], elems[rb]
            raise StructureError(f"linear order does not extend the partial order on ({a!r},{b!r})")
    return up


def validate_structure(s) -> dict:
    """Check every axiom of the structure's kind.

    Raises :class:`StructureError` naming the violated axiom and a witness.
    Returns a small report; for the metric kinds it includes the attained
    spectrum.
    """
    kind = getattr(s, "kind", None)
    if kind == "graph":
        for e in s.edges:
            if len(e) != 2:
                raise StructureError(f"edge {set(e)!r} must have exactly 2 vertices")
            for v in e:
                if v not in s.order:
                    raise StructureError(f"edge vertex {v!r} not declared")
        return {"kind": kind, "size": len(s.order), "edges": len(s.edges)}
    if kind == "poset":
        s.relation_rows  # computing the rows validates the poset
        return {"kind": kind, "size": len(s.order), "relation_pairs": len(s.leq)}
    if kind in ("ultrametric", "metric"):
        try:
            checked_spectrum(s.spectrum)
        except SpectrumError as exc:
            raise StructureError(str(exc)) from None
        _validate_metric_axioms(s, strong=(kind == "ultrametric"))
        if kind == "ultrametric":
            _validate_convexity(s)
        return {
            "kind": kind,
            "size": len(s.order),
            "spectrum": [format_rational(v) for v in s.spectrum],
            "attained": [format_rational(v) for v in sorted(s.attained())],
        }
    raise StructureError(f"unknown structure kind: {kind!r}")


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class Embedding:
    """An injective map between same-kind structures that preserves and
    reflects all relations, held as the target rank of each source element
    in source order; build through :func:`check_embedding`."""

    source: object
    target: object
    ranks: tuple[int, ...]

    mapping = property(lambda self: tuple(zip(self.source.universe, self.image())))
    as_dict = property(lambda self: dict(self.mapping))

    def __call__(self, x):
        return self.target.universe[self.ranks[self.source.order.rank_map[x]]]

    def image(self) -> tuple:
        return tuple(map(self.target.universe.__getitem__, self.ranks))


def compose_embeddings(g: Embedding, f: Embedding) -> Embedding:
    """The composite ``g after f``; embeddings compose to embeddings."""
    if f.target != g.source:
        raise DomainError("embedding composition: inner target differs from outer source")
    return Embedding(f.source, g.target, tuple([g.ranks[r] for r in f.ranks]))


def identity_embedding(s) -> Embedding:
    return Embedding(s, s, tuple(range(len(s.universe))))


def _pair_offsets(source, target) -> list[list[int | None]]:
    """``offsets[i][p]``, for each pair of source ranks p < i: the offset in
    ``target.relation_rows`` of the rows for the value that p bears to i
    (see :func:`embedding_ranks`), or None when the target lacks that value."""
    k, n, values = len(source.universe), len(target.universe), target.relation_values
    at = [values.index(x) * n if x in values else None for x in source.relation_values]
    offsets = [[None] * i for i in range(k)]
    for row, later in enumerate(source.relation_rows):
        v, p = divmod(row, k)
        later >>= p + 1  # the ranks i > p to which p bears value v
        while later:
            low = later & -later
            offsets[p + low.bit_length()][p] = at[v]
            later ^= low
    return offsets


def check_embedding(f, source, target) -> Embedding:
    """Validate a candidate map as an embedding of ``source`` into ``target``.

    Checks injectivity, strict preservation of the linear order, and the
    relation in both directions: each pair of source elements must bear the
    same value (see :func:`embedding_ranks`) as its image pair.  Errors name
    the violated clause with a witness pair.
    """
    if source.kind != target.kind:
        raise EmbeddingError(f"kind mismatch: {source.kind} into {target.kind}")
    m = dict(f)
    for v in source.universe:
        if v not in m:
            raise EmbeddingError(f"map does not cover source element {v!r}")
    for v in m:
        if v not in source.order:
            raise EmbeddingError(f"map defined on non-element {v!r}")
        if m[v] not in target.order:
            raise EmbeddingError(f"image {m[v]!r} of {v!r} not in target")
    images = [m[v] for v in source.universe]
    if len(set(images)) != len(images):
        raise EmbeddingError("map is not injective")
    uni = source.universe
    ranks = tuple([target.order.rank(y) for y in images])
    for (i, a), (j, b) in itertools.combinations(enumerate(uni), 2):  # a < b in source order
        if not ranks[i] < ranks[j]:
            raise EmbeddingError(f"linear order not preserved on ({a!r},{b!r})")
    offsets, target_rows = _pair_offsets(source, target), target.relation_rows
    for p, i in itertools.combinations(range(len(uni)), 2):
        offset = offsets[i][p]
        if offset is not None and target_rows[offset + ranks[p]] >> ranks[i] & 1:
            continue
        if source.kind in ("ultrametric", "metric"):
            here, there = source.dmatrix[p][i], target.dmatrix[ranks[p]][ranks[i]]
            raise EmbeddingError(f"distance not preserved on ({uni[p]!r},{uni[i]!r}): "
                                 f"{format_rational(here)} vs {format_rational(there)}")
        clause = "preserved" if source.relation_rows[len(uni) + p] >> i & 1 else "reflected"
        relation = "adjacency" if source.kind == "graph" else "partial order"
        raise EmbeddingError(f"{relation} not {clause} on ({uni[p]!r},{uni[i]!r})")
    return Embedding(source, target, ranks)


def embedding_ranks(source, target) -> Iterator[tuple[int, ...]]:
    """Yield every embedding of ``source`` into ``target`` exactly once, as
    the tuple of target ranks of the source elements.

    A structure of n elements holds its relation in ``relation_rows``, a
    tuple of n-bit rows: bit s of row v * n + r is set when rank s bears
    ``relation_values[v]`` (adjacency, order, or a distance) to rank r.
    Images strictly increase, so the tuples come out in lexicographic
    order; element i may go to rank j when j is in the target row, at the
    image of each earlier element p, of the value p bears to i.  The walk
    keeps a stack of candidate masks, so no recursion limit bounds k.
    """
    if source.kind != target.kind:
        raise EmbeddingError(f"kind mismatch: {source.kind} into {target.kind}")
    k, n = len(source.universe), len(target.universe)
    if k > n:
        return
    needs, rows = _pair_offsets(source, target), target.relation_rows
    if any(None in row for row in needs):
        return
    chosen, pending, i = [0] * k, [], 0  # pending[i]: the ranks element i has yet to try
    while True:
        if i == k:
            yield tuple(chosen)
        else:
            cand = (1 << (n - k + i + 1)) - (1 << (chosen[i - 1] + 1 if i else 0))
            for p, offset in enumerate(needs[i]):
                cand &= rows[offset + chosen[p]]
            pending.append(cand)
        while pending and not pending[-1]:
            pending.pop()
        if not pending:
            return
        i = len(pending) - 1
        low = pending[i] & -pending[i]
        pending[i] ^= low
        chosen[i] = low.bit_length() - 1
        i += 1


def enumerate_embeddings(source, target) -> Iterator[Embedding]:
    """Yield all embeddings of ``source`` into ``target`` exactly once,
    sorted lexicographically by image tuple (see :func:`embedding_ranks`)."""
    for ranks in embedding_ranks(source, target):
        yield Embedding(source, target, ranks)


def induced_substructure(s, subset: Iterable):
    """The substructure induced on a subset, keeping the inherited order."""
    keep = set(subset)
    for v in keep:
        if v not in s.order:
            raise DomainError(f"element {v!r} not in structure")
    vertices = [v for v in s.universe if v in keep]
    if s.kind == "graph":
        return LinOrderedGraph.build(vertices, [e for e in s.edges if e <= keep])
    if s.kind == "poset":
        return LinOrderedPoset.build(
            vertices, [(a, b) for (a, b) in s.strict_pairs() if a in keep and b in keep]
        )
    dist = {
        (a, b): s.d(a, b) for a, b in itertools.combinations(vertices, 2)
    }
    return type(s).build(vertices, dist, s.spectrum)


# ---------------------------------------------------------------------------
# downsets and balls


def downsets(p: LinOrderedPoset) -> tuple[frozenset, ...]:
    """All nonempty downsets of the poset, strictly increasing under the
    anti-lexicographic subset order of the poset's linear order.

    As rank bitmasks, anti-lexicographic order is integer order.  A downset
    minus its top element is again a downset, since the linear order extends
    the relation, so the downsets grow one rank at a time."""
    down = [0] * len(p.universe)  # down[r]: the ranks below rank r
    for ra, rb in _ranked_pairs(p):
        down[rb] |= 1 << ra
    found = [0]
    for r, below in enumerate(down):
        bit = 1 << r
        found += [d | bit for d in found if not below & ~(d | bit)]
    return tuple(_members(p.universe, d) for d in sorted(found[1:]))


class Ball(NamedTuple):
    """A ball of an ultrametric space, identified by the pair
    (point set, nominal radius index into the spectrum).

    The same point set can arise at two radii; keeping the index makes
    the componentwise partial order on balls antisymmetric.  As a named
    tuple a ball hashes and compares in C; it equals the plain tuple
    ``(points, radius_index)`` and orders like one.
    """

    points: frozenset
    radius_index: int

    def leq(self, other: "Ball") -> bool:
        return self.points <= other.points and self.radius_index <= other.radius_index


def _distinct_balls(masks: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """The distinct (radius index, rank mask) pairs, by radius index then
    lowest rank."""
    return [(i, m) for i, row in enumerate(masks)
            for m in sorted(set(row), key=lambda m: (m & -m, m))]


def balls(space: ConvUltrametricSpace) -> tuple[Ball, ...]:
    """All balls of the space as (point set, radius index) pairs,
    deduplicated on the pair and sorted by radius index then minimum point."""
    return tuple(Ball(_members(space.universe, m), i)
                 for i, m in _distinct_balls(space.ball_masks))


def check_tuple_space(poset: LinOrderedPoset, k: int, max_points: int) -> None:
    """Refuse a tuple space of more than ``max_points`` k-tuples over the poset."""
    total = len(poset.universe) ** k
    if total > max_points:
        raise BudgetError(f"full tuple space has {format_count(total)} points, "
                          f"above the bound {max_points}")


def _tuple_points(poset: LinOrderedPoset, k: int, max_points: int, kind: str) -> list:
    """All |A|^k k-tuples over the poset, sorted under the tuple order
    ``kind``.  Refuses more than ``max_points`` points."""
    check_tuple_space(poset, k, max_points)
    return sorted(itertools.product(poset.universe, repeat=k),
                  key=lambda t: tuple_key(poset.order, kind, t))


def _check_tuple_images(space, poset: LinOrderedPoset, images: dict, kind: str, dist) -> None:
    """Raise unless the tuple images keep every distance, measured by
    ``dist`` on two images, and strictly increase under the tuple order ``kind``."""
    key = {x: tuple_key(poset.order, kind, t) for x, t in images.items()}
    for x, y in itertools.combinations(space.universe, 2):
        expected = space.d(x, y)
        got = dist(images[x], images[y])
        if got != expected:
            raise VerificationError(
                f"distance of images of {x!r},{y!r} is {got}, expected {expected}"
            )
        if not key[x] < key[y]:
            raise VerificationError(f"images of {x!r},{y!r} are not {kind}-increasing")


# ---------------------------------------------------------------------------
# JSON round trip


def to_json(s) -> dict:
    """Canonical JSON form; round-trips bit-exactly through :func:`from_json`."""
    out = {"kind": s.kind, "universe": list(s.universe)}
    rank = s.order.rank
    if s.kind == "graph":
        out["edges"] = sorted(
            (sorted(e, key=rank) for e in s.edges), key=lambda e: (rank(e[0]), rank(e[1]))
        )
    elif s.kind == "poset":
        out["leq"] = sorted(
            ([a, b] for (a, b) in s.strict_pairs()), key=lambda p: (rank(p[0]), rank(p[1]))
        )
    else:
        out["dist"] = [
            [a, b, format_rational(s.d(a, b))]
            for a, b in itertools.combinations(s.universe, 2)
        ]
        out["spectrum"] = [format_rational(v) for v in s.spectrum]
    return out


def _json_elements(value, field: str, size: int | None = None) -> tuple:
    """A JSON list of structure elements (hashable scalars), of ``size`` items when given."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        shape = "a list" if size is None else f"a list of {size} items"
        raise DomainError(f"structure field {field!r}: {value!r} must be {shape}")
    for x in value:
        if not isinstance(x, Hashable):
            raise DomainError(
                f"structure field {field!r}: element {x!r} must be a string or number")
    return tuple(value)


def _json_entries(data: Mapping, field: str, size: int | None = None) -> list[tuple]:
    """A list-valued field whose entries are lists of elements."""
    entries = data.get(field, [])
    if not isinstance(entries, list):
        raise DomainError(f"structure field {field!r} must be a list")
    return [_json_elements(entry, field, size) for entry in entries]


def from_json(data: Mapping):
    """Build and validate a structure from its JSON form.

    Malformed JSON (wrong types, entries of the wrong length, unhashable
    elements) raises a :class:`DomainError` that names the field.
    """
    if not isinstance(data, Mapping):
        raise DomainError("structure JSON must be an object")
    try:
        kind = data["kind"]
        universe = _json_elements(data["universe"], "universe")
    except KeyError as exc:
        raise DomainError(f"structure JSON missing field: {exc}") from None
    if kind == "graph":
        return LinOrderedGraph.build(universe, _json_entries(data, "edges"))
    if kind == "poset":
        return LinOrderedPoset.build(universe, _json_entries(data, "leq", 2))
    if kind in ("ultrametric", "metric"):
        dist = {(a, b): parse_rational(v) for a, b, v in _json_entries(data, "dist", 3)}
        spectrum = data.get("spectrum")
        if spectrum is not None:
            spectrum = _json_elements(spectrum, "spectrum")
        cls = ConvUltrametricSpace if kind == "ultrametric" else LinOrderedMetricSpace
        return cls.build(universe, dist, spectrum)
    raise DomainError(f"unknown structure kind {kind!r}")

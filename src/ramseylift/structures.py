"""Finite ordered structures: graphs, posets, ultrametric and metric spaces.

All four kinds carry an explicit linear order on their universe (a
:class:`~ramseylift.orders.BaseOrder`).  Elements and exact rational
distances appear where a structure is built, in JSON and text output and
in error messages; no floating point is used anywhere.  Validation, balls,
downsets and embeddings work on ranks: graphs and posets share one row
class, whose ``rows[r]`` has bit s set when rank r is adjacent to rank s
(graph) or below-or-equal rank s (poset), and from which ``strict_pairs``
(and a poset's ``leq`` and ``below``) are read; every relation is a tuple
of rank bitmasks, one row per value and rank (``relation_rows``);
distances are integers over their common denominator (``scaled``), balls
rank bitmasks (``ball_masks``), an embedding the tuple of its target
ranks.  Each structure derives these views once and caches them, and each
encoder remembers its last four structures (:func:`_memo_recent`).  A
:class:`Ball` is a named tuple ``(points, radius_index)``, and an
:class:`Embedding` is a named tuple that, like a ball, equals the plain
tuple ``(source, target, ranks)``.

Construction through the ``build`` classmethods, ``from_rows`` or
:func:`from_json` validates every axiom; the raw dataclass constructors
are unchecked so that tests can exercise the validators.  Validation walks
ranks (and ``build`` a graph's edges) in a fixed order, so the witness an
error names does not depend on hashing.  On spaces of twelve points or
more the (strong) triangle inequality is first checked on threshold masks,
in O(N^2) mask operations per attained distance; the plain O(N^3) loop
runs on smaller spaces and, to name the witness, when that check fails.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, wraps
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import BudgetError, DomainError, EmbeddingError, SpectrumError, StructureError
from .errors import VerificationError
from .orders import BaseOrder

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
class _Relation:
    """A finite structure with one binary relation on a linearly ordered
    universe, held as rank rows: bit s of ``rows[r]`` is set when rank r is
    adjacent to rank s (graph) or below-or-equal to it (poset).  The two
    kinds differ only in ``kind``, ``build`` and their axioms, so the
    generated ``__eq__`` tells a graph from a poset."""

    order: BaseOrder
    rows: tuple[int, ...]

    relation_values = (False, True)  # whether rank r bears the relation to rank s

    @classmethod
    def from_rows(cls, vertices: Iterable, rows: Iterable[int]):
        """The structure whose rank r bears the relation to rank s when bit
        s of ``rows[r]`` is set, validated."""
        s = cls(BaseOrder(vertices), tuple(rows))
        check_structure(s)
        return s

    @property
    def universe(self) -> tuple:
        return self.order.elements

    def strict_pairs(self) -> list[tuple]:
        """The related pairs (a, b) with a before b, in rank order: a graph's
        edges, or a poset's pairs with a strictly below b."""
        elems = self.universe
        return [(elems[r], elems[s]) for r, row in enumerate(self.rows)
                for s in _bits(row >> r + 1 << r + 1)]

    @cached_property
    def relation_rows(self) -> tuple[int, ...]:
        """See :func:`embedding_ranks`: the complements, then the rows."""
        full = (1 << len(self.rows)) - 1
        return tuple([full ^ row for row in self.rows]) + self.rows


class LinOrderedGraph(_Relation):
    kind = "graph"

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable[Iterable]) -> "LinOrderedGraph":
        """Validated: rows filled from two-vertex edges are symmetric and loop-free."""
        order = BaseOrder(vertices)
        return cls(order, _validate_edges(order.rank_map, edges))


class LinOrderedPoset(_Relation):
    kind = "poset"

    @classmethod
    def build(cls, vertices: Iterable, strict_pairs: Iterable[tuple]) -> "LinOrderedPoset":
        order = BaseOrder(vertices)
        rank, up = order.rank_map, [1 << r for r in range(len(order))]
        for a, b in strict_pairs:
            try:
                up[rank[a]] |= 1 << rank[b]
            except KeyError:
                raise StructureError(
                    f"relation pair ({a!r},{b!r}) uses undeclared elements") from None
        return cls.from_rows(order.elements, up)

    @property
    def leq(self) -> frozenset[tuple]:
        """All pairs (a, b) with a below-or-equal b, reflexive pairs included."""
        elems = self.universe
        return frozenset((elems[r], elems[s])
                         for r, row in enumerate(self.rows) for s in _bits(row))

    def below(self, a, b) -> bool:
        rank = self.order.rank_map
        return a in rank and b in rank and bool(self.rows[rank[a]] >> rank[b] & 1)


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
        check_structure(space)
        return space

    def d(self, x, y) -> Fraction:
        return self.dmatrix[self.order.rank(x)][self.order.rank(y)]

    @property
    def universe(self) -> tuple:
        return self.order.elements

    def attained(self) -> frozenset[Fraction]:
        """All distances attained, read off the diagonal (0 for a nonempty
        space) and the upper triangle of the matrix; told apart by their
        scaled integers, so each ``Fraction`` is hashed once."""
        by_int = {v: q for r, (ints, row) in enumerate(zip(self.scaled[0], self.dmatrix))
                  for v, q in zip(ints[r:], row[r:])}
        return frozenset(by_int.values())

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
    return frozenset([x for r, x in enumerate(elems) if mask >> r & 1])


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _triangles_hold(dist, strong: bool) -> bool:
    """Whether no (strong) triangle inequality fails, on a matrix with a zero
    diagonal; True is exact, False may also mean that the quick test does
    not apply (a few points, or an asymmetric matrix).  For an ultrametric
    each relation d <= t over the attained t must be an equivalence, so its
    rows partition the ranks.  For a metric, whenever d(q, z) <= b the
    distance d(r, z) must be at most d(r, q) + b: z must be in the row of r
    at the largest attained value not above that sum."""
    n = len(dist)
    if n < 12 or dist != tuple(zip(*dist)):
        return False  # the plain loop is as quick on a few points
    values = sorted({v for row in dist for v in row})
    rows = [[sum(1 << z for z, v in enumerate(row) if v <= t) for row in dist] for t in values]
    if strong:
        return all(sum(row.bit_count() for row in set(level)) == n for level in rows)
    reach = {a: [bisect.bisect_right(values, a + b) - 1 for b in values] for a in values}
    for r, row in enumerate(dist):
        for q, a in enumerate(row):
            for level, t in zip(rows, reach[a]):
                if level[q] & ~rows[t][r]:
                    return False
    return True


def _validate_metric_axioms(space, strong: bool) -> None:
    pts = space.universe
    dist, spect = space.scaled
    for r, x in enumerate(pts):
        if dist[r][r] != 0:
            raise StructureError(f"d({x!r},{x!r}) must be 0")
    for (r, x), (q, y) in itertools.combinations(enumerate(pts), 2):
        if dist[r][q] <= 0:
            raise StructureError(f"d({x!r},{y!r}) must be positive for distinct points")
    what = "strong triangle inequality" if strong else "triangle inequality"
    if not _triangles_hold(dist, strong):
        for r, q, z in itertools.permutations(range(len(pts)), 3):
            a, b, c = dist[r][q], dist[q][z], dist[r][z]
            if (c > a and c > b) if strong else c > a + b:
                raise StructureError(f"{what} fails on ({pts[r]!r},{pts[q]!r},{pts[z]!r})")
    if not {v for r, row in enumerate(dist) for v in row[r:]} <= set(spect):
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


def _validate_up_rows(p: LinOrderedPoset) -> None:
    """Check the axioms on the up rows, clause by clause, each in rank order."""
    elems, up = p.universe, p.rows
    for r, row in enumerate(up):
        if not row >> r & 1:
            raise StructureError(f"relation not reflexive at {elems[r]!r}")
    extends = not any(row & ((1 << r) - 1) for r, row in enumerate(up))
    for r, row in enumerate(() if extends else up):  # a linear extension is antisymmetric
        for s in _bits(row & ~(1 << r)):
            if up[s] >> r & 1:
                raise StructureError(f"relation not antisymmetric on ({elems[r]!r},{elems[s]!r})")
    for r, row in enumerate(up):
        for s in _bits(row):
            missing = up[s] & ~row
            if missing:
                c = elems[(missing & -missing).bit_length() - 1]
                raise StructureError(
                    f"relation not transitive via ({elems[r]!r},{elems[s]!r},{c!r})")
    for r, row in enumerate(() if extends else up):
        earlier = row & ((1 << r) - 1)
        if earlier:
            b = elems[(earlier & -earlier).bit_length() - 1]
            raise StructureError(
                f"linear order does not extend the partial order on ({elems[r]!r},{b!r})")


def _validate_adjacency(g: LinOrderedGraph) -> None:
    """No vertex is adjacent to itself and adjacency is symmetric; the first
    witness in rank order is named."""
    elems, rows = g.universe, g.rows
    cols = [0] * len(rows)  # cols[s]: the ranks whose rows hold s
    for r, row in enumerate(rows):
        if row >> r & 1:
            raise StructureError(f"vertex {elems[r]!r} adjacent to itself")
        for s in _bits(row):
            cols[s] |= 1 << r
    for r, (row, col) in enumerate(zip(rows, cols)):
        if row != col:  # the lowest differing rank lies above r, else an earlier r differs
            s = ((row ^ col) & -(row ^ col)).bit_length() - 1
            raise StructureError(f"adjacency not symmetric on ({elems[r]!r},{elems[s]!r})")


def _validate_edges(rank: Mapping, edges: Iterable[Iterable]) -> tuple[int, ...]:
    """The symmetric adjacency rows of an edge list whose every edge has
    exactly two declared vertices.  The first bad edge is named, in rank
    order; undeclared vertices come after the declared ones, by their text."""
    rows, bad = [0] * len(rank), []
    for e in map(frozenset, edges):
        if len(e) == 2 and rank.keys() >= e:
            r, s = map(rank.__getitem__, e)
            rows[r] |= 1 << s
            rows[s] |= 1 << r
        else:
            bad.append(e)

    def key(v):
        return rank.get(v, len(rank)), repr(v)

    for e in sorted((sorted(e, key=key) for e in bad), key=lambda e: list(map(key, e))):
        if len(e) != 2:
            text = "{" + ", ".join(map(repr, e)) + "}" if e else "set()"
            raise StructureError(f"edge {text} must have exactly 2 vertices")
        for v in e:
            if v not in rank:
                raise StructureError(f"edge vertex {v!r} not declared")
    return tuple(rows)


def check_structure(s) -> None:
    """Check every axiom of the structure's kind.

    Raises :class:`StructureError` naming the violated axiom and a witness;
    the clauses run in rank order, so the witness does not depend on hashing.
    """
    kind = getattr(s, "kind", None)
    if kind in ("graph", "poset"):
        n = len(s.order)
        if len(s.rows) != n or any(row >> n for row in s.rows):
            raise StructureError(f"relation rows must be {n} masks of {n} bits")
        (_validate_adjacency if kind == "graph" else _validate_up_rows)(s)
    elif kind in ("ultrametric", "metric"):
        try:
            checked_spectrum(s.spectrum)
        except SpectrumError as exc:
            raise StructureError(str(exc)) from None
        _validate_metric_axioms(s, strong=(kind == "ultrametric"))
        if kind == "ultrametric":
            _validate_convexity(s)
    else:
        raise StructureError(f"unknown structure kind: {kind!r}")


def validate_structure(s) -> dict:
    """:func:`check_structure`, then a small report; for the metric kinds
    it includes the attained spectrum."""
    check_structure(s)
    report = {"kind": s.kind, "size": len(s.order)}
    if s.kind == "graph":
        report["edges"] = sum(row.bit_count() for row in s.rows) // 2
    elif s.kind == "poset":
        report["relation_pairs"] = sum(row.bit_count() for row in s.rows)
    else:
        report["spectrum"] = [format_rational(v) for v in s.spectrum]
        report["attained"] = [format_rational(v) for v in sorted(s.attained())]
    return report


# ---------------------------------------------------------------------------
# embeddings


class Embedding(NamedTuple):
    """An injective map between same-kind structures that preserves and
    reflects all relations, held as the target rank of each source element
    in source order; build through :func:`check_embedding`.  As a named
    tuple it is made by one ``__new__`` call, with no dataclass
    ``__init__``, hashes and compares in C, and equals the plain tuple
    ``(source, target, ranks)``."""

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
    ranks = tuple([target.order.rank(m[v]) for v in source.universe])
    return _rank_embedding(source, target, ranks)


def _rank_embedding(source, target, ranks: tuple[int, ...]) -> Embedding:
    """The clauses of :func:`check_embedding` that follow from the target
    ranks of the source elements: injectivity, order and relations."""
    if len(set(ranks)) != len(ranks):
        raise EmbeddingError("map is not injective")
    uni = source.universe
    if any(not a < b for a, b in zip(ranks, ranks[1:])):
        p, i = next((p, i) for p, i in itertools.combinations(range(len(uni)), 2)
                    if not ranks[p] < ranks[i])
        raise EmbeddingError(f"linear order not preserved on ({uni[p]!r},{uni[i]!r})")
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
    keeps a stack of candidate masks for all but the last element, so no
    recursion limit bounds k; the last element's candidates are yielded
    straight from their mask.
    """
    if source.kind != target.kind:
        raise EmbeddingError(f"kind mismatch: {source.kind} into {target.kind}")
    k, n = len(source.universe), len(target.universe)
    if k > n:
        return
    needs, rows = _pair_offsets(source, target), target.relation_rows
    if any(None in row for row in needs):
        return
    if k == 0:
        yield ()
        return
    last = k - 1
    chosen, pending, i = [0] * k, [], 0  # pending[i]: the ranks element i has yet to try
    while True:
        cand = (1 << (n - k + i + 1)) - (1 << (chosen[i - 1] + 1 if i else 0))
        for p, offset in enumerate(needs[i]):
            cand &= rows[offset + chosen[p]]
        if i == last:
            head = chosen[:last]
            while cand:
                low = cand & -cand
                yield (*head, low.bit_length() - 1)
                cand ^= low
        else:
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
    return map(partial(Embedding, source, target), embedding_ranks(source, target))


def induced_substructure(s, subset: Iterable):
    """The substructure induced on a subset, keeping the inherited order."""
    keep = set(subset)
    for v in keep:
        if v not in s.order:
            raise DomainError(f"element {v!r} not in structure")
    kept = [r for r, v in enumerate(s.universe) if v in keep]
    vertices = [s.universe[r] for r in kept]
    if s.kind in ("graph", "poset"):
        return type(s).from_rows(vertices, [
            sum(1 << j for j, q in enumerate(kept) if s.rows[r] >> q & 1) for r in kept])
    sub = type(s)(BaseOrder(vertices),
                  tuple(tuple([s.dmatrix[r][q] for q in kept]) for r in kept), s.spectrum)
    check_structure(sub)
    return sub


# ---------------------------------------------------------------------------
# downsets and balls


def downset_masks(p: LinOrderedPoset) -> list[int]:
    """All nonempty downsets of the poset as rank bitmasks, increasing.

    As rank bitmasks, anti-lexicographic order is integer order.  A downset
    minus its top element is again a downset, since the linear order extends
    the relation, so the downsets grow one rank at a time.  Those with top
    rank r are appended after all with a lower top, in the order of the
    downsets they extend, so the list comes out increasing."""
    down = [0] * len(p.universe)  # down[r]: the ranks below rank r
    for r, row in enumerate(p.rows):
        for q in _bits(row):
            down[q] |= 1 << r
    found = [0]
    for r, below in enumerate(down):
        bit = 1 << r
        found += [d | bit for d in found if not below & ~(d | bit)]
    return found[1:]


def downsets(p: LinOrderedPoset) -> tuple[frozenset, ...]:
    """All nonempty downsets of the poset, strictly increasing under the
    anti-lexicographic subset order of the poset's linear order (see
    :func:`downset_masks`)."""
    return tuple(_members(p.universe, d) for d in downset_masks(p))


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


def _tuple_ranks(poset: LinOrderedPoset, k: int, kind: str) -> list:
    """All |A|^k k-tuples of ranks of the poset, increasing under the tuple
    order ``kind``.  Refuses more than ``DEFAULT_MAX_POINTS`` tuples."""
    check_tuple_space(poset, k, DEFAULT_MAX_POINTS)
    ranks = itertools.product(range(len(poset.universe)), repeat=k)
    return list(ranks) if kind == "lex" else [t[::-1] for t in ranks]


def _check_tuple_images(space, images: list, kind: str, level) -> None:
    """Raise unless the images, tuples of target ranks in the space's rank
    order, keep every distance and strictly increase under the tuple order
    ``kind``; ``level(a, b)`` is the spectrum index of the distance of two
    images."""
    uni, (dist, spect) = space.universe, space.scaled
    keys = images if kind == "lex" else [t[::-1] for t in images]
    for r, q in itertools.combinations(range(len(uni)), 2):
        j = level(images[r], images[q])
        if spect[j] != dist[r][q]:
            raise VerificationError(f"distance of images of {uni[r]!r},{uni[q]!r} is "
                                    f"{space.spectrum[j]}, expected {space.dmatrix[r][q]}")
        if not keys[r] < keys[q]:
            raise VerificationError(f"images of {uni[r]!r},{uni[q]!r} are not {kind}-increasing")


# ---------------------------------------------------------------------------
# JSON round trip


def to_json(s) -> dict:
    """Canonical JSON form; round-trips bit-exactly through :func:`from_json`."""
    out = {"kind": s.kind, "universe": list(s.universe)}
    if s.kind in ("graph", "poset"):
        out["edges" if s.kind == "graph" else "leq"] = [[a, b] for a, b in s.strict_pairs()]
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

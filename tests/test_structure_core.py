"""Differential tests: the rank-indexed structure core against the
``Fraction``/set loops it replaced.

The reference functions below are the library's earlier validator,
``downsets``, ``balls``, ``point_ball``, ``level_below`` and encoders,
kept here verbatim in substance.  On valid and deliberately corrupted raw
structures the library must give the same report, or raise the same
exception class with the same message, and build the same sets.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ramseylift.errors import RamseyLiftError, StructureError, VerificationError
from ramseylift.harness import random_metric, random_poset, random_ultrametric
from ramseylift.metric_encoding import decode_poset_metric, encode_metric
from ramseylift.orders import BaseOrder, sort_subsets
from ramseylift.structures import (
    Ball,
    ConvUltrametricSpace,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    balls,
    downsets,
    format_rational,
    validate_structure,
)
from ramseylift.ultrametric_encoding import decode_poset_ultra, encode_ultrametric

# ---------------------------------------------------------------------------
# references


def ref_validate(s) -> dict:
    kind = s.kind
    if kind == "poset":
        elems, rank = s.universe, s.order.rank
        pairs = sorted(s.leq, key=lambda pair: (rank(pair[0]), rank(pair[1])))  # rank order
        for a in elems:
            if not s.below(a, a):
                raise StructureError(f"relation not reflexive at {a!r}")
        for a, b in pairs:
            if a != b and s.below(b, a):
                raise StructureError(f"relation not antisymmetric on ({a!r},{b!r})")
        for a, b in pairs:
            for c in elems:
                if s.below(b, c) and not s.below(a, c):
                    raise StructureError(f"relation not transitive via ({a!r},{b!r},{c!r})")
        for a, b in pairs:
            if a != b and not rank(a) < rank(b):
                raise StructureError(
                    f"linear order does not extend the partial order on ({a!r},{b!r})"
                )
        return {"kind": kind, "size": len(s.order), "relation_pairs": len(s.leq)}
    spectrum = s.spectrum
    if not spectrum:
        raise StructureError("spectrum must be nonempty")
    if spectrum[0] != 0:
        raise StructureError("spectrum must start at 0")
    for a, b in zip(spectrum, spectrum[1:]):
        if not a < b:
            raise StructureError("spectrum must be strictly increasing")
    pts = s.universe
    for x in pts:
        if s.d(x, x) != 0:
            raise StructureError(f"d({x!r},{x!r}) must be 0")
    for x, y in itertools.combinations(pts, 2):
        if s.d(x, y) <= 0:
            raise StructureError(f"d({x!r},{y!r}) must be positive for distinct points")
    for x, y, z in itertools.permutations(pts, 3):
        if kind == "ultrametric":
            if s.d(x, z) > max(s.d(x, y), s.d(y, z)):
                raise StructureError(f"strong triangle inequality fails on ({x!r},{y!r},{z!r})")
        elif s.d(x, z) > s.d(x, y) + s.d(y, z):
            raise StructureError(f"triangle inequality fails on ({x!r},{y!r},{z!r})")
    attained = {Fraction(0)} if pts else set()
    attained.update(s.d(x, y) for x, y in itertools.combinations(pts, 2))
    if not attained <= set(spectrum):
        extra = sorted(attained - set(spectrum))
        raise StructureError(
            f"attained distances {[format_rational(v) for v in extra]} missing from spectrum"
        )
    if kind == "ultrametric":
        for x in pts:
            for radius in spectrum:
                ball = [s.order.rank(y) for y in ref_point_ball(s, x, radius)]
                if ball and max(ball) - min(ball) + 1 != len(ball):
                    raise StructureError(
                        f"ball around {x!r} of radius {format_rational(radius)} is not an interval"
                    )
    return {
        "kind": kind,
        "size": len(s.order),
        "spectrum": [format_rational(v) for v in spectrum],
        "attained": [format_rational(v) for v in sorted(attained)],
    }


def ref_downsets(p):
    elems = p.universe
    found = []
    for mask in range(1, 1 << len(elems)):
        subset = frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)
        if all(p.below(b, a) <= (b in subset) for a in subset for b in elems):
            found.append(subset)
    return tuple(sort_subsets(p.order, "alex", found))


def ref_point_ball(space, x, radius):
    return frozenset(y for y in space.universe if space.d(x, y) <= radius)


def _ball_key(space, b):
    return (b.radius_index, min(space.order.rank(y) for y in b.points))


def ref_balls(space):
    out = set()
    for i, radius in enumerate(space.spectrum):
        for x in space.universe:
            out.add(Ball(ref_point_ball(space, x, radius), i))
    return tuple(sorted(out, key=lambda b: _ball_key(space, b)))


def ref_encode_ultrametric(space) -> LinOrderedPoset:
    elems = ref_balls(space)
    for b in elems:
        radius = space.spectrum[b.radius_index]
        for y in b.points:
            if ref_point_ball(space, y, radius) != b.points:
                raise VerificationError(
                    f"ball {sorted(b.points)!r} at radius index {b.radius_index} "
                    f"depends on the choice of center"
                )
    pairs = [(a, b) for a, b in itertools.permutations(elems, 2) if a.leq(b)]
    return LinOrderedPoset.build(elems, pairs)


def ref_level_below(space, spect, a, b) -> bool:
    (x, i), (y, j) = a, b
    return i <= j and space.d(x, y) <= spect[j] - spect[i]


def ref_encode_metric(space) -> LinOrderedPoset:
    spect = space.spectrum
    elems = [(x, i) for i in range(len(spect)) for x in space.universe]
    pairs = [
        (a, b) for a, b in itertools.permutations(elems, 2) if ref_level_below(space, spect, a, b)
    ]
    return LinOrderedPoset.build(elems, pairs)


def outcome(fn, *args):
    """The result, or the exception's class and message."""
    try:
        return fn(*args)
    except RamseyLiftError as exc:
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# raw structures: valid ones and deliberately corrupted ones


def raw_poset(elems, pairs) -> LinOrderedPoset:
    """A poset built without validation from declared element pairs."""
    rank = {x: r for r, x in enumerate(elems)}
    up = [0] * len(elems)
    for a, b in pairs:
        up[rank[a]] |= 1 << rank[b]
    return LinOrderedPoset(BaseOrder(elems), tuple(up))


def ref_build(elems, pairs) -> LinOrderedPoset:
    """``LinOrderedPoset.build``: the first pair, in the given order, with an
    undeclared element is refused; the reflexive pairs are added."""
    for a, b in pairs:
        if a not in elems or b not in elems:
            raise StructureError(f"relation pair ({a!r},{b!r}) uses undeclared elements")
    p = raw_poset(elems, {*pairs, *((a, a) for a in elems)})
    ref_validate(p)
    return p


def corrupted_posets(rng):
    """A valid poset and one corruption of each kind that applies to it, as
    (label, elements, pairs); an undeclared element can only reach ``build``."""
    p = random_poset(rng, 6)
    elems = list(p.universe)
    leq = set(p.leq)
    yield "valid", elems, leq
    a = rng.choice(elems)
    yield "non-reflexive", elems, leq - {(a, a)}
    strict = [pair for pair in leq if pair[0] != pair[1]]
    chains = [(x, y) for (x, y) in strict for (u, v) in strict if y == u and (x, v) in leq]
    if chains:
        x, y = rng.choice(chains)
        z = rng.choice([v for (u, v) in strict if u == y])
        yield "non-transitive", elems, leq - {(x, z)}
    if len(elems) > 1:
        x, y = sorted(rng.sample(elems, 2))
        yield "order-violating", elems, leq | {(y, x)}
        yield "shuffled order", rng.sample(elems, len(elems)), leq
    yield "undeclared", elems, strict + [(a, "ghost")]
    yield "random relation", elems, {(x, y) for x in elems for y in elems if rng.random() < 0.4}


def raw_space(cls, points, dist, spectrum):
    """A space built without validation from a symmetric distance map."""
    n = len(points)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (r, q), v in dist.items():
        mat[r][q] = mat[q][r] = v
    return cls(BaseOrder(points), tuple(tuple(row) for row in mat), tuple(spectrum))


def corrupted_spaces(rng, cls):
    """A valid space and corruptions: a zero or off-spectrum distance, a
    broken (strong) triangle, a shuffled linear order, a nonzero diagonal,
    an empty, reversed or decreasing spectrum."""
    space = random_ultrametric(rng, 6) if cls is ConvUltrametricSpace else random_metric(rng, 5)
    pts = list(space.universe)
    n = len(pts)
    spect = space.spectrum
    dist = {(r, q): space.dmatrix[r][q] for r, q in itertools.combinations(range(n), 2)}
    yield "valid", space
    yield "empty spectrum", raw_space(cls, pts, dist, ())
    yield "reversed spectrum", raw_space(cls, pts, dist, spect[::-1])
    yield "decreasing spectrum", raw_space(cls, pts, dist, (spect[0], *spect[:0:-1]))
    if n > 1:
        pair = rng.choice(list(dist))
        yield "zero", raw_space(cls, pts, {**dist, pair: Fraction(0)}, spect)
        off = spect[-1] + Fraction(1, 3)
        yield "off-spectrum", raw_space(cls, pts, {**dist, pair: off}, spect)
        yield "shuffled order", raw_space(cls, rng.sample(pts, n), dist, spect)
        pool = list(spect[1:]) + [spect[-1] * 3, Fraction(1, 7)]
        yield "random distances", raw_space(
            cls, pts, {pair: rng.choice(pool) for pair in dist}, spect
        )
        yield "random spectrum", raw_space(
            cls, pts, {pair: rng.choice(pool) for pair in dist}, sorted(set(pool) | {0})
        )
    if n > 2:
        r, q, z = sorted(rng.sample(range(n), 3))
        big = 2 * spect[-1] + 1
        yield "triangle", raw_space(cls, pts, {**dist, (r, z): big}, (*spect, big))
    diag = raw_space(cls, pts, dist, spect)
    rows = [list(row) for row in diag.dmatrix]
    rows[n - 1][n - 1] = spect[-1]
    yield "diagonal", cls(diag.order, tuple(map(tuple, rows)), spect)


def _respects_order(p) -> bool:
    """Whether every pair is declared and the linear order extends the
    relation, as ``downsets`` assumes."""
    rank = p.order.rank_map
    return all(a in rank and b in rank and rank[a] <= rank[b] for a, b in p.leq)


# ---------------------------------------------------------------------------
# comparisons


def check_poset(elems, pairs):
    """The raw poset on declared pairs validates like the reference, and
    ``build`` on the pairs in a fixed order behaves like its reference."""
    pairs = sorted(pairs, key=repr)
    assert outcome(LinOrderedPoset.build, elems, pairs) == outcome(ref_build, elems, pairs)
    if any(a not in elems or b not in elems for a, b in pairs):
        return
    p = raw_poset(elems, pairs)
    assert outcome(validate_structure, p) == outcome(ref_validate, p)
    if _respects_order(p):
        assert downsets(p) == ref_downsets(p)


def check_space(space):
    assert outcome(validate_structure, space) == outcome(ref_validate, space)
    if space.kind == "metric":
        assert outcome(encode_metric, space) == outcome(ref_encode_metric, space)
        return
    if any(space.d(x, x) for x in space.universe):
        return  # a point outside its own ball gives an empty ball, which the reference cannot sort
    ref = ref_balls(space)
    keys = [_ball_key(space, b) for b in ref]
    if len(set(keys)) < len(keys):  # the reference orders tied balls arbitrarily
        assert set(balls(space)) == set(ref)
        return
    assert balls(space) == ref
    new, old = outcome(encode_ultrametric, space), outcome(ref_encode_ultrametric, space)
    assert (new.poset if isinstance(old, LinOrderedPoset) else new) == old


def test_posets_match_reference():
    rng = random.Random("core:posets")
    seen = set()
    for _ in range(300):
        for label, elems, pairs in corrupted_posets(rng):
            check_poset(elems, pairs)
            if label == "undeclared":
                seen.add((label, type(outcome(LinOrderedPoset.build, elems, pairs))))
            else:
                seen.add((label, type(outcome(validate_structure, raw_poset(elems, pairs)))))
    # every corruption was rejected at least once, and valid posets passed
    assert ("valid", dict) in seen
    for label in ("non-reflexive", "non-transitive", "order-violating", "undeclared"):
        assert (label, tuple) in seen


def test_spaces_match_reference():
    rng = random.Random("core:spaces")
    messages = set()
    for cls in (ConvUltrametricSpace, LinOrderedMetricSpace):
        for _ in range(250):
            for label, space in corrupted_spaces(rng, cls):
                check_space(space)
                result = outcome(validate_structure, space)
                messages.add(result[1] if isinstance(result, tuple) else label)
    for word in ("valid", "d(", "strong", "triangle", "attained", "ball",
                 "spectrum must be nonempty", "spectrum must start at 0",
                 "spectrum must be strictly increasing"):
        assert any(m.startswith(word) for m in messages), word


def test_spaces_past_the_threshold_check_match_reference():
    """Decoded tuple spaces of 16 points, where the triangle checks run on
    threshold masks first, and corruptions of them: one distance changed
    on both sides of the diagonal or on one side only."""
    rng = random.Random("core:large-spaces")
    messages = set()
    for _ in range(20):
        p = random_poset(rng, 4)
        while len(p.universe) < 4:
            p = random_poset(rng, 4)
        for decode in (decode_poset_ultra, decode_poset_metric):
            space = decode(p, [0, 1, 2])
            pts, spect = list(space.universe), space.spectrum
            n = len(pts)
            dist = {(r, q): space.dmatrix[r][q] for r, q in itertools.combinations(range(n), 2)}
            cls = type(space)
            variants = [space]
            for value in (spect[1], spect[2], spect[2] * 3):
                pair = rng.choice(list(dist))
                variants.append(raw_space(cls, pts, {**dist, pair: value}, (*spect, spect[2] * 3)))
            rows = [list(row) for row in space.dmatrix]
            r, q = rng.sample(range(n), 2)
            rows[r][q] = spect[1] if rows[r][q] != spect[1] else spect[2]
            variants.append(cls(space.order, tuple(map(tuple, rows)), spect))
            for s in variants:
                result = outcome(validate_structure, s)
                assert result == outcome(ref_validate, s)
                messages.add(result[1].split(" fails")[0] if isinstance(result, tuple) else "valid")
    assert {"valid", "triangle inequality", "strong triangle inequality"} <= messages


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_raw_posets_match_reference(data):
    n = data.draw(st.integers(1, 6))
    elems = data.draw(st.permutations(range(n)))
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    reflexive = data.draw(st.booleans())
    check_poset(elems, pairs | ({(a, a) for a in elems} if reflexive else set()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_raw_spaces_match_reference(data):
    n = data.draw(st.integers(1, 6))
    values = st.fractions(min_value=0, max_value=4, max_denominator=3)
    dist = {
        pair: data.draw(values) for pair in itertools.combinations(range(n), 2)
    }
    extra = data.draw(st.sets(values, max_size=3))
    spectrum = sorted({Fraction(0), *extra, *data.draw(st.sets(st.sampled_from(
        sorted(set(dist.values())) or [Fraction(0)])))})
    cls = data.draw(st.sampled_from([ConvUltrametricSpace, LinOrderedMetricSpace]))
    check_space(raw_space(cls, list(range(n)), dist, spectrum))

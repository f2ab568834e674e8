import itertools
import json
import random
from fractions import Fraction

import pytest

from ramseylift.cli import _render
from ramseylift.errors import BudgetError, DomainError, SpectrumError
from ramseylift.harness import random_embedded_pair, random_superposet_embedding
from ramseylift.structures import (
    Ball,
    ConvUltrametricSpace,
    balls,
    check_embedding,
    compose_embeddings,
    enumerate_embeddings,
    identity_embedding,
    validate_structure,
)
from ramseylift.ultrametric_encoding import (
    decode_poset_ultra,
    dist_ultra_tuples,
    encode_ultrametric,
    phi_ultra,
    reduce_spectrum,
    witness_ultra,
)

from util import all_posets_on

ULTRA3 = ConvUltrametricSpace.build(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}, [0, 1, 2]
)
PAIR = ConvUltrametricSpace.build(["a", "b"], {("a", "b"): 1}, [0, 1])
POINT = ConvUltrametricSpace.build(["a"], {}, [0, 1])

S012 = (Fraction(0), Fraction(1), Fraction(2))


def test_encode_sizes():
    assert len(encode_ultrametric(ULTRA3).poset.universe) == 6
    one = ConvUltrametricSpace.build(["a"], {}, [0])
    assert len(encode_ultrametric(one).poset.universe) == 1


def test_encode_two_point_shape():
    poset = encode_ultrametric(PAIR).poset
    a0 = Ball(frozenset({"a"}), 0)
    b0 = Ball(frozenset({"b"}), 0)
    ab = Ball(frozenset({"a", "b"}), 1)
    assert poset.universe == (a0, b0, ab)
    assert poset.below(a0, ab) and poset.below(b0, ab)
    assert not poset.below(a0, b0) and not poset.below(b0, a0)


def test_encode_is_valid_ordered_poset():
    validate_structure(encode_ultrametric(ULTRA3).poset)


def test_dist_tuples_examples():
    poset = encode_ultrametric(ULTRA3).poset
    x, y = poset.universe[0], poset.universe[1]
    assert dist_ultra_tuples(poset, S012, (x, y), (x, y)) == 0
    assert dist_ultra_tuples(poset, S012, (x, y), (y, y)) == 1
    assert dist_ultra_tuples(poset, S012, (x, x), (x, y)) == 2
    with pytest.raises(DomainError):
        dist_ultra_tuples(poset, S012, (x,), (x, y))


def test_dist_tuples_is_ultrametric_exhaustively():
    for poset in all_posets_on(2):
        for k in (1, 2, 3):
            spectrum = tuple(Fraction(i) for i in range(k + 1))
            pts = list(itertools.product(poset.universe, repeat=k))
            for a, b, c in itertools.product(pts, repeat=3):
                dab = dist_ultra_tuples(poset, spectrum, a, b)
                dbc = dist_ultra_tuples(poset, spectrum, b, c)
                dac = dist_ultra_tuples(poset, spectrum, a, c)
                assert dac <= max(dab, dbc)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decode_full_space_validates_claim(n, k):
    spectrum = [Fraction(i, 2) for i in range(k + 1)]
    for poset in all_posets_on(n):
        space = decode_poset_ultra(poset, spectrum)
        assert len(space.universe) == n**k
        assert set(space.spectrum) == set(spectrum)


def test_decode_examples():
    chain2 = next(p for p in all_posets_on(2) if p.below(1, 2))
    space = decode_poset_ultra(chain2, [0, Fraction(1, 2)])
    assert len(space.universe) == 2
    assert space.d((1,), (2,)) == Fraction(1, 2)
    anti2 = next(p for p in all_posets_on(2) if not (p.below(1, 2) or p.below(2, 1)))
    space4 = decode_poset_ultra(anti2, S012)
    assert len(space4.universe) == 4
    assert set(space4.attained()) <= set(S012)


def test_decode_budget():
    poset = next(all_posets_on(3))
    with pytest.raises(BudgetError):
        decode_poset_ultra(poset, [0, 1, 2, 3], max_points=8)


def test_phi_identity_target():
    bp = encode_ultrametric(ULTRA3)
    images = phi_ultra(ULTRA3, bp.poset, identity_embedding(bp.poset))
    assert images["a"] == (
        Ball(frozenset({"a"}), 0),
        Ball(frozenset({"a", "b"}), 1),
    )
    assert dist_ultra_tuples(bp.poset, ULTRA3.spectrum, images["a"], images["b"]) == 1


def test_phi_one_point_space():
    one = ConvUltrametricSpace.build(["a"], {}, [0])
    bp = encode_ultrametric(one)
    images = phi_ultra(one, bp.poset, identity_embedding(bp.poset))
    assert images == {"a": ()}


def test_phi_uses_nominal_radius_pairs():
    two = ConvUltrametricSpace.build(["a", "b"], {("a", "b"): 2}, [0, 1, 2])
    bp = encode_ultrametric(two)
    images = phi_ultra(two, bp.poset, identity_embedding(bp.poset))
    assert images["a"][1] == Ball(frozenset({"a"}), 1)
    assert images["a"][0] == Ball(frozenset({"a"}), 0)


def test_phi_rejects_foreign_embedding():
    bp = encode_ultrametric(ULTRA3)
    other = encode_ultrametric(PAIR)
    with pytest.raises(DomainError):
        phi_ultra(ULTRA3, bp.poset, identity_embedding(other.poset))


def test_witness_identity():
    v = witness_ultra(PAIR, PAIR, identity_embedding(PAIR))
    assert all(a == b for a, b in v.mapping)


def test_witness_point_into_pair():
    f = check_embedding({"a": "a"}, POINT, PAIR)
    v = witness_ultra(PAIR, POINT, f)
    assert v(Ball(frozenset({"a"}), 0)) == Ball(frozenset({"a"}), 0)
    assert v(Ball(frozenset({"a"}), 1)) == Ball(frozenset({"a", "b"}), 1)


def test_witness_spectrum_mismatch():
    other = ConvUltrametricSpace.build(["a"], {}, [0, 2])
    f_map = {"a": "a"}
    with pytest.raises(SpectrumError):
        witness_ultra(PAIR, other, check_embedding(f_map, other, PAIR))


def test_witness_factorization_random():
    rng = random.Random("ultra:pa")
    for _ in range(60):
        D, E = random_embedded_pair(rng, "ultrametric")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        v = witness_ultra(D, E, f)
        u = random_superposet_embedding(rng, encode_ultrametric(D).poset)
        lhs = phi_ultra(D, u.target, u)
        rhs = phi_ultra(E, u.target, compose_embeddings(u, v))
        assert all(rhs[x] == lhs[f(x)] for x in E.universe)


def test_reduce_spectrum():
    sparse = ConvUltrametricSpace.build(["a", "b"], {("a", "b"): 2}, [0, 1, 2, 3])
    assert reduce_spectrum(sparse).spectrum == (Fraction(0), Fraction(2))
    assert reduce_spectrum(ULTRA3).spectrum == ULTRA3.spectrum
    one = ConvUltrametricSpace.build(["a"], {}, [0, 5])
    assert reduce_spectrum(one).spectrum == (Fraction(0),)


def test_ball_repr_is_pinned():
    assert repr(Ball(frozenset({1, 2}), 0)) == "Ball(points=frozenset({1, 2}), radius_index=0)"
    assert repr(Ball(frozenset({"a"}), 1)) == "Ball(points=frozenset({'a'}), radius_index=1)"


def test_balls_in_sets_and_dicts():
    pair, also_pair = Ball(frozenset({"a", "b"}), 1), Ball(frozenset({"b", "a"}), 1)
    assert pair == also_pair and pair is not also_pair and hash(pair) == hash(also_pair)
    assert Ball(frozenset({"a", "b"}), 2) != pair  # one point set at two radii
    assert len({pair, also_pair, Ball(frozenset({"a", "b"}), 2)}) == 2
    index = {b: i for i, b in enumerate(balls(ULTRA3))}
    assert len(index) == 6
    for b, i in list(index.items()):
        assert index[Ball(frozenset(b.points), b.radius_index)] == i


def test_ball_is_a_tuple():
    b = Ball(frozenset({"a"}), 1)
    assert b == (frozenset({"a"}), 1) and hash(b) == hash((frozenset({"a"}), 1))
    assert b.points == b[0] and b.radius_index == b[1]
    assert Ball(frozenset({"a"}), 0).leq(b) and not b.leq(Ball(frozenset({"a"}), 0))


def test_ball_renders_to_the_same_json():
    b = Ball(frozenset({2, 1}), 1)
    assert json.dumps(_render(b), sort_keys=True) == '{"points": [1, 2], "radius_index": 1}'
    assert _render((b, Ball(frozenset({3}), 0))) == [
        {"points": [1, 2], "radius_index": 1}, {"points": [3], "radius_index": 0}]

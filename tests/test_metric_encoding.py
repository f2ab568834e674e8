import itertools
import random
from fractions import Fraction

import pytest

from ramseylift.errors import SpectrumError, VerificationError
from ramseylift.harness import graded_spectrum, random_embedded_pair, random_metric
from ramseylift.metric_encoding import (
    _dist_tuples_raw,
    decode_poset_metric,
    dist_metric_tuples,
    encode_metric,
    is_tight,
    phi_metric,
    tight_complete,
    witness_metric,
)
from ramseylift.structures import (
    LinOrderedMetricSpace,
    check_embedding,
    compose_embeddings,
    enumerate_embeddings,
    identity_embedding,
)
from util import all_posets_on, is_nonneg_combination

M2 = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): 2}, [0, 1, 2])
M1 = LinOrderedMetricSpace.build(["a"], {}, [0, 1, 2])
S012 = (Fraction(0), Fraction(1), Fraction(2))


def test_is_tight_examples():
    assert is_tight([0, 1, 2])
    assert not is_tight([0, 1, 5])
    assert is_tight([0, Fraction(7, 2)])


def test_is_tight_input_checked():
    with pytest.raises(SpectrumError):
        is_tight([1, 2])
    with pytest.raises(SpectrumError):
        is_tight([0, 2, 1])
    with pytest.raises(SpectrumError):
        is_tight([0, 1, 1])


def test_tight_complete_trace():
    assert tight_complete([0, 1, 5]) == tuple(Fraction(i) for i in range(6))


def test_tight_complete_already_tight():
    assert tight_complete([0, 1, 2]) == (0, 1, 2)
    assert tight_complete([0, 1]) == (0, 1)


def test_tight_complete_preserves_endpoints_and_membership():
    rng = random.Random("metric:complete")
    for _ in range(100):
        nonzero = sorted(
            {Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(rng.randint(1, 4))}
        )
        values = [Fraction(0)] + nonzero
        out = tight_complete(values)
        assert is_tight(out)
        assert set(values) <= set(out)
        assert out[1] == values[1]
        assert out[-1] == values[-1]
        for t in out:
            assert is_nonneg_combination(t, nonzero)


def test_tight_complete_degenerate_input():
    with pytest.raises(SpectrumError):
        tight_complete([0])
    with pytest.raises(SpectrumError):
        tight_complete([1, 2])


def test_encode_metric_example():
    poset = encode_metric(M2)
    assert len(poset.universe) == 6
    assert poset.below(("a", 0), ("b", 2))
    assert not poset.below(("a", 0), ("b", 1))
    assert poset.below(("a", 0), ("a", 1)) and poset.below(("a", 1), ("a", 2))
    assert poset.order.rank(("a", 0)) < poset.order.rank(("b", 0))


def test_encode_metric_accepts_non_tight_spectrum():
    space = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): 1}, [0, 1, 5])
    poset = encode_metric(space)
    assert len(poset.universe) == 6


def test_dist_tuples_examples():
    poset = encode_metric(M2)
    a = (("a", 0), ("a", 1))
    b = (("b", 0), ("b", 1))
    assert dist_metric_tuples(poset, S012, a, a) == 0
    assert dist_metric_tuples(poset, S012, a, b) == 2


def test_dist_tuples_shift_one():
    near = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): 1}, [0, 1, 2])
    poset = encode_metric(near)
    a = (("a", 0), ("a", 1))
    b = (("b", 0), ("b", 1))
    assert dist_metric_tuples(poset, S012, a, b) == 1


def test_dist_tuples_refuses_non_tight():
    poset = encode_metric(M2)
    with pytest.raises(SpectrumError, match="tight"):
        dist_metric_tuples(poset, [0, 1, 5], (("a", 0), ("a", 1)), (("b", 0), ("b", 1)))


def test_non_tight_spectrum_breaks_triangle_inequality():
    bad = tuple(Fraction(v) for v in (0, 1, 5))
    chain2 = next(p for p in all_posets_on(2) if p.below(1, 2))
    pts = list(itertools.product(chain2.universe, repeat=2))
    violation = None
    for a, b, c in itertools.product(pts, repeat=3):
        dab = _dist_tuples_raw(chain2, bad, a, b)
        dbc = _dist_tuples_raw(chain2, bad, b, c)
        dac = _dist_tuples_raw(chain2, bad, a, c)
        if dac > dab + dbc:
            violation = (a, b, c)
            break
    assert violation is not None
    # with the tight version of the same spectrum no violation exists
    good = tuple(Fraction(v) for v in (0, 1, 2))
    for a, b, c in itertools.product(pts, repeat=3):
        assert _dist_tuples_raw(chain2, good, a, c) <= _dist_tuples_raw(
            chain2, good, a, b
        ) + _dist_tuples_raw(chain2, good, b, c)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decode_full_space_validates_claim(n, k):
    spectra = [
        tuple(Fraction(i) for i in range(k + 1)),
        tuple(Fraction(0 if i == 0 else i + 1) for i in range(k + 1)),
    ]
    for spectrum in spectra:
        assert is_tight(spectrum)
        for poset in all_posets_on(n):
            space = decode_poset_metric(poset, spectrum)
            assert len(space.universe) == n**k


def test_decode_refuses_non_tight():
    poset = next(all_posets_on(2))
    with pytest.raises(SpectrumError):
        decode_poset_metric(poset, [0, 1, 5])


def test_phi_identity_two_points():
    poset = encode_metric(M2)
    images = phi_metric(M2, poset, identity_embedding(poset))
    assert images["a"] == (("a", 0), ("a", 1))
    assert images["b"] == (("b", 0), ("b", 1))


def test_phi_three_point_mixed_distances():
    space = LinOrderedMetricSpace.build(
        ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}, [0, 1, 2]
    )
    poset = encode_metric(space)
    images = phi_metric(space, poset, identity_embedding(poset))
    assert dist_metric_tuples(poset, space.spectrum, images["a"], images["b"]) == 1
    assert dist_metric_tuples(poset, space.spectrum, images["a"], images["c"]) == 2


def test_phi_known_gap_on_ungraded_tight_spectrum():
    # {0,2,3,4} is tight but not graded below its top; the level poset
    # denies (x,1) below (y,2) and the decoded distance comes out 3, not 2.
    space = LinOrderedMetricSpace.build(["x", "y"], {("x", "y"): 2}, [0, 2, 3, 4])
    poset = encode_metric(space)
    with pytest.raises(VerificationError, match="distance"):
        phi_metric(space, poset, identity_embedding(poset))


def test_witness_identity_and_inclusion():
    v = witness_metric(M2, M2, identity_embedding(M2))
    assert all(a == b for a, b in v.mapping)
    f = check_embedding({"a": "a"}, M1, M2)
    v = witness_metric(M2, M1, f)
    assert v(("a", 0)) == ("a", 0)
    assert v(("a", 2)) == ("a", 2)


def test_witness_spectrum_mismatch():
    other = LinOrderedMetricSpace.build(["a"], {}, [0, 1])
    with pytest.raises(SpectrumError):
        witness_metric(M2, other, check_embedding({"a": "a"}, other, M2))


def test_witness_factorization_random():
    rng = random.Random("metric:pa")
    for _ in range(60):
        D, E = random_embedded_pair(rng, "metric")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        v = witness_metric(D, E, f)
        from ramseylift.harness import random_superposet_embedding

        u = random_superposet_embedding(rng, encode_metric(D))
        lhs = phi_metric(D, u.target, u)
        rhs = phi_metric(E, u.target, compose_embeddings(u, v))
        assert all(rhs[x] == lhs[f(x)] for x in E.universe)


def test_finite_rational_pipeline():
    rng = random.Random("metric:pipeline")
    for _ in range(40):
        space = random_metric(rng)
        # reduce the declared spectrum to the attained one, then complete
        attained = sorted(space.attained())
        if len(attained) < 2:
            continue
        completed = tight_complete(attained)
        assert is_tight(completed)
        nonzero = [v for v in completed if v > 0]
        assert nonzero[0] == attained[1]
        assert nonzero[-1] == attained[-1]
        assert all(attained[1] <= v <= attained[-1] for v in nonzero)


def test_graded_spectra_are_tight():
    rng = random.Random("metric:graded")
    for _ in range(100):
        assert is_tight(graded_spectrum(rng))

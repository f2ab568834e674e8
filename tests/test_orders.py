import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ramseylift.errors import DomainError
from ramseylift.orders import (
    EQUAL,
    GREATER,
    LESS,
    SUBSET_ORDER_KINDS,
    TUPLE_ORDER_KINDS,
    BaseOrder,
    compare_subsets,
    compare_tuples,
    sort_subsets,
    subset_key,
    tuple_key,
)
from ramseylift.structures import LinOrderedPoset, _tuple_points

L4 = BaseOrder(range(1, 5))
L16 = BaseOrder(range(1, 17))


def all_subsets(order):
    elems = order.elements
    return [
        frozenset(c) for r in range(len(elems) + 1) for c in itertools.combinations(elems, r)
    ]


def test_lex_example():
    assert compare_subsets(L4, "lex", {1, 4}, {1, 3}) == LESS


def test_equal_subsets():
    for kind in ("lex", "alex", "clex"):
        assert compare_subsets(L4, kind, {2}, {2}) == EQUAL


def test_clex_worked_values():
    assert compare_subsets(L16, "clex", {2, 7, 12, 16}, {5, 11, 12, 13, 15}) == LESS


def test_clex_chain_of_worked_values():
    images = [{2, 7, 12, 16}, {5, 11, 12, 13, 15}, {8, 9, 13}, {10, 15}]
    for a, b in zip(images, images[1:]):
        assert compare_subsets(L16, "clex", a, b) == LESS


def test_unknown_element_rejected():
    with pytest.raises(DomainError):
        compare_subsets(L4, "lex", {1, 9}, {2})


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        compare_subsets(L4, "colex", {1}, {2})


def test_tuple_examples():
    l3 = BaseOrder([1, 2, 3])
    assert compare_tuples(l3, "lex", (1, 3), (2, 1)) == LESS
    assert compare_tuples(l3, "alex", (3, 1), (1, 2)) == LESS
    assert compare_tuples(l3, "lex", (2, 1), (2, 1)) == EQUAL
    assert compare_tuples(l3, "alex", (2, 1), (2, 1)) == EQUAL


def test_tuple_length_mismatch():
    with pytest.raises(DomainError):
        compare_tuples(L4, "lex", (1, 2), (1,))


# masks provide an independent oracle: alex compares plain bitmasks,
# lex compares bit-reversed masks, clex reverses the latter.


def _mask(order, s):
    return sum(1 << order.rank(x) for x in s)


def _rmask(order, s):
    n = len(order)
    return sum(1 << (n - 1 - order.rank(x)) for x in s)


def _cmp(a, b):
    return LESS if a < b else GREATER if a > b else EQUAL


@pytest.mark.parametrize("size", range(0, 6))
def test_subset_orders_against_mask_oracle(size):
    order = BaseOrder(range(size))
    subsets = all_subsets(order)
    for a, b in itertools.product(subsets, repeat=2):
        assert compare_subsets(order, "alex", a, b) == _cmp(_mask(order, a), _mask(order, b))
        assert compare_subsets(order, "lex", a, b) == _cmp(_rmask(order, a), _rmask(order, b))
        assert compare_subsets(order, "clex", a, b) == _cmp(_rmask(order, b), _rmask(order, a))


@pytest.mark.parametrize("kind", ["lex", "alex", "clex"])
@pytest.mark.parametrize("size", range(1, 7))
def test_subset_orders_are_strict_total_orders(kind, size):
    order = BaseOrder(range(size))
    subsets = sort_subsets(order, kind, all_subsets(order))
    # agreement with a strict linear arrangement gives totality,
    # antisymmetry and transitivity in one sweep
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            assert compare_subsets(order, kind, a, b) == _cmp(i, j)


@pytest.mark.parametrize("size", range(1, 6))
def test_clex_is_lex_of_complements(size):
    order = BaseOrder(range(size))
    full = frozenset(order.elements)
    for a, b in itertools.product(all_subsets(order), repeat=2):
        assert compare_subsets(order, "clex", a, b) == compare_subsets(
            order, "lex", full - a, full - b
        )


def test_containment_consistency():
    order = BaseOrder(range(5))
    for a, b in itertools.product(all_subsets(order), repeat=2):
        if a < b:
            assert compare_subsets(order, "lex", a, b) == LESS
            assert compare_subsets(order, "alex", a, b) == LESS
            assert compare_subsets(order, "clex", a, b) == GREATER


def test_incomparable_branch_never_needs_empty_conventions():
    order = BaseOrder(range(5))
    for a, b in itertools.product(all_subsets(order), repeat=2):
        if a != b and not a < b and not a > b:
            assert a - b and b - a


@pytest.mark.parametrize("kind", ["lex", "alex"])
@pytest.mark.parametrize("size,k", [(2, 4), (3, 3), (4, 4)])
def test_tuple_orders_are_strict_total_orders(kind, size, k):
    order = BaseOrder(range(size))
    tuples = sorted(
        itertools.product(order.elements, repeat=k),
        key=functools.cmp_to_key(lambda a, b: compare_tuples(order, kind, a, b)),
    )
    for i, a in enumerate(tuples):
        for j, b in enumerate(tuples):
            assert compare_tuples(order, kind, a, b) == _cmp(i, j)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_tuple_lex_matches_builtin_comparison(a, b):
    order = BaseOrder(range(6))
    n = min(len(a), len(b))
    a, b = tuple(a[:n]), tuple(b[:n])
    assert compare_tuples(order, "lex", a, b) == _cmp(a, b)
    assert compare_tuples(order, "alex", a, b) == _cmp(tuple(reversed(a)), tuple(reversed(b)))


def test_base_order_rejects_duplicates():
    with pytest.raises(DomainError):
        BaseOrder([1, 2, 2])


# The comparators as they were before they compared keys: set differences
# for subsets, an index walk for tuples.  The keys must order exactly alike.


def _set_difference_compare(order, kind, a, b):
    """Equality, containment, then the least or greatest rank of each difference."""
    ra = frozenset(order.rank(x) for x in a)
    rb = frozenset(order.rank(x) for x in b)
    if ra == rb:
        return EQUAL
    if ra < rb:
        return GREATER if kind == "clex" else LESS
    if ra > rb:
        return LESS if kind == "clex" else GREATER
    only_a, only_b = ra - rb, rb - ra
    if kind == "lex":
        return LESS if min(only_b) < min(only_a) else GREATER
    if kind == "alex":
        return LESS if max(only_a) < max(only_b) else GREATER
    return LESS if min(only_a) < min(only_b) else GREATER


def _index_walk_compare(order, kind, a, b):
    """The first differing index, from the left for lex, from the right for alex."""
    indices = range(len(a)) if kind == "lex" else range(len(a) - 1, -1, -1)
    for i in indices:
        if a[i] != b[i]:
            return LESS if order.rank(a[i]) < order.rank(b[i]) else GREATER
    return EQUAL


# declared out of the elements' natural order, so ranks differ from values
SHUFFLED = BaseOrder(["d", "a", "e", "b", "c"])


@pytest.mark.parametrize("kind", SUBSET_ORDER_KINDS)
def test_subset_keys_match_set_difference_reference(kind):
    subsets = all_subsets(SHUFFLED)
    for a, b in itertools.product(subsets, repeat=2):
        expected = _set_difference_compare(SHUFFLED, kind, a, b)
        assert compare_subsets(SHUFFLED, kind, a, b) == expected
        assert _cmp(subset_key(SHUFFLED, kind, a), subset_key(SHUFFLED, kind, b)) == expected
    random.Random(f"orders:{kind}").shuffle(subsets)
    assert sort_subsets(SHUFFLED, kind, subsets) == sorted(subsets, key=functools.cmp_to_key(
        lambda a, b: _set_difference_compare(SHUFFLED, kind, a, b)))


@pytest.mark.parametrize("kind", TUPLE_ORDER_KINDS)
def test_tuple_keys_match_cmp_to_key_sort(kind):
    poset = LinOrderedPoset.build(SHUFFLED.elements[:3], [])
    order = poset.order
    tuples = list(itertools.product(order.elements, repeat=3))
    for a, b in itertools.product(tuples, repeat=2):
        expected = _index_walk_compare(order, kind, a, b)
        assert compare_tuples(order, kind, a, b) == expected
        assert _cmp(tuple_key(order, kind, a), tuple_key(order, kind, b)) == expected
    random.Random(f"orders:{kind}").shuffle(tuples)
    expected = sorted(tuples, key=functools.cmp_to_key(
        lambda a, b: _index_walk_compare(order, kind, a, b)))
    assert _tuple_points(poset, 3, 27, kind) == expected

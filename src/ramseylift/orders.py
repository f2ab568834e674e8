"""Strict orders on finite subsets and tuples of a linearly ordered base set.

Three subset orders (``lex``, ``alex``, ``clex``) and two tuple orders
(``lex``, ``alex``) over an explicitly declared finite linear order.
All comparators are three-way and total.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import DomainError

LESS = -1
EQUAL = 0
GREATER = 1

SUBSET_ORDER_KINDS = ("lex", "alex", "clex")
TUPLE_ORDER_KINDS = ("lex", "alex")


@dataclass(frozen=True)
class BaseOrder:
    """A finite linearly ordered set.

    The declared sequence order of ``elements`` is the linear order used by
    every comparator; elements are ranked by declaration position.
    """

    elements: tuple[Hashable, ...]

    def __init__(self, elements: Iterable[Hashable]):
        object.__setattr__(self, "elements", tuple(elements))
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("base order elements must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.rank_map

    @cached_property
    def rank_map(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def rank(self, x) -> int:
        try:
            return self.rank_map[x]
        except KeyError:
            raise DomainError(f"element {x!r} is not in the base order") from None

    def ranks(self, xs: Iterable) -> frozenset[int]:
        return frozenset(self.rank(x) for x in xs)


def _check_kind(kind: str, allowed: tuple[str, ...]) -> None:
    if kind not in allowed:
        raise DomainError(f"unknown order kind {kind!r}; expected one of {allowed}")


def compare_subsets(order: BaseOrder, kind: str, a: Iterable, b: Iterable) -> int:
    """Three-way comparison of two subsets of ``order`` under ``kind``.

    Dispatch order is: equality, containment, then the incomparable branch.
    The incomparable branch therefore always sees two nonempty differences,
    so no min/max-of-empty-set convention is ever needed.
    """
    _check_kind(kind, SUBSET_ORDER_KINDS)
    ra = order.ranks(a)
    rb = order.ranks(b)
    if ra == rb:
        return EQUAL
    if ra < rb:  # proper subset
        return GREATER if kind == "clex" else LESS
    if ra > rb:  # proper superset
        return LESS if kind == "clex" else GREATER
    only_a = ra - rb
    only_b = rb - ra
    if kind == "lex":
        return LESS if min(only_b) < min(only_a) else GREATER
    if kind == "alex":
        return LESS if max(only_a) < max(only_b) else GREATER
    return LESS if min(only_a) < min(only_b) else GREATER  # clex


def compare_tuples(order: BaseOrder, kind: str, a: Sequence, b: Sequence) -> int:
    """Three-way comparison of two equal-length tuples over ``order``.

    ``lex`` decides at the least differing index, ``alex`` at the greatest.
    """
    _check_kind(kind, TUPLE_ORDER_KINDS)
    if len(a) != len(b):
        raise DomainError(f"tuple length mismatch: {len(a)} vs {len(b)}")
    ra = [order.rank(x) for x in a]
    rb = [order.rank(x) for x in b]
    indices = range(len(ra)) if kind == "lex" else range(len(ra) - 1, -1, -1)
    for i in indices:
        if ra[i] != rb[i]:
            return LESS if ra[i] < rb[i] else GREATER
    return EQUAL


def sort_subsets(order: BaseOrder, kind: str, subsets: Iterable[Iterable]) -> list[frozenset]:
    """Sort subsets strictly increasing under the chosen subset order."""
    items = [frozenset(s) for s in subsets]
    return sorted(items, key=functools.cmp_to_key(lambda x, y: compare_subsets(order, kind, x, y)))

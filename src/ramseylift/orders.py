"""Strict orders on finite subsets and tuples of a linearly ordered base set.

Three subset orders (``lex``, ``alex``, ``clex``) and two tuple orders
(``lex``, ``alex``) over an explicitly declared finite linear order, each
a sort key on ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import DomainError

SUBSET_ORDER_KINDS = ("lex", "alex", "clex")
TUPLE_ORDER_KINDS = ("lex", "alex")


@dataclass(frozen=True)
class BaseOrder:
    """A finite linearly ordered set.

    The declared sequence order of ``elements`` is the linear order used by
    every sort key; elements are ranked by declaration position.
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


def _check_kind(kind: str, allowed: tuple[str, ...]) -> None:
    if kind not in allowed:
        raise DomainError(f"unknown order kind {kind!r}; expected one of {allowed}")


def subset_key(order: BaseOrder, kind: str, s: Iterable) -> int:
    """An integer that sorts subsets like ``kind``: for ``alex`` the rank
    bitmask, for ``lex`` the mask with rank 0 as its highest bit (the least
    differing rank decides), for ``clex`` the negation of that."""
    _check_kind(kind, SUBSET_ORDER_KINDS)
    ranks = {order.rank(x) for x in s}
    if kind == "alex":
        return sum(1 << r for r in ranks)
    key = sum(1 << len(order) - 1 - r for r in ranks)
    return key if kind == "lex" else -key


def tuple_key(order: BaseOrder, kind: str, t: Sequence) -> tuple[int, ...]:
    """The entries' ranks, last entry first for ``alex``: ``lex`` decides at
    the least differing index, ``alex`` at the greatest.  The decoders and
    phi order rank tuples without it; it is the reference the tests hold
    them to."""
    _check_kind(kind, TUPLE_ORDER_KINDS)
    ranks = tuple([order.rank(x) for x in t])
    return ranks if kind == "lex" else ranks[::-1]


def sort_subsets(order: BaseOrder, kind: str, subsets: Iterable[Iterable]) -> list[frozenset]:
    """Sort subsets strictly increasing under the chosen subset order."""
    return sorted(map(frozenset, subsets), key=lambda s: subset_key(order, kind, s))

"""Graphs and posets as families of subsets, encoded into parameter words.

A structure whose family lists subsets F_1, ..., F_m of its universe
encodes to the object m.  A word u with m parameters sends x to the union
of the variable blocks X_a (the positions of x_a in u) over the members
F_a containing x: an embedding into the structure on subsets of u's
positions, ordered by clex, under the kind's relation.  Only the family
and that relation differ between graphs and posets.

The witness for an embedding f of E into D sends D's a-th member to x_j
when its f-preimage is E's j-th member, and to a letter when it is empty.
An embedding pulls a vertex back to a vertex or nothing, an edge back to
an edge, a vertex or nothing, and a downset back to a downset or nothing,
so every preimage is a member of E's family or empty.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import DomainError, VerificationError
from .orders import BaseOrder, sort_subsets
from .words import ParameterWord, compose, letter_token, validate


class SubsetEncoding:
    """The half of an encoding that does not depend on the kind.  A subclass
    names the encoded ``structure``, its ``family`` (subsets of the universe
    in encoding order) and ``related(a, b)``, the target relation on two
    subsets, given as sets or as bitmasks."""

    @property
    def object(self) -> int:
        return len(self.family)

    @cached_property
    def members(self) -> tuple[int, ...]:
        """The family as rank masks of the structure."""
        rank = self.structure.order.rank_map
        return tuple(sum(1 << rank[x] for x in m) for m in self.family)

    @cached_property
    def holding(self) -> tuple[tuple[int, ...], ...]:
        """``holding[r]``: the indices of the members that contain rank r."""
        return tuple(tuple(a for a, m in enumerate(self.members) if m >> r & 1)
                     for r in range(len(self.structure.universe)))


def _positions(mask: int, n: int) -> frozenset[int]:
    """The positions in an image mask, where position p is bit n - p."""
    return frozenset(p for p in range(1, n + 1) if mask >> n - p & 1)


def _images(enc: SubsetEncoding, u: ParameterWord) -> list[int]:
    """The image of each rank as a position mask, checked to be an embedding.

    Position p is bit n - p, so clex-increasing images are decreasing masks.
    Each pair of ranks, in both directions, must bear the structure's
    relation exactly when its images bear ``enc.related``.
    """
    s = enc.structure
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the {s.kind} encodes to object {enc.object}"
        )
    n = u.n
    parts = [0] * u.m
    for pos, tok in enumerate(u.symbols, start=1):
        if tok > 0:
            parts[tok - 1] |= 1 << n - pos
    images = []
    for held in enc.holding:
        img = 0
        for a in held:
            img |= parts[a]
        images.append(img)
    k, rows, related, uni = len(images), s.relation_rows, enc.related, s.universe
    for r, q in itertools.combinations(range(k), 2):
        a, b = images[r], images[q]
        if (related(a, b) != rows[k + r] >> q & 1
                or related(b, a) != rows[k + q] >> r & 1):
            raise VerificationError(
                f"images of {uni[r]!r},{uni[q]!r} do not bear the {s.kind} relation"
            )
        if not a > b:
            raise VerificationError(f"images of {uni[r]!r},{uni[q]!r} are not clex-increasing")
    return images


def phi(enc: SubsetEncoding, u: ParameterWord) -> dict:
    """The map x -> union of X_a over the members F_a containing x, with
    every embedding clause checked (see :func:`_images`)."""
    return {x: _positions(img, u.n) for x, img in zip(enc.structure.universe, _images(enc, u))}


def witness(enc: SubsetEncoding, enc2: SubsetEncoding, f, u: ParameterWord) -> ParameterWord:
    """The preimage witness (see the module docstring), validated as a
    parameter word, with ``phi(D, u) after f == phi(E, u.h)`` checked exactly."""
    D, E = enc.structure, enc2.structure
    if f.source != E or f.target != D:
        raise DomainError(f"witness requires an embedding of the second {D.kind} into the first")
    if not u.alphabet.letters:
        raise DomainError("witness construction needs at least one letter for the blanks")
    u_hat = _images(enc, u)
    index = {m: j for j, m in enumerate(enc2.members, start=1)}
    symbols = []
    for member in enc.members:
        pre = sum(1 << i for i, t in enumerate(f.ranks) if member >> t & 1)
        if pre and pre not in index:
            raise VerificationError(
                f"preimage {[x for i, x in enumerate(E.universe) if pre >> i & 1]!r} "
                f"of a member is not a member of the embedded {E.kind}'s family"
            )
        symbols.append(index[pre] if pre else letter_token(0))
    h = validate(symbols, u.alphabet, enc2.object)
    for x, img, t in zip(E.universe, _images(enc2, compose(u, h)), f.ranks):
        if img != u_hat[t]:
            raise VerificationError(
                f"factorization fails at {x!r}: "
                f"{sorted(_positions(img, u.n))} vs {sorted(_positions(u_hat[t], u.n))}"
            )
    return h


def on_subsets(n: int, subsets, related) -> tuple[list[frozenset], list[int]]:
    """The given subsets of {1..n}, linearly ordered by clex, each with its
    row: bit q is set when ``related`` holds from it to the q-th subset."""
    elems = sort_subsets(BaseOrder(range(1, n + 1)), "clex", subsets)
    masks = [sum(1 << x for x in e) for e in elems]
    return elems, [sum(1 << q for q, b in enumerate(masks) if related(a, b)) for a in masks]


def powerset(n: int) -> list[frozenset]:
    """Every subset of {1..n}; 2^n of them, so keep n small."""
    return [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]

"""Encoding of linearly ordered posets into the parameter-word category.

A poset encodes to the number of its nonempty downsets, listed in the
anti-lexicographic subset order.  A word u with that many parameters maps
element i to the union of the variable-position blocks of the downsets
containing i; this is an embedding into the poset of subsets of {1..n}
under reverse inclusion with the complemented lexicographic linear order.
The anti-lexicographic listing is load-bearing: it is what makes the
witness word below well-formed for every embedding of a subposet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, VerificationError
from .orders import BaseOrder, sort_subsets, subset_key
from .structures import Embedding, LinOrderedPoset, _memo_recent, downsets
from .words import ParameterWord, compose, letter_token, validate, variable_positions


@dataclass(frozen=True)
class PosetEncoding:
    poset: LinOrderedPoset
    downsets: tuple[frozenset, ...]  # nonempty, strictly increasing under alex

    @property
    def object(self) -> int:
        return len(self.downsets)


@_memo_recent
def encode_poset(p: LinOrderedPoset) -> PosetEncoding:
    return PosetEncoding(p, downsets(p))


def phi_poset(p: LinOrderedPoset, u: ParameterWord) -> dict:
    """The element map i -> union of X_a over downsets D_a containing i.

    Verifies that the map lands in the reverse-inclusion subset poset:
    comparable elements map to nested sets, incomparable ones to
    set-incomparable sets, and the linear order to strictly clex-increasing
    images.
    """
    enc = encode_poset(p)
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the poset encodes to object {enc.object}"
        )
    parts = [variable_positions(u, a) for a in range(1, u.m + 1)]
    images = {}
    for i in p.universe:
        img = set()
        for a, dset in enumerate(enc.downsets):
            if i in dset:
                img |= parts[a]
        images[i] = frozenset(img)
    positions = BaseOrder(range(1, u.n + 1))
    key = {i: subset_key(positions, "clex", img) for i, img in images.items()}
    for i, j in itertools.permutations(p.universe, 2):
        if p.below(i, j) and not images[i] >= images[j]:
            raise VerificationError(f"image of {i!r} does not contain image of {j!r}")
    for i, j in itertools.combinations(p.universe, 2):
        if not p.comparable(i, j):
            if images[i] >= images[j] or images[i] <= images[j]:
                raise VerificationError(
                    f"incomparable {i!r},{j!r} got nested images"
                )
        if not key[i] < key[j]:
            raise VerificationError(f"images of {i!r},{j!r} are not clex-increasing")
    return images


def witness_poset(
    p: LinOrderedPoset, p2: LinOrderedPoset, f: Embedding, u: ParameterWord
) -> ParameterWord:
    """The word h whose i-th token is x_j when the f-preimage of the i-th
    downset of ``p`` is the j-th downset of ``p2``, and a letter when the
    preimage is empty.

    Several i may share the same j.  The result is validated as a parameter
    word (first occurrences are increasing because preimages respect the
    anti-lexicographic listing) and the factorization
    ``phi(p, u) after f == phi(p2, u.h)`` is checked exactly.
    """
    if f.source != p2 or f.target != p:
        raise DomainError("witness requires an embedding of the second poset into the first")
    if not u.alphabet.letters:
        raise DomainError("witness construction needs at least one letter for the blanks")
    enc = encode_poset(p)
    enc2 = encode_poset(p2)
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the poset encodes to object {enc.object}"
        )
    index2 = {dset: j for j, dset in enumerate(enc2.downsets)}
    symbols = []
    for dset in enc.downsets:
        preimage = frozenset(b for b in p2.universe if f(b) in dset)
        if not preimage:
            symbols.append(letter_token(0))
            continue
        j = index2.get(preimage)
        if j is None:
            raise VerificationError(
                f"preimage {sorted(preimage)!r} of a downset is not a downset of the subposet"
            )
        symbols.append(j + 1)
    h = validate(symbols, u.alphabet, enc2.object)
    u_hat = phi_poset(p, u)
    check = phi_poset(p2, compose(u, h))
    for b in p2.universe:
        if check[b] != u_hat[f(b)]:
            raise VerificationError(
                f"factorization fails at element {b!r}: "
                f"{sorted(check[b])} vs {sorted(u_hat[f(b)])}"
            )
    return h


def poset_on_subsets(n: int, subsets) -> LinOrderedPoset:
    """The poset of given subsets of {1..n} under reverse inclusion,
    linearly ordered by clex."""
    positions = BaseOrder(range(1, n + 1))
    elems = sort_subsets(positions, "clex", subsets)
    pairs = [
        (a, b) for a, b in itertools.permutations(elems, 2) if a > b  # reverse inclusion
    ]
    return LinOrderedPoset.build(elems, pairs)


def powerset_poset(n: int, include_empty: bool = True) -> LinOrderedPoset:
    """The full subset poset on {1..n} under reverse inclusion; 2^n elements."""
    base = list(range(1, n + 1))
    subsets = [
        frozenset(c) for r in range(0 if include_empty else 1, n + 1)
        for c in itertools.combinations(base, r)
    ]
    return poset_on_subsets(n, subsets)

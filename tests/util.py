"""Shared brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive filters and generators
that the library implementations are checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from ramseylift.errors import EmbeddingError
from ramseylift.structures import (
    LinOrderedGraph,
    LinOrderedPoset,
    check_embedding,
)
from ramseylift.words import Alphabet, WordError, letter_token, validate, var_token


def all_graphs_on(n: int):
    """Every linearly ordered graph on universe 1..n."""
    vertices = list(range(1, n + 1))
    pairs = list(itertools.combinations(vertices, 2))
    for picks in itertools.product([False, True], repeat=len(pairs)):
        edges = [p for p, take in zip(pairs, picks) if take]
        yield LinOrderedGraph.build(vertices, edges)


def all_posets_on(n: int):
    """Every linearly ordered poset on universe 1..n whose partial order is
    extended by the natural order (relations only point upward)."""
    elems = list(range(1, n + 1))
    pairs = list(itertools.combinations(elems, 2))
    for picks in itertools.product([False, True], repeat=len(pairs)):
        rel = {p for p, take in zip(pairs, picks) if take}
        if all(
            (a, d) in rel
            for (a, b) in rel
            for (c, d) in rel
            if b == c
        ):
            yield LinOrderedPoset.build(elems, rel)


def brute_force_embeddings(src, tgt):
    """All injective maps src -> tgt filtered through check_embedding."""
    out = []
    for image in itertools.permutations(tgt.universe, len(src.universe)):
        mapping = dict(zip(src.universe, image))
        try:
            out.append(check_embedding(mapping, src, tgt))
        except EmbeddingError:
            continue
    return out


def brute_force_words(alphabet: Alphabet, n: int, m: int):
    """All token strings of length n over letters plus x1..xm that validate."""
    tokens = [letter_token(j) for j in range(len(alphabet))]
    tokens += [var_token(i) for i in range(1, m + 1)]
    out = []
    for symbols in itertools.product(tokens, repeat=n):
        try:
            out.append(validate(symbols, alphabet, m))
        except WordError:
            continue
    return out


def is_nonneg_combination(value: Fraction, generators: list[Fraction]) -> bool:
    """Whether value is a nonnegative integer combination of the generators
    (coin-change reachability over their common denominator)."""
    positive = tuple(sorted({g for g in generators if g > 0}))
    den = math.lcm(*(g.denominator for g in positive))
    scaled = value * den
    if value < 0 or scaled.denominator != 1:
        return False
    limit = int(max((value, *positive)) * den)
    return bool(_reachable(positive, den, limit) >> int(scaled) & 1)


@functools.lru_cache(maxsize=8)
def _reachable(generators: tuple[Fraction, ...], den: int, limit: int) -> int:
    """Bit t is set when t/den, for t <= limit, is a nonnegative integer
    combination of the generators.  Shifting by g, 2g, 4g, ... adds every
    multiple of g up to the limit; callers asking about the values of one
    input share the limit, so the set is built once per input."""
    window = (1 << (limit + 1)) - 1
    bits = 1
    for g in generators:
        shift = int(g * den)
        while shift <= limit:
            bits = (bits | bits << shift) & window
            shift *= 2
    return bits

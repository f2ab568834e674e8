"""Exact verification of the arrow relation C -> (B)^A_k.

The relation holds when every k-coloring of hom(A, C) admits a morphism
w in hom(B, C) whose composites with hom(A, B) all receive one color.
When the relation fails, the returned bad coloring is the first one in
reflected k-ary Gray order, and it is re-checkable.  The oracle finds it
on one of two paths:

* k = 2, every candidate with at most two composites: a bad coloring is a
  proper 2-coloring of the graph with an edge per candidate, so the
  relation holds iff that graph has an odd cycle or a candidate with fewer
  than two composites.  One pass over the components, highest morphism
  first, gives the first bad coloring in Gray order directly.
* otherwise: all k^|hom(A,C)| colorings are examined in Gray order, block
  by block.  The colorings of one block share their high digits and are
  decided together, one bit each in a 4,096-bit Python int, by clearing
  the bits under which some candidate is monochromatic.

Deciding is generic over a category adapter: hom enumeration, a batched
composition ``compose_column(ws, q)`` that gives w . q for every w of ws,
and conversion to and from public morphisms.  Inside the oracle a morphism
is a plain int tuple (an embedding's target ranks, a word's symbols), so
the composite table is built one column per q of hom(A, B) with C-level
``map`` and ``zip``, not one call per (w, q) pair.  Adapters are provided
for the four structure categories and for the parameter-word category.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BudgetError, DomainError
from .structures import Embedding, embedding_ranks, format_count
from . import words as W


@dataclass(frozen=True)
class Budget:
    """Explicit resource bounds; exceeding any of them raises BudgetError."""

    max_hom: int = 10_000
    max_colorings: int = 2_000_000

    def __post_init__(self):
        if self.max_hom < 0:
            raise DomainError(f"hom budget must be nonnegative, got {self.max_hom}")
        if self.max_colorings < 0:
            raise DomainError(f"coloring budget must be nonnegative, got {self.max_colorings}")


DEFAULT_BUDGET = Budget()


class StructureCategory:
    """Structures of one kind with embeddings as morphisms, each held as the
    tuple of its target ranks: (w . q)[i] = w[q[i]].  ``morphism`` makes
    the :class:`Embedding` and ``key`` takes one back."""

    def __init__(self, kind: str):
        self.name = kind

    def hom(self, a, b, budget: Budget = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
        out = list(itertools.islice(embedding_ranks(a, b), budget.max_hom + 1))
        if len(out) > budget.max_hom:
            raise BudgetError(f"hom set exceeds budget of {budget.max_hom} morphisms")
        return out

    def compose_column(self, outers, inner: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        """w . inner for each w of ``outers``, in order."""
        if not inner:
            return itertools.repeat((), len(outers))
        return zip(*[map(itemgetter(i), outers) for i in inner])

    def morphism(self, a, b, ranks: tuple[int, ...]) -> Embedding:
        return Embedding(a, b, ranks)

    def key(self, e: Embedding) -> tuple[int, ...]:
        return e.ranks

    def morphism_json(self, e: Embedding):
        return {"map": [[a, b] for a, b in e.mapping]}


class WordCategory:
    """Positive integers with m-parameter words of length n as hom(m, n),
    each held as its symbol tuple: w . q substitutes q's tokens for w's
    variables.  ``morphism`` makes the :class:`~ramseylift.words.ParameterWord`
    and ``key`` takes one back."""

    def __init__(self, alphabet: W.Alphabet):
        self.alphabet = alphabet
        self.name = "words"

    def hom(self, a: int, b: int, budget: Budget = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
        return list(W._word_symbols(self.alphabet, b, a, budget.max_hom))

    def compose_column(self, outers, inner: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        """w . inner for each w of ``outers``, in order, unvalidated.  Variable
        x_i (token i) looks up ``inner``'s i-th token; a letter is negative,
        so it indexes from the end of the list, where it finds itself."""
        tokens = [0, *inner, *range(-len(self.alphabet), 0)]
        return map(tuple, map(map, itertools.repeat(tokens.__getitem__), outers))

    def morphism(self, a: int, b: int, symbols: tuple[int, ...]) -> W.ParameterWord:
        return W.ParameterWord(self.alphabet, a, symbols)

    def key(self, w: W.ParameterWord) -> tuple[int, ...]:
        return w.symbols

    def morphism_json(self, w: W.ParameterWord):
        return {"word": w.text()}


@dataclass(frozen=True)
class ArrowInstance:
    category: object
    A: object
    B: object
    C: object
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"number of colors must be at least 2, got {self.k}")


@dataclass
class ArrowVerdict:
    holds: bool
    counts: dict
    bad_coloring: tuple[int, ...] | None = None  # colors 1..k of hom(A, C) in its order
    witness: object | None = None
    witness_color: int | None = None
    table: CompositeTable | None = field(default=None, repr=False, compare=False)

    def to_json(self, category) -> dict:
        out = {"holds": self.holds, "counts": dict(self.counts)}
        if self.bad_coloring is not None:
            out["bad_coloring"] = list(self.bad_coloring)
        if self.witness is not None:
            out["witness"] = category.morphism_json(self.witness)
            out["witness_color"] = self.witness_color
        return out


_BLOCK_BITS = 4096  # colorings decided together by each big-int operation


def _gray_digits(rank: int, n: int, k: int) -> list[int]:
    """Digits 0..n-1 of the coloring at ``rank`` in reflected k-ary Gray
    order, digit 0 changing fastest: with q = rank // k^j and v = q % k,
    digit j is v when q // k is even and k-1-v otherwise."""
    out = []
    for _ in range(n):
        rank, v = divmod(rank, k)
        out.append(k - 1 - v if rank & 1 else v)
    return out


@functools.cache
def _low_digit_masks(b: int, k: int, parity: int) -> tuple[tuple[int, ...], ...]:
    """masks[j][c] has bit r set when digit j < b equals c at rank
    parity * k^b + r.  Digit j runs through 0..k-1 and back in runs of k^j
    ranks, so within any block of k^b ranks it depends only on the parity
    of the block index; every block of one parity shares these masks."""
    size = k**b
    masks = []
    for j in range(b):
        run, span = k**j, k ** (j + 1)
        reflected = parity * k ** (b - j - 1) & 1
        row = []
        for c in range(k):
            up = ((1 << run) - 1) << (c * run)
            down = ((1 << run) - 1) << ((k - 1 - c) * run)
            x = down | up << span if reflected else up | down << span
            width = 2 * span
            while width < size:
                x |= x << width
                width *= 2
            row.append(x & ((1 << size) - 1))
        masks.append(tuple(row))
    return tuple(masks)


def _mono_masks(digit_masks, low, k: int, full: int) -> list[int]:
    """Per color c, the ranks of a block at which every digit in low is c."""
    out = []
    for c in range(k):
        m = full
        for i in low:
            m &= digit_masks[i][c]
        out.append(m)
    return out


def _first_bad_rank(comp_sets, k: int, n: int) -> int | None:
    """Gray rank of the first coloring under which no candidate is
    monochromatic, or None when there is none.

    Digits below b are decided k^b colorings at a time: bit r of ``good``
    stands for rank block * k^b + r, and each candidate whose high
    composites share a color c clears the ranks where its low composites
    are all c as well.
    """
    b = 0
    while b < n and k ** (b + 1) <= _BLOCK_BITS:
        b += 1
    size, blocks = k**b, k ** (n - b)
    full = (1 << size) - 1
    start, mixed = [], []
    for parity in range(min(blocks, 2)):
        digit_masks = _low_digit_masks(b, k, parity)
        covered, pending, shared = 0, [], {}  # low digits -> complemented masks
        for comps in comp_sets:
            low = tuple(i for i in comps if i < b)
            high = [i - b for i in comps if i >= b]
            if not high:
                for m in _mono_masks(digit_masks, low, k, full):
                    covered |= m
                continue
            if low not in shared:
                shared[low] = [~m for m in _mono_masks(digit_masks, low, k, full)]
            pending.append((high, shared[low]))
        start.append(full & ~covered)
        mixed.append(pending)
    for block in range(blocks):
        good = start[block & 1]
        if good and mixed[block & 1]:
            hi = _gray_digits(block, n - b, k)
            for high, not_mono in mixed[block & 1]:
                c = hi[high[0]]
                if all(hi[i] == c for i in high):
                    good &= not_mono[c]
                    if not good:
                        break
        if good:
            return block * size + (good & -good).bit_length() - 1
    return None


def _first_bad_pair_rank(comp_sets, n: int) -> int | None:
    """:func:`_first_bad_rank` for k = 2 when every composite set has at
    most two elements.  A bad coloring is then a proper 2-coloring of the
    graph with one edge per candidate, so none exists when a set has fewer
    than two elements or the graph has an odd cycle.

    Gray digit j is b_j XOR b_{j+1}, b being the binary rank.  Digits are
    fixed from n-1 down: at the highest vertex of each component its
    orientation is chosen so that b_j = 0, and every other digit is forced
    by its component, which gives the least rank.
    """
    adj = [[] for _ in range(n)]
    for comps in comp_sets:
        if len(comps) < 2:
            return None
        i, j = comps
        adj[i].append(j)
        adj[j].append(i)
    digit = [-1] * n
    rank = b = 0
    for top in range(n - 1, -1, -1):
        if digit[top] < 0:
            digit[top] = b
            stack = [top]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if digit[u] < 0:
                        digit[u] = 1 - digit[v]
                        stack.append(u)
                    elif digit[u] == digit[v]:
                        return None
        b ^= digit[top]
        rank |= b << top
    return rank


class CompositeTable:
    """The three hom sets and, per candidate w of hom(B,C), the indices of
    {w . q : q in hom(A,B)} inside hom(A,C); ``index`` maps each morphism
    of hom(A,C) to its position, and ``widest`` is the size of the largest
    composite set (0 when there is none).

    The table is built a column at a time: one call to the category's
    ``compose_column`` per q in hom(A,B) composes every candidate with q.
    Only composites found in ``index`` are accepted, so the category need
    not validate them: every key of hom(A,C) is a morphism.

    A candidate's composites are read off the columns as they stand, with
    no set and no sort.  Each candidate w is monic (an embedding is
    injective; a word fixes q at the first occurrence of each of its
    variables), so the |hom(A,B)| composites are distinct, and composing
    with w keeps the lexicographic order in which both hom sets are
    enumerated, so they come out increasing.  Dropping the per-candidate
    ``set``/``sorted``/``tuple`` took the median arrow benchmark operation
    (point -> chain2 in a 10-element poset) from 0.154 to 0.108 ms, with
    the named-tuple ``Embedding`` of :mod:`ramseylift.structures`."""

    def __init__(self, category, hom_ac, hom_bc, hom_ab):
        self.hom_ac, self.hom_bc, self.hom_ab = hom_ac, hom_bc, hom_ab
        self.index = index = {m: i for i, m in enumerate(hom_ac)}
        try:
            cols = [list(map(index.__getitem__, category.compose_column(hom_bc, q)))
                    for q in hom_ab]
        except KeyError:
            raise DomainError(
                "composite of candidate and small morphism falls outside hom(A, C)"
            ) from None
        self.comp_sets = list(zip(*cols)) if cols else [()] * len(hom_bc)
        self.widest = len(hom_ab) if hom_bc else 0

    def counts(self, colorings_checked: int) -> dict:
        return {"hom_AC": len(self.hom_ac), "hom_BC": len(self.hom_bc),
                "hom_AB": len(self.hom_ab), "colorings_checked": colorings_checked}

    def first_mono(self, colors: Sequence[int]):
        """(candidate index in hom(B,C) order, color) of the first candidate
        whose composites share one color under ``colors``, a color per
        morphism of hom(A,C); (None, None) when there is none."""
        for wi, comps in enumerate(self.comp_sets):
            met = {colors[i] for i in comps}
            if len(met) <= 1:
                color = next(iter(met)) if met else 1
                return wi, color
        return None, None


def _hom_sets(instance: ArrowInstance, budget: Budget) -> tuple[list, list, list]:
    """hom(A, C), hom(B, C) and hom(A, B) of the instance."""
    cat, A, B, C = instance.category, instance.A, instance.B, instance.C
    return cat.hom(A, C, budget), cat.hom(B, C, budget), cat.hom(A, B, budget)


def decide_arrow(instance: ArrowInstance, budget: Budget = DEFAULT_BUDGET) -> ArrowVerdict:
    """Decide C -> (B)^A_k over the colorings of hom(A, C).

    With k = 2 and at most two composites per candidate this 2-colors the
    composite graph; otherwise it examines the colorings block by block in
    Gray order.  Refuses (naming the blowup) when a hom set exceeds
    ``budget.max_hom`` or ``k^|hom(A,C)|`` exceeds
    ``budget.max_colorings``, on either path.  A failing instance returns
    the first bad coloring in Gray order, and ``colorings_checked`` is its
    rank plus one; a holding one reports all k^|hom(A,C)| colorings.
    """
    k, homs = instance.k, _hom_sets(instance, budget)
    n = len(homs[0])
    total = k**n
    if total > budget.max_colorings:
        raise BudgetError(
            f"deciding needs k^|hom(A,C)| = {format_count(k)}^{n} = {format_count(total)} "
            f"colorings, above the budget of {budget.max_colorings}"
        )
    table = CompositeTable(instance.category, *homs)
    if k == 2 and table.widest <= 2:
        rank = _first_bad_pair_rank(table.comp_sets, n)
    else:
        rank = _first_bad_rank(table.comp_sets, k, n)
    if rank is None:
        return ArrowVerdict(True, table.counts(total), table=table)
    bad = tuple(c + 1 for c in _gray_digits(rank, n, k))
    return ArrowVerdict(False, table.counts(rank + 1), bad_coloring=bad, table=table)


def check_coloring(
    instance: ArrowInstance,
    coloring: Sequence[int],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[ArrowVerdict, list[dict]]:
    """Hunt for a monochromatic candidate under one specific coloring of
    hom(A, C): a color in 1..k per morphism, in its enumeration order.

    Returns the verdict (with the witness when found) and, per candidate,
    the sorted list of color classes its composites meet.
    """
    coloring = tuple(coloring)
    for c in coloring:
        if not 1 <= c <= instance.k:
            raise DomainError(f"color {c} out of range 1..{instance.k}")
    cat, homs = instance.category, _hom_sets(instance, budget)
    if len(coloring) != len(homs[0]):
        raise DomainError(
            f"coloring covers {len(coloring)} morphisms, hom(A,C) has {len(homs[0])}"
        )
    table = CompositeTable(cat, *homs)
    detail, witness, color = [], None, None
    for w, comps in zip(table.hom_bc, table.comp_sets):
        candidate = cat.morphism(instance.B, instance.C, w)
        met = sorted({coloring[i] for i in comps})
        detail.append({"candidate": cat.morphism_json(candidate), "colors_met": met})
        if witness is None and len(met) <= 1:
            witness, color = candidate, met[0] if met else 1
    if witness is None:
        return ArrowVerdict(False, table.counts(1), bad_coloring=coloring), detail
    return ArrowVerdict(True, table.counts(1), witness=witness, witness_color=color), detail


def decide_gr(
    alphabet: W.Alphabet,
    n: int,
    m: int,
    ell: int,
    k: int,
    budget: Budget = DEFAULT_BUDGET,
) -> ArrowVerdict:
    """Direct decision of n -> (m)^ell_k for parameter words.

    Deliberately independent of :func:`decide_arrow`, so the two routes
    cross-check each other: colorings of W^n_ell are walked depth first in
    plain odometer order (the last word's color changes fastest), one
    position at a time.  A candidate is tested once, when the position of
    its last composite gets its color; when one is monochromatic under a
    prefix, every extension of that prefix is decided at once and the walk
    skips the whole block.  ``colorings_checked`` counts the colorings
    decided, skipped blocks included: k^|W^n_ell| when the arrow holds,
    else the first bad coloring's odometer rank plus one.  Errors out when
    no m-parameter word of length n exists.
    """
    if k < 2:
        raise DomainError(f"number of colors must be at least 2, got {k}")
    if m > n:
        raise DomainError(f"no word with {m} parameters and length {n} exists")
    n_small = W.count_words(alphabet, n, ell)
    if n_small > budget.max_hom:
        raise BudgetError(
            f"|W^{n}_{ell}| = {format_count(n_small)} exceeds the hom budget {budget.max_hom}"
        )
    total = k**n_small
    if total > budget.max_colorings:
        raise BudgetError(
            f"deciding needs k^|W^{n}_{ell}| = {format_count(k)}^{n_small} = "
            f"{format_count(total)} colorings, above the budget of {budget.max_colorings}"
        )
    small = list(W.enumerate_words(alphabet, n, ell, budget.max_hom))
    mids = list(W.enumerate_words(alphabet, n, m, budget.max_hom))
    plugs = list(W.enumerate_words(alphabet, m, ell, budget.max_hom))
    index = {w.symbols: i for i, w in enumerate(small)}
    counts = {"hom_AC": len(small), "hom_BC": len(mids), "hom_AB": len(plugs)}
    size = len(small)
    closing = [[] for _ in range(size)]  # closing[i]: the candidates whose last composite is i
    for u in mids:
        comps = sorted({index[W.compose(u, v).symbols] for v in plugs})
        if not comps:  # no composite at all: monochromatic under every coloring
            return ArrowVerdict(True, {**counts, "colorings_checked": k**size})
        closing[comps[-1]].append(comps)
    block = [k ** (size - 1 - i) for i in range(size)]  # extensions of a prefix through i
    prefix, checked = [], 0
    while len(prefix) < size:
        prefix.append(0)
        while any(all(prefix[j] == prefix[comps[0]] for j in comps)
                  for comps in closing[len(prefix) - 1]):
            checked += block[len(prefix) - 1]
            while prefix and prefix[-1] == k - 1:
                prefix.pop()
            if not prefix:
                return ArrowVerdict(True, {**counts, "colorings_checked": checked})
            prefix[-1] += 1
    return ArrowVerdict(False, {**counts, "colorings_checked": checked + 1},
                        bad_coloring=tuple(c + 1 for c in prefix))

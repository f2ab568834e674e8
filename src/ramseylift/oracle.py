"""Exact verification of the arrow relation C -> (B)^A_k.

The relation holds when every k-coloring of hom(A, C) admits a morphism
w in hom(B, C) whose composites with hom(A, B) all receive one color.
When the relation fails, the returned bad coloring is the
lexicographically first one, in ``itertools.product`` order with
morphism 0 changing slowest, and it is re-checkable.  :func:`decide_gr`
uses the same order.  The oracle finds the coloring on one of two paths:

* k = 2, every candidate with at most two composites: a bad coloring is a
  proper 2-coloring of the graph with an edge per candidate, so the
  relation holds iff that graph has an odd cycle or a candidate with fewer
  than two composites.  One pass over the components, lowest morphism
  first, gives the first bad coloring directly.
* otherwise: a depth-first search colors morphism 0 first and tests each
  candidate with one AND when its highest composite gets a color.  When
  every color of a morphism fails, it jumps back to the nearest morphism
  that the failures involve, skipping only colorings that cannot be bad,
  so the first coloring it completes is the first bad one.

Deciding is generic over a category adapter: hom enumeration, a batched
composition ``compose_column(ws, q)`` that gives w . q for every w of ws,
and conversion to and from public morphisms.  Inside the oracle a morphism
is a plain int tuple (an embedding's target ranks, a word's symbols), so
the composite table is built one column per q of hom(A, B) with C-level
``map`` and ``zip``, not one call per (w, q) pair.  Adapters are provided
for the four structure categories and for the parameter-word category.
"""

from __future__ import annotations

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
    """Nonnegative integers with m-parameter words of length n as hom(m, n),
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


def _first_bad_coloring(comp_sets, k: int, n: int) -> list[int] | None:
    """The lexicographically first coloring, 0-based, under which no
    candidate is monochromatic, or None when there is none.

    A depth-first search colors morphism 0 first, each morphism through
    0..k-1, so the first coloring it completes is the least.  A candidate
    is the bitmask of its composites, tested once, when its highest bit j
    gets a color c: it is monochromatic iff no bit of it lies outside the
    morphisms of color c.

    When every color of morphism j fails, the search jumps back to the
    highest morphism below j that one of the failing candidates, or a
    failure jumped back to j, involves (conflict-directed backjumping,
    Prosser 1993).  The failures depend only on the colors of the
    morphisms in that conflict set, so no morphism in between can change
    them; an empty set means every coloring fails.
    """
    closing = [[] for _ in range(n)]  # closing[j]: the masks whose highest bit is j
    for comps in comp_sets:
        mask = 0
        for i in comps:
            mask |= 1 << i
        if not mask & (mask - 1):  # one composite or none: always monochromatic
            return None
        closing[mask.bit_length() - 1].append(mask)
    colored = [0] * k  # colored[c]: the colored morphisms of color c
    color, conflict = [0] * n, [0] * n
    j = 0
    while j < n:
        c = color[j]
        colored[c] |= 1 << j
        other = ~colored[c]
        for mask in closing[j]:
            if not mask & other:
                break
        else:
            j += 1
            continue
        colored[c] ^= 1 << j  # a monochromatic candidate: c fails
        conflict[j] |= mask ^ 1 << j
        while color[j] == k - 1:  # every color fails: jump back
            jumped, color[j], conflict[j] = conflict[j], 0, 0
            if not jumped:
                return None
            i = jumped.bit_length() - 1
            for t in range(i + 1, j):
                color[t] = conflict[t] = 0
            keep = ~((1 << j) - (1 << i))  # un-color morphisms i..j-1
            colored = [x & keep for x in colored]
            conflict[i] |= jumped ^ 1 << i
            j = i
        color[j] += 1
    return color


def _first_bad_pair_coloring(comp_sets, n: int) -> list[int] | None:
    """:func:`_first_bad_coloring` for k = 2 when every composite set has
    at most two elements.  A bad coloring is then a proper 2-coloring of
    the graph with one edge per candidate, so none exists when a set has
    fewer than two elements or the graph has an odd cycle.  The lowest
    morphism of each component gets color 0 and forces the rest, which
    gives the least coloring.
    """
    adj = [[] for _ in range(n)]
    for comps in comp_sets:
        if len(comps) < 2:
            return None
        i, j = comps
        adj[i].append(j)
        adj[j].append(i)
    color = [-1] * n
    for low in range(n):
        if color[low] < 0:
            color[low] = 0
            stack = [low]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if color[u] < 0:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return None
    return color


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
    enumerated, so they come out increasing."""

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

    def colors_met(self, colors: Sequence[int]) -> list[list[int]]:
        """Per candidate, in hom(B,C) order, the sorted colors its composites
        meet under ``colors``, a color per morphism of hom(A,C)."""
        return [sorted({colors[i] for i in comps}) for comps in self.comp_sets]


def _hom_sets(instance: ArrowInstance, budget: Budget) -> tuple[list, list, list]:
    """hom(A, C), hom(B, C) and hom(A, B) of the instance."""
    cat, A, B, C = instance.category, instance.A, instance.B, instance.C
    return cat.hom(A, C, budget), cat.hom(B, C, budget), cat.hom(A, B, budget)


def decide_arrow(instance: ArrowInstance, budget: Budget = DEFAULT_BUDGET) -> ArrowVerdict:
    """Decide C -> (B)^A_k over the colorings of hom(A, C).

    With k = 2 and at most two composites per candidate this 2-colors the
    composite graph; otherwise it searches the colorings depth first, with
    backjumping.  Refuses (naming the blowup) when a hom set exceeds
    ``budget.max_hom`` or ``k^|hom(A,C)|`` exceeds
    ``budget.max_colorings``, on either path.  A failing instance returns
    the lexicographically first bad coloring, and ``colorings_checked`` is
    its rank in ``itertools.product`` order plus one; a holding one reports
    all k^|hom(A,C)| colorings.
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
        coloring = _first_bad_pair_coloring(table.comp_sets, n)
    else:
        coloring = _first_bad_coloring(table.comp_sets, k, n)
    if coloring is None:
        return ArrowVerdict(True, table.counts(total), table=table)
    rank = 0
    for c in coloring:
        rank = rank * k + c
    bad = tuple(c + 1 for c in coloring)
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
    for w, met in zip(table.hom_bc, table.colors_met(coloring)):
        candidate = cat.morphism(instance.B, instance.C, w)
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
    cross-check each other: it shares no composite table, batched
    composition or backjumping search.  Words stay symbol tuples; u . v
    substitutes v's tokens for u's variables and is accepted only when
    found among the enumerated words of W^n_ell, so nothing is re-validated
    and a miss is a :class:`DomainError`.  Colorings of W^n_ell are walked
    depth first in ``itertools.product`` order (the last word's color
    changes fastest), one position at a time, the order in which
    :func:`decide_arrow` finds its first bad coloring.  A candidate is the
    bitmask of its composites' positions, tested once, when its highest
    position gets a color c: it is monochromatic iff no bit of it lies
    outside the prefix positions of color c, one AND.  Then every
    extension of the prefix is decided at once and the walk skips the
    whole block.  ``colorings_checked`` counts the colorings decided,
    skipped blocks included: k^|W^n_ell| when the arrow holds, else the
    first bad coloring's rank plus one, as in :func:`decide_arrow`.  Errors
    out when no m-parameter word of length n exists.  W^n_ell is enumerated
    under the hom budget before the colorings budget is checked on its
    size, so an oversized W^n_ell gets the enumeration's prompt refusal.
    """
    if k < 2:
        raise DomainError(f"number of colors must be at least 2, got {k}")
    if m > n:
        raise DomainError(f"no word with {m} parameters and length {n} exists")
    small = list(W._word_symbols(alphabet, n, ell, budget.max_hom))
    size = len(small)
    total = k**size
    if total > budget.max_colorings:
        raise BudgetError(
            f"deciding needs k^|W^{n}_{ell}| = {format_count(k)}^{size} = "
            f"{format_count(total)} colorings, above the budget of {budget.max_colorings}"
        )
    mids = list(W._word_symbols(alphabet, n, m, budget.max_hom))
    plugs = list(W._word_symbols(alphabet, m, ell, budget.max_hom))
    bit = {w: 1 << i for i, w in enumerate(small)}
    counts = {"hom_AC": size, "hom_BC": len(mids), "hom_AB": len(plugs)}
    closing = [[] for _ in range(size)]  # closing[i]: the masks whose highest bit is i
    for u in mids:
        mask = 0
        for v in plugs:
            try:
                mask |= bit[tuple([v[t - 1] if t > 0 else t for t in u])]
            except KeyError:
                raise DomainError(f"a composite of W^{n}_{m} and W^{m}_{ell} "
                                  f"falls outside W^{n}_{ell}") from None
        if not mask:  # no composite at all: monochromatic under every coloring
            return ArrowVerdict(True, {**counts, "colorings_checked": k**size})
        closing[mask.bit_length() - 1].append(mask)
    block = [k ** (size - 1 - i) for i in range(size)]  # extensions of a prefix through i
    colored = [0] * k  # colored[c]: the positions before i of color c
    prefix, checked, i = [0] * size, 0, 0  # prefix[i]: the next color position i tries
    while i < size:
        c = prefix[i]
        colored[c] |= 1 << i
        other = ~colored[c]
        for mask in closing[i]:
            if not mask & other:
                break
        else:
            i += 1
            continue
        checked += block[i]  # a monochromatic candidate: skip every extension
        colored[c] ^= 1 << i
        while c == k - 1:
            prefix[i] = 0
            if not i:
                return ArrowVerdict(True, {**counts, "colorings_checked": checked})
            i -= 1
            c = prefix[i]
            colored[c] ^= 1 << i
        prefix[i] = c + 1
    return ArrowVerdict(False, {**counts, "colorings_checked": checked + 1},
                        bad_coloring=tuple(c + 1 for c in prefix))

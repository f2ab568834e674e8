"""Tight spectra and the encoding of linearly ordered metric spaces.

A sorted set ``0 = s_0 < ... < s_k`` is tight when ``s_{i+j} <= s_i + s_j``
for all applicable i, j.  Every finite rational set completes to a tight
one without moving its smallest and largest nonzero values; the completion
interleaves pairwise sums below the next original value until all original
values are swallowed.

A metric space over a tight spectrum encodes to the poset on
``M x {0..k}`` with ``(x,i)`` below ``(y,j)`` iff ``i <= j`` and
``d(x,y) <= s_j - s_i``.  Conversely a poset A yields a metric space on
k-tuples over A: the distance is s_p for the least shift p such that the
tuples dominate each other p steps apart, and tightness of the spectrum is
exactly what makes this a metric.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BudgetError, DomainError, SpectrumError, VerificationError
from .orders import BaseOrder
from .structures import (
    Embedding,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    _check_tuple_images,
    _memo_recent,
    _rank_embedding,
    _tuple_ranks,
    check_structure,
    checked_spectrum,
)

COMPLETION_STEP_CAP = 10**6


def is_tight(values) -> bool:
    """Whether s_{i+j} <= s_i + s_j for all 1 <= i <= j with i+j <= k."""
    return _is_tight(checked_spectrum(values))


def _is_tight(vals: tuple) -> bool:
    """:func:`is_tight` on a spectrum :func:`checked_spectrum` already returned."""
    k = len(vals) - 1
    for i in range(1, k + 1):
        for j in range(i, k - i + 1):
            if vals[i + j] > vals[i] + vals[j]:
                return False
    return True


def tight_complete(values) -> tuple[Fraction, ...]:
    """Complete a sorted rational set to a tight superset, returned as its
    sorted values.

    Starts from t_0 = 0, t_1 = s_1 and repeatedly appends either the next
    original value or, when that would overshoot, the smallest pairwise sum
    m = min(t_a + t_b : a + b = next index).  The result keeps the first
    and last nonzero original values as its own.  The loop provably
    terminates; ``COMPLETION_STEP_CAP`` turns a would-be bug into an error.
    """
    vals = checked_spectrum(values)
    if len(vals) < 2:
        raise SpectrumError("completion needs at least one nonzero value")
    s = list(vals)
    k = len(s) - 1
    t = [s[0], s[1]]
    covered = 1  # s_0..s_covered already appear among the t values
    steps = 0
    while covered < k:
        steps += 1
        if steps > COMPLETION_STEP_CAP:
            raise BudgetError(f"tight completion exceeded {COMPLETION_STEP_CAP} steps")
        i = len(t) - 1
        m = min(t[a] + t[i + 1 - a] for a in range(1, i // 2 + 2) if a <= i + 1 - a)
        nxt = s[covered + 1]
        if nxt <= m:
            t.append(nxt)
            covered += 1
        else:
            t.append(m)  # m < nxt, and m exceeds every value already placed
    out = tuple(t)
    if not is_tight(out):
        raise VerificationError("tight completion produced a non-tight set")
    return out


# ---------------------------------------------------------------------------
# encoding


@_memo_recent
def encode_metric(space: LinOrderedMetricSpace) -> LinOrderedPoset:
    """The poset on (point, level) pairs for levels 0..k.

    Levels are ordered first, points break ties; the relation
    ``(x,i) below (y,j) iff i <= j and d(x,y) <= s_j - s_i`` is a partial
    order for any spectrum, tight or not.
    """
    k = len(space.spectrum) - 1
    dist, spect = space.scaled
    n = len(space.universe)
    gaps = {spect[j] - spect[i] for i in range(k + 1) for j in range(i, k + 1)}
    within = [{g: sum(1 << z for z, v in enumerate(row) if v <= g) for g in gaps} for row in dist]
    up = [1 << (i * n + r) | sum(within[r][spect[j] - spect[i]] << j * n for j in range(i, k + 1))
          for i in range(k + 1) for r in range(n)]
    return LinOrderedPoset.from_rows(
        [(x, i) for i in range(k + 1) for x in space.universe], up)


def _shift(up: tuple[int, ...], a: tuple, b: tuple) -> int:
    """The least p such that the rank tuples dominate each other p steps
    apart (a[i] <= b[i+p] and b[i] <= a[i+p] in the rows ``up``), else k."""
    k = len(a)
    for p in range(k):
        if all(up[a[i]] >> b[i + p] & 1 and up[b[i]] >> a[i + p] & 1 for i in range(k - p)):
            return p
    return k


def decode_poset_metric(poset: LinOrderedPoset, spectrum) -> LinOrderedMetricSpace:
    """The metric tuple space over the poset, on all |A|^k tuples, ordered
    lexicographically.  Validates the metric axioms of the result; refuses
    non-tight spectra and more than ``DEFAULT_MAX_POINTS`` points."""
    spect = checked_spectrum(spectrum)
    if not _is_tight(spect):
        raise SpectrumError("tuple space requires a tight spectrum")
    pts = _tuple_ranks(poset, len(spect) - 1, "lex")
    rows = [[spect[0]] * len(pts) for _ in pts]
    for (r, s), (q, t) in itertools.combinations(enumerate(pts), 2):
        rows[r][q] = rows[q][r] = spect[_shift(poset.rows, s, t)]
    elems = poset.universe
    space = LinOrderedMetricSpace(BaseOrder([tuple(map(elems.__getitem__, t)) for t in pts]),
                                  tuple(map(tuple, rows)), spect)
    check_structure(space)
    return space


def phi_metric(space: LinOrderedMetricSpace, poset: LinOrderedPoset, u: Embedding) -> dict:
    """The point map x -> (u(x,0), ..., u(x,k-1)).

    ``u`` must embed the level poset of the space into ``poset``.  Verifies
    exact distance preservation and strict lexicographic order preservation.
    """
    level_poset = encode_metric(space)
    if u.source != level_poset or u.target != poset:
        raise DomainError("phi requires an embedding of the space's level poset into the target poset")
    if not _is_tight(space.scaled[1]):
        raise SpectrumError("phi requires a tight spectrum")
    k, n, to, up = len(space.spectrum) - 1, len(space.universe), u.ranks, poset.rows
    images = [tuple([to[i * n + r] for i in range(k)]) for r in range(n)]
    _check_tuple_images(space, images, "lex", lambda a, b: _shift(up, a, b))
    elems = poset.universe
    return {x: tuple(map(elems.__getitem__, t)) for x, t in zip(space.universe, images)}


def witness_metric(
    space: LinOrderedMetricSpace, subspace: LinOrderedMetricSpace, f: Embedding
) -> Embedding:
    """The level map (x, i) -> (f(x), i), an embedding of the subspace's
    level poset into the space's level poset.  Requires a shared spectrum."""
    if f.source != subspace or f.target != space:
        raise DomainError("witness requires an embedding of the second space into the first")
    if space.spectrum != subspace.spectrum:
        raise SpectrumError("witness requires both spaces to share one spectrum")
    src = encode_metric(subspace)
    tgt = encode_metric(space)
    n = len(space.universe)
    ranks = tuple([i * n + t for i in range(len(space.spectrum)) for t in f.ranks])
    return _rank_embedding(src, tgt, ranks)

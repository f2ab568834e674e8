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
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError, SpectrumError, VerificationError
from .structures import (
    DEFAULT_MAX_POINTS,
    Embedding,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    _check_tuple_images,
    _memo_recent,
    check_embedding,
    checked_spectrum,
    _tuple_points,
)

COMPLETION_STEP_CAP = 10**6


@dataclass(frozen=True)
class TightSpectrum:
    values: tuple[Fraction, ...]
    tight: bool


def is_tight(values) -> bool:
    """Whether s_{i+j} <= s_i + s_j for all 1 <= i <= j with i+j <= k."""
    return _is_tight(checked_spectrum(values))


def _is_tight(vals: tuple[Fraction, ...]) -> bool:
    """:func:`is_tight` on a spectrum :func:`checked_spectrum` already returned."""
    k = len(vals) - 1
    for i in range(1, k + 1):
        for j in range(i, k - i + 1):
            if vals[i + j] > vals[i] + vals[j]:
                return False
    return True


def tight_complete(values) -> TightSpectrum:
    """Complete a sorted rational set to a tight superset.

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
    out = TightSpectrum(tuple(t), True)
    if not is_tight(out.values):
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
    elems = [(x, i) for i in range(k + 1) for x in space.universe]
    pairs = []
    for p, a in enumerate(elems):  # in the order of permutations(elems, 2)
        i, r = divmod(p, n)
        for j in range(i, k + 1):
            gap, level = spect[j] - spect[i], elems[j * n:(j + 1) * n]
            pairs += [(a, b) for b, v in zip(level, dist[r]) if v <= gap and b is not a]
    return LinOrderedPoset.build(elems, pairs)


def _dist_tuples_raw(poset: LinOrderedPoset, spect: tuple[Fraction, ...], a, b) -> Fraction:
    k = len(spect) - 1
    if len(a) != k or len(b) != k:
        raise DomainError(f"tuples must have length {k}")
    for p in range(k):
        if all(
            poset.below(a[i], b[i + p]) and poset.below(b[i], a[i + p])
            for i in range(k - p)
        ):
            return spect[p]
    return spect[k]


def dist_metric_tuples(poset: LinOrderedPoset, spectrum, a: tuple, b: tuple) -> Fraction:
    """Distance between two k-tuples over the poset; refuses a non-tight
    spectrum since the triangle inequality would then be unproven."""
    spect = checked_spectrum(spectrum)
    if not _is_tight(spect):
        raise SpectrumError("tuple distance requires a tight spectrum")
    for entry in itertools.chain(a, b):
        if entry not in poset.order:
            raise DomainError(f"tuple entry {entry!r} is not a poset element")
    return _dist_tuples_raw(poset, spect, tuple(a), tuple(b))


def decode_poset_metric(
    poset: LinOrderedPoset,
    spectrum,
    points=None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> LinOrderedMetricSpace:
    """The metric tuple space over the poset, on all |A|^k tuples or a given
    subset, ordered lexicographically.  Validates the metric axioms of
    whatever is materialized; refuses non-tight spectra."""
    spect = checked_spectrum(spectrum)
    if not _is_tight(spect):
        raise SpectrumError("tuple space requires a tight spectrum")
    pts = _tuple_points(poset, len(spect) - 1, points, max_points, "lex")
    dist = {
        (s, t): _dist_tuples_raw(poset, spect, s, t)
        for s, t in itertools.combinations(pts, 2)
    }
    return LinOrderedMetricSpace.build(pts, dist, spect)


def phi_metric(space: LinOrderedMetricSpace, poset: LinOrderedPoset, u: Embedding) -> dict:
    """The point map x -> (u(x,0), ..., u(x,k-1)).

    ``u`` must embed the level poset of the space into ``poset``.  Verifies
    exact distance preservation and strict lexicographic order preservation.
    """
    level_poset = encode_metric(space)
    if u.source != level_poset or u.target != poset:
        raise DomainError("phi requires an embedding of the space's level poset into the target poset")
    spect = space.spectrum
    if not _is_tight(spect):
        raise SpectrumError("phi requires a tight spectrum")
    k = len(spect) - 1
    images = {x: tuple(u((x, i)) for i in range(k)) for x in space.universe}
    _check_tuple_images(space, poset, images, "lex",
                        lambda a, b: _dist_tuples_raw(poset, spect, a, b))
    return images


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
    mapping = {(x, i): (f(x), i) for (x, i) in src.universe}
    return check_embedding(mapping, src, tgt)

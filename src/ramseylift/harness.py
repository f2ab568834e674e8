"""Randomized factorization suites and the operational transfer pipeline.

The factorization harness draws random (f, u) pairs for a pair of objects
E embedded in D and checks, per trial, that the encoding map produces an
embedding, that the witness is a valid morphism of the base category, and
that the factorization equation holds exactly.

The transfer pipeline runs the color-lifting argument end to end at tiny
sizes: find (or verify) a base object C that arrows the encoded pair, pull
a coloring of hom(E, G(C)) back along the encoding, locate a monochromatic
base morphism, and exhibit its decoded embedding together with the colors
of all its composites, re-checking every claim on the way.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import graph_encoding as GE
from . import metric_encoding as ME
from . import poset_encoding as PE
from . import ultrametric_encoding as UE
from . import words as W
from .errors import BudgetError, DomainError, PremiseError, VerificationError
from .oracle import (
    ArrowInstance,
    Budget,
    DEFAULT_BUDGET,
    StructureCategory,
    WordCategory,
    decide_arrow,
)
from .structures import (
    DEFAULT_MAX_POINTS,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedGraph,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    check_tuple_space,
    compose_embeddings,
    embedding_ranks,
    identity_embedding,
    induced_substructure,
)

_GR_ALPHABET = W.Alphabet(["0"])


# ---------------------------------------------------------------------------
# random instances


def random_word(rng: random.Random, alphabet: W.Alphabet, n: int, m: int) -> W.ParameterWord:
    """A uniformly-constructed (not uniformly-distributed) valid word."""
    symbols = []
    used = 0
    for pos in range(n):
        if m - used == n - pos:
            used += 1
            symbols.append(used)
            continue
        candidates = list(range(1, used + 1))
        if used < m:
            candidates.append(used + 1)
        candidates.extend(W.letter_token(j) for j in range(len(alphabet)))
        tok = rng.choice(candidates)
        if tok == used + 1:
            used += 1
        symbols.append(tok)
    return W.validate(symbols, alphabet, m)


def random_graph(rng: random.Random, max_vertices: int = 5) -> LinOrderedGraph:
    n = rng.randint(1, max_vertices)
    vertices = list(range(1, n + 1))
    edges = [e for e in itertools.combinations(vertices, 2) if rng.random() < 0.5]
    return LinOrderedGraph.build(vertices, edges)


def random_poset(rng: random.Random, max_elements: int = 5) -> LinOrderedPoset:
    n = rng.randint(1, max_elements)
    elems = list(range(1, n + 1))
    below = {(a, b) for a, b in itertools.combinations(elems, 2) if rng.random() < 0.4}
    changed = True
    while changed:  # transitive closure
        changed = False
        for (a, b), (c, d) in itertools.product(list(below), repeat=2):
            if b == c and (a, d) not in below:
                below.add((a, d))
                changed = True
    return LinOrderedPoset.build(elems, below)


def _random_spectrum(rng: random.Random, max_size: int) -> tuple[Fraction, ...]:
    pool = sorted({Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(max_size + 2)})
    size = rng.randint(1, min(max_size - 1, len(pool)))
    return tuple([Fraction(0)] + sorted(rng.sample(pool, size)))


def random_ultrametric(
    rng: random.Random, max_points: int = 5, max_spectrum: int = 4
) -> ConvUltrametricSpace:
    """A random convexly ordered ultrametric space built as a dendrogram:
    consecutive blocks split level by level, so balls are intervals."""
    n = rng.randint(1, max_points)
    points = list(range(1, n + 1))
    spectrum = _random_spectrum(rng, max_spectrum)
    k = len(spectrum) - 1
    dist = {}

    def split(block: list, level: int):
        if level == 0 or len(block) == 1:
            for x, y in itertools.combinations(block, 2):
                dist[(x, y)] = spectrum[max(level, 1)]
            return
        cuts = sorted(rng.sample(range(1, len(block)), rng.randint(0, len(block) - 1)))
        parts = [block[i:j] for i, j in zip([0] + cuts, cuts + [len(block)])]
        for p1, p2 in itertools.combinations(parts, 2):
            for x, y in itertools.product(p1, p2):
                dist[(x, y)] = spectrum[level]
        for part in parts:
            split(part, level - 1)

    if n > 1:
        split(points, k)
    return ConvUltrametricSpace.build(points, dist, spectrum)


def graded_spectrum(rng: random.Random, max_size: int = 5) -> tuple[Fraction, ...]:
    """A random tight spectrum 0 < c < 2c < ... < (k-1)c < top with
    top in ((k-1)c, kc].

    Tight spectra of this shape are exactly the ones for which the
    tuple-space encoding preserves every distance; see the regression test
    on {0,2,3,4} for a tight spectrum outside it.
    """
    c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    k = rng.randint(1, max_size - 1)
    top = (k - 1) * c + c * Fraction(rng.randint(1, 4), 4)
    return tuple([c * i for i in range(k)] + [top])


def random_metric(
    rng: random.Random, max_points: int = 4, max_spectrum: int = 5
) -> LinOrderedMetricSpace:
    """A random linearly ordered metric space over a random graded tight
    spectrum; distance assignments are rejection-sampled until the triangle
    inequality holds (a constant assignment always does)."""
    n = rng.randint(1, max_points)
    points = list(range(1, n + 1))
    spectrum = graded_spectrum(rng, max_spectrum)
    nonzero = spectrum[1:]
    pairs = list(itertools.combinations(points, 2))
    for _ in range(100):
        dist = {pair: rng.choice(nonzero) for pair in pairs}

        def d(x, y):
            return Fraction(0) if x == y else dist[(x, y) if x < y else (y, x)]

        if all(
            d(x, z) <= d(x, y) + d(y, z)
            for x, y, z in itertools.permutations(points, 3)
        ):
            return LinOrderedMetricSpace.build(points, dist, spectrum)
    flat = {pair: nonzero[-1] for pair in pairs}
    return LinOrderedMetricSpace.build(points, flat, spectrum)


def random_structure(rng: random.Random, selector: str):
    return selector_impl(selector).random_structure(rng)


def random_embedded_pair(rng: random.Random, selector: str):
    """A random structure D together with a random induced substructure E."""
    D = random_structure(rng, selector)
    size = rng.randint(1, len(D.universe))
    subset = rng.sample(list(D.universe), size)
    E = induced_substructure(D, subset)
    return D, E


def random_superposet_embedding(rng: random.Random, poset: LinOrderedPoset) -> Embedding:
    """A random embedding of the poset into itself or into a copy padded
    with elements incomparable to everything."""
    extra = rng.randint(0, 2)
    if extra == 0:
        return identity_embedding(poset)
    elems = list(poset.universe)
    for i in range(extra):
        elems.insert(rng.randint(0, len(elems)), ("pad", i))
    padded = LinOrderedPoset.build(elems, poset.strict_pairs())
    return Embedding(poset, padded, rng.choice(list(embedding_ranks(poset, padded))))


# ---------------------------------------------------------------------------
# selectors
#
# A selector is one encoding F into a Ramsey base category with its decoding
# G, point map phi and factorizing witness.  Both bases expose the same
# protocol: category, compose(u, v), encode(s), phi(s, u), witness(D, E, f, u),
# decode(C, D, budget), candidates(FD, D, C, budget), refusal,
# random_structure(rng) and random_u(rng, D); _premise decides the arrow on
# the candidates, and a fifth encoding is one more entry.


class _WordBase:
    """Graphs and posets: encoded into the category of parameter words over
    {0}; an object n decodes to the structure on the subsets of n."""

    category = WordCategory(_GR_ALPHABET)
    compose = staticmethod(W.compose)
    refusal = "object {C} does not arrow ({FD})^({FE})_{k}"

    def __init__(self, encode, phi, witness, decode, random_structure):
        self._encode, self._decode = encode, decode
        self.phi, self.witness, self.random_structure = phi, witness, random_structure

    def encode(self, s) -> int:
        return self._encode(s).object

    def decode(self, C: int, D, budget: Budget):
        if C >= budget.max_hom.bit_length():  # 2^C > max_hom
            raise BudgetError(f"decoded structure would have 2^{C} elements")
        return self._decode(C)

    def candidates(self, FD: int, D, C, budget: Budget):
        """The (label, object) pairs to decide: ``C`` when given, else
        n = FD, FD+1, ... while the 2^n elements of its decoding fit
        ``budget.max_hom``; no smaller object has an FD-parameter word."""
        if C is None:
            return [(n, n) for n in range(FD, budget.max_hom.bit_length())]
        n = int(C)
        if n < FD:
            raise DomainError(f"no word with {FD} parameters and length {n} exists")
        return [(n, n)]

    def random_u(self, rng: random.Random, D) -> W.ParameterWord:
        m = self.encode(D)
        n = m + rng.randint(0, 2)
        return random_word(rng, _GR_ALPHABET, n, m)


class _PosetBase:
    """Ultrametric and metric spaces: encoded into linearly ordered posets;
    a poset decodes to the space of tuples over the shared spectrum."""

    category = StructureCategory("poset")
    compose = staticmethod(compose_embeddings)
    refusal = "the supplied poset does not arrow the encoded pair"

    def __init__(self, encode, phi, witness, decode, random_structure):
        self._phi, self._witness, self._decode = phi, witness, decode
        self.encode, self.random_structure = encode, random_structure

    def phi(self, s, u: Embedding) -> dict:
        return self._phi(s, u.target, u)

    def witness(self, D, E, f, u) -> Embedding:
        """The witness of a space embedding does not depend on ``u``."""
        return self._witness(D, E, f)

    def decode(self, C: LinOrderedPoset, D, budget: Budget):
        """Decodes within the bound that :meth:`candidates` checked."""
        return self._decode(C, D.spectrum)

    def candidates(self, FD, D, C, budget: Budget):
        """The (label, object) pairs to decide: ``C`` when given, else P(1),
        P(2), ... while P(n) has at most ``budget.max_hom`` elements; a C
        whose tuple space over D's spectrum is past the decode bound is
        neither probed nor, when given, decided."""
        k, max_points = len(D.spectrum) - 1, min(DEFAULT_MAX_POINTS, budget.max_hom)
        if C is not None:
            check_tuple_space(C, k, max_points)
            return [("given", C)]
        sizes = itertools.takewhile(
            lambda n: 2**n <= budget.max_hom and 2 ** (n * k) <= max_points, itertools.count(1))
        return (({"powerset_poset": n}, PE.powerset_poset(n)) for n in sizes)

    def random_u(self, rng: random.Random, D) -> Embedding:
        return random_superposet_embedding(rng, self.encode(D))


def _premise(impl, FE, FD, D, k: int, budget: Budget, C):
    """A base object C with C -> (FD)^FE_k: ``C`` checked when given, else
    the first of the selector's candidates that arrows; returned with the
    composite table it was decided on.  A probe that runs out of
    candidates refuses, naming the last one it decided (null for none)."""
    label = None
    for label, candidate in impl.candidates(FD, D, C, budget):
        verdict = decide_arrow(ArrowInstance(impl.category, FE, FD, candidate, k), budget)
        if verdict.holds:
            return {"base": impl.category.name, "object": label, "counts": verdict.counts,
                    "probed": C is None}, candidate, verdict.table
    if C is None:
        raise BudgetError("no base object that decodes within the budget arrows the encoded "
                          f"pair (last decided: {json.dumps(label)})")
    raise PremiseError(
        impl.refusal.format(C=candidate, FD=FD, FE=FE, k=k)
        + f"; bad coloring: {list(verdict.bad_coloring)}",
        bad_coloring=verdict.bad_coloring,
    )


_SELECTOR_IMPLS = {
    "graph": _WordBase(GE.encode_graph, GE.phi_graph, GE.witness_graph,
                       GE.powerset_graph, random_graph),
    "poset": _WordBase(PE.encode_poset, PE.phi_poset, PE.witness_poset,
                       PE.powerset_poset, random_poset),
    "ultrametric": _PosetBase(lambda s: UE.encode_ultrametric(s).poset, UE.phi_ultra,
                              UE.witness_ultra, UE.decode_poset_ultra, random_ultrametric),
    "metric": _PosetBase(ME.encode_metric, ME.phi_metric, ME.witness_metric,
                         ME.decode_poset_metric, random_metric),
}

SELECTORS = tuple(_SELECTOR_IMPLS)


def selector_impl(name: str):
    try:
        return _SELECTOR_IMPLS[name]
    except KeyError:
        raise DomainError(f"unknown selector {name!r}; expected one of {SELECTORS}") from None


def _check_kind(selector: str, **structures) -> None:
    """Refuse a structure that is not of the selector's kind."""
    for name, s in structures.items():
        if s.kind != selector:
            raise DomainError(f"{name} must be of kind {selector}, got {s.kind}")


def _share_spectrum(D, E) -> bool:
    """Whether D and E are over one spectrum (graphs and posets have none)."""
    return getattr(D, "spectrum", None) == getattr(E, "spectrum", None)


# ---------------------------------------------------------------------------
# factorization harness


@dataclass
class TrialRecord:
    index: int
    trial_seed: str
    phi_ok: bool
    witness_ok: bool
    equation_ok: bool
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.phi_ok and self.witness_ok and self.equation_ok

    def to_json(self) -> dict:
        return {
            "trial": self.index,
            "seed": self.trial_seed,
            "phi_embedding": self.phi_ok,
            "witness_valid": self.witness_ok,
            "equation_exact": self.equation_ok,
            "error": self.error,
        }


@dataclass
class HarnessReport:
    selector: str
    trials: list[TrialRecord] = field(default_factory=list)
    seed: int = 0

    @property
    def all_passed(self) -> bool:
        return all(t.passed for t in self.trials)

    @property
    def failures(self) -> list[TrialRecord]:
        return [t for t in self.trials if not t.passed]

    def to_json(self) -> dict:
        return {
            "selector": self.selector,
            "seed": self.seed,
            "trials": len(self.trials),
            "failures": [t.to_json() for t in self.failures],
            "all_passed": self.all_passed,
        }


def _run_trial(impl, index: int, trial_seed: str, D, E, f, rng) -> TrialRecord:
    rec = TrialRecord(index, trial_seed, False, False, False)
    u = impl.random_u(rng, D)
    try:
        lhs = impl.phi(D, u)
        rec.phi_ok = True
    except VerificationError as exc:
        rec.error = f"phi: {exc}"
        return rec
    try:
        witness = impl.witness(D, E, f, u)
        rec.witness_ok = True
    except (VerificationError, DomainError) as exc:
        rec.error = f"witness: {exc}"
        return rec
    rhs = impl.phi(E, impl.compose(u, witness))
    rec.equation_ok = all(rhs[x] == lhs[f(x)] for x in E.universe)
    if not rec.equation_ok:
        rec.error = "equation: images differ"
    return rec


def pa_harness(
    selector: str,
    D=None,
    E=None,
    trials: int = 200,
    seed: int = 0,
) -> HarnessReport:
    """Run randomized factorization trials.

    With explicit D and E (E must embed into D) every trial draws a fresh
    embedding f and a fresh base morphism u.  Without them each trial draws
    a fresh random pair as well.  Every failure carries the trial seed that
    reproduces it.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    impl = selector_impl(selector)
    report = HarnessReport(selector=selector, seed=seed)
    fixed_embeddings = None
    if (D is None) != (E is None):
        raise DomainError("supply both D and E, or neither")
    if D is not None:
        _check_kind(selector, D=D, E=E)
        if not _share_spectrum(D, E):
            raise DomainError("D and E must share one spectrum")
        fixed_embeddings = list(embedding_ranks(E, D))
        if not fixed_embeddings:
            raise DomainError("E does not embed into D")
    for index in range(trials):
        trial_seed = f"{seed}:{index}"
        rng = random.Random(trial_seed)
        if fixed_embeddings is None:
            dd, ee = random_embedded_pair(rng, selector)
            embeddings = list(embedding_ranks(ee, dd))
        else:
            dd, ee, embeddings = D, E, fixed_embeddings
        f = Embedding(ee, dd, rng.choice(embeddings))
        report.trials.append(_run_trial(impl, index, trial_seed, dd, ee, f, rng))
    return report


# ---------------------------------------------------------------------------
# transfer pipeline


@dataclass
class TransferReport:
    selector: str
    k: int
    seed: int | None
    premise: dict
    coloring: list[int]
    pulled_back: list[int]
    mono_index: int
    mono_color: int
    composites: list[dict]
    verified: bool

    def to_json(self) -> dict:
        return {
            "selector": self.selector,
            "k": self.k,
            "seed": self.seed,
            "premise": self.premise,
            "coloring": self.coloring,
            "pulled_back": self.pulled_back,
            "monochromatic": {"index": self.mono_index, "color": self.mono_color},
            "composites": self.composites,
            "verified": self.verified,
        }


def transfer_demo(
    selector: str,
    D,
    E,
    k: int,
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
    C=None,
    coloring=None,
) -> TransferReport:
    """Execute the color-lifting pipeline end to end and re-check each step.

    Finds (or, when ``C`` is given, verifies) a base object with the arrow
    property for the encoded pair, pulls a coloring of hom(E, G(C)) back
    along the encoding, locates a monochromatic base morphism for the
    pulled-back coloring, and exhibits its decoded embedding with all
    composite colors verified equal.
    """
    impl = selector_impl(selector)
    _check_kind(selector, D=D, E=E)
    struct_cat = StructureCategory(selector)
    hom_E_D = [struct_cat.morphism(E, D, f) for f in struct_cat.hom(E, D, budget)]
    if not hom_E_D:
        raise DomainError("E does not embed into D")
    rng = random.Random(f"{seed}:transfer")
    base_cat = impl.category
    FD, FE = impl.encode(D), impl.encode(E)
    if not _share_spectrum(D, E):
        raise DomainError("transfer requires D and E over one spectrum")
    premise, C, table = _premise(impl, FE, FD, D, k, budget, C)
    G_C = impl.decode(C, D, budget)

    hom_E_GC = struct_cat.hom(E, G_C, budget)
    if not hom_E_GC:
        raise VerificationError("E does not embed into the decoded structure")
    position = {e: i for i, e in enumerate(hom_E_GC)}
    rank = G_C.order.rank_map
    missing = "an encoded morphism is missing from the enumerated hom set"

    def ranks_in_G_C(s, images: dict) -> tuple[int, ...]:
        """The ranks in G(C) of ``images[x]`` for the elements x of ``s``."""
        try:
            return tuple([rank[images[x]] for x in s.universe])
        except KeyError:
            raise VerificationError(missing) from None

    def index_in_hom_E_GC(ranks: tuple[int, ...]) -> int:
        try:
            return position[ranks]
        except KeyError:
            raise VerificationError(missing) from None

    if coloring is None:
        colors = [rng.randint(1, k) for _ in hom_E_GC]
    else:
        colors = list(coloring)
        if len(colors) != len(hom_E_GC) or any(not 1 <= c <= k for c in colors):
            raise DomainError(
                f"coloring must assign 1..{k} to all {len(hom_E_GC)} morphisms of hom(E, G(C))"
            )

    # phi(E, .) once per base morphism: the composites u* . v below are among them
    phi_index = [index_in_hom_E_GC(ranks_in_G_C(E, impl.phi(E, base_cat.morphism(FE, C, u))))
                 for u in table.hom_ac]
    pulled = [colors[i] for i in phi_index]
    mono_index, mono_color = table.first_mono(pulled)
    if mono_index is None:
        raise VerificationError(
            "no monochromatic base morphism exists although the premise arrow holds"
        )

    w_star = table.hom_bc[mono_index]
    u_star = base_cat.morphism(FD, C, w_star)
    big = Embedding(D, G_C, ranks_in_G_C(D, impl.phi(D, u_star)))
    composites = []
    verified = True
    for f in hom_E_D:
        comp_idx = index_in_hom_E_GC(compose_embeddings(big, f).ranks)
        color = colors[comp_idx]
        v = impl.witness(D, E, f, u_star)
        uv_index = table.index[base_cat.compose(w_star, base_cat.key(v))]
        lifted_color = pulled[uv_index]
        factors = phi_index[uv_index] == comp_idx
        composites.append(
            {
                "f": struct_cat.morphism_json(f),
                "color": color,
                "witness_color": lifted_color,
                "factorization_exact": factors,
            }
        )
        if color != mono_color or lifted_color != mono_color or not factors:
            verified = False

    return TransferReport(
        selector=selector,
        k=k,
        seed=seed,
        premise=premise,
        coloring=colors,
        pulled_back=pulled,
        mono_index=mono_index,
        mono_color=mono_color,
        composites=composites,
        verified=verified,
    )

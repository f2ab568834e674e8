"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up) and runs one round of operations per ``run_round`` call.  A round
is the same list of operations every time.  Every operation goes through
``meter.op(label, fn, *args)``, which times it and counts it as failed when
``fn`` raises; ``fn(tr, ...)`` calls into ramseylift through
``tr.call("<module>.<call>", ...)`` so that a traced round records a span
per call, and raises :class:`CheckFailed` when a result is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

from ramseylift import cli
from ramseylift import graph_encoding as GE
from ramseylift import harness as H
from ramseylift import metric_encoding as ME
from ramseylift import poset_encoding as PE
from ramseylift import ultrametric_encoding as UE
from ramseylift import words as W
from ramseylift.errors import BudgetError
from ramseylift.oracle import (
    DEFAULT_BUDGET,
    ArrowInstance,
    StructureCategory,
    WordCategory,
    check_coloring,
    decide_arrow,
    decide_gr,
)
from ramseylift.structures import (
    LinOrderedGraph,
    LinOrderedPoset,
    compose_embeddings,
    enumerate_embeddings,
)

A0 = W.Alphabet(["0"])
OUT_DIR = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """An operation returned a wrong or unconfirmed result."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def _embeddings(source, target):
    return list(enumerate_embeddings(source, target))


def _words(n, m):
    return list(W.enumerate_words(A0, n, m, DEFAULT_BUDGET.max_hom))


def random_2dim_poset(rng, n, swaps=None):
    """The intersection of the natural order on 0..n-1 with a random second
    linear order: a fully random permutation, or the identity disturbed by
    ``swaps`` random adjacent transpositions (few swaps stay near a chain)."""
    perm = list(range(n))
    if swaps is None:
        rng.shuffle(perm)
    else:
        for _ in range(swaps):
            i = rng.randrange(n - 1)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    pos = {v: i for i, v in enumerate(perm)}
    return LinOrderedPoset.build(
        range(n), [(a, b) for a, b in itertools.combinations(range(n), 2) if pos[a] < pos[b]]
    )


def chain(n):
    return LinOrderedPoset.build(range(n), itertools.combinations(range(n), 2))


def complete_graph(n):
    return LinOrderedGraph.build(range(n), itertools.combinations(range(n), 2))


def has_3chain(p):
    """A 2-coloring of a poset's points leaves no comparable pair
    monochromatic iff its comparability graph is bipartite, and comparability
    graphs are perfect, so point -> (chain2)^point_2 holds iff a 3-chain exists."""
    strict = p.strict_pairs()
    above = {}
    for a, b in strict:
        above.setdefault(a, set()).add(b)
    return any(above.get(b) for _, b in strict)


class Workload:
    def close(self):
        """Release what set-up created outside memory (only pipeline has files)."""


# ---------------------------------------------------------------------------
# arrow: oracle-bound


class Arrow(Workload):
    """Exhaustive arrow decisions under the default budget, with checks.

    Besides the large instances and the word table, each round decides many
    small random posets in two sizes.  About 70% of the operations are the
    smaller size and 16% the larger, so the median falls inside the first
    group and the 90th percentile inside the second, not between kinds of
    operation of different cost.
    """

    SWAPS = 60
    SMALL_POSETS = ((10, 122, 10), (12, 29, 5))  # (size, count, swaps)

    def __init__(self, seed):
        rng = random.Random(f"arrow:{seed}")
        posets, graphs = StructureCategory("poset"), StructureCategory("graph")
        point, chain2 = chain(1), chain(2)
        vertex, edge, triangle = complete_graph(1), complete_graph(2), complete_graph(3)
        # (label, instance, expected verdict); the classical verdicts are pinned
        self.cases = [("chain18", ArrowInstance(posets, point, chain2, chain(18), 2), True)]
        p = random_2dim_poset(rng, 18, self.SWAPS)
        self.cases.append(("poset18", ArrowInstance(posets, point, chain2, p, 2), has_3chain(p)))
        for size, count, swaps in self.SMALL_POSETS:
            for i in range(count):
                p = random_2dim_poset(rng, size, swaps)
                self.cases.append((f"poset{size}.{i}", ArrowInstance(posets, point, chain2, p, 2),
                                   has_3chain(p)))
        self.cases += [
            ("K12.k3", ArrowInstance(graphs, vertex, edge, complete_graph(12), 3), True),
            ("R33.K6", ArrowInstance(graphs, edge, triangle, complete_graph(6), 2), True),
            ("R33.K5", ArrowInstance(graphs, edge, triangle, complete_graph(5), 2), False),
        ]
        # word instances n -> (m)^ell_2 over {0}: cross-checked against decide_gr;
        # the ones above the colorings budget must be refused by both deciders
        budget = DEFAULT_BUDGET.max_colorings
        self.words = [
            (n, m, ell, 2 ** W.count_words(A0, n, ell) > budget)
            for n in range(1, 5) for m in range(1, n + 1) for ell in range(1, m + 1)
        ]

    def run_round(self, meter):
        for label, inst, holds in self.cases:
            meter.op(label, _decide_structures, inst, holds)
        for n, m, ell, refused in self.words:
            meter.op(f"words.{n}.{m}.{ell}", _decide_words, n, m, ell, refused)


def _confirm(tr, inst, verdict, n_hom):
    """A holds verdict walked every coloring; a fails verdict's bad
    coloring is confirmed by check_coloring."""
    check(verdict.counts["hom_AC"] == n_hom, "hom(A,C) size differs from its enumeration")
    if verdict.holds:
        check(verdict.counts["colorings_checked"] == inst.k ** n_hom,
              "holds without walking every coloring")
    else:
        recheck, _ = tr.call("oracle.check_coloring", check_coloring, inst, verdict.bad_coloring)
        check(not recheck.holds, "bad coloring has a monochromatic candidate")


def _decide_structures(tr, inst, holds):
    verdict = tr.call("oracle.decide", decide_arrow, inst)
    tr.count("oracle.colorings_checked", verdict.counts["colorings_checked"])
    check(verdict.holds == holds, f"verdict {verdict.holds}, expected {holds}")
    hom = tr.call("structures.enumerate", _embeddings, inst.A, inst.C)
    tr.count("structures.embeddings", len(hom))
    _confirm(tr, inst, verdict, len(hom))


def _decide_words(tr, n, m, ell, refused):
    inst = ArrowInstance(WordCategory(A0), ell, m, n, 2)
    try:
        verdict = tr.call("oracle.decide", decide_arrow, inst)
    except BudgetError:
        verdict = None
    try:
        reference = tr.call("oracle.gr", decide_gr, A0, n, m, ell, 2)
    except BudgetError:
        reference = None
    if refused or verdict is None or reference is None:
        check(refused and verdict is None and reference is None, "refusals disagree")
        return
    tr.count("oracle.colorings_checked", verdict.counts["colorings_checked"])
    tr.count("oracle.gr_colorings_checked", reference.counts["colorings_checked"])
    check(verdict.holds == reference.holds, "decide_arrow and decide_gr disagree")
    hom = tr.call("words.enumerate", _words, n, ell)
    tr.count("words.words", len(hom))
    _confirm(tr, inst, verdict, len(hom))


# ---------------------------------------------------------------------------
# factorize: encodings-bound


_ENCODINGS = {  # selector -> (layer, encode, phi, witness)
    "graph": ("graph_encoding", GE.encode_graph, GE.phi_graph, GE.witness_graph),
    "poset": ("poset_encoding", PE.encode_poset, PE.phi_poset, PE.witness_poset),
    "ultrametric": ("ultrametric_encoding", UE.encode_ultrametric, UE.phi_ultra,
                    UE.witness_ultra),
    "metric": ("metric_encoding", ME.encode_metric, ME.phi_metric, ME.witness_metric),
}


class Factorize(Workload):
    """Random factorization trials through the public encoding functions."""

    TRIALS = 2000

    def __init__(self, seed):
        self.trials = []
        for i in range(self.TRIALS):
            selector = H.SELECTORS[i % len(H.SELECTORS)]
            rng = random.Random(f"factorize:{seed}:{i}")
            D, E = H.random_embedded_pair(rng, selector)
            u = H.selector_impl(selector).random_u(rng, D)
            self.trials.append((selector, D, E, u, rng.randrange(1 << 30)))

    def run_round(self, meter):
        for selector, D, E, u, pick in self.trials:
            trial = _word_trial if selector in ("graph", "poset") else _poset_trial
            meter.op(selector, trial, _ENCODINGS[selector], D, E, u, pick)


def _pick_embedding(tr, D, E, pick):
    found = tr.call("structures.enumerate", _embeddings, E, D)
    tr.count("structures.embeddings", len(found))
    return found[pick % len(found)]


def _word_trial(tr, encoding, D, E, u, pick):
    layer, encode, phi, witness = encoding
    f = _pick_embedding(tr, D, E, pick)
    check(tr.call(f"{layer}.encode", encode, D).object == u.m, "u does not fit D's object")
    lhs = tr.call(f"{layer}.phi", phi, D, u)
    h = tr.call(f"{layer}.witness", witness, D, E, f, u)
    check(h.m == tr.call(f"{layer}.encode", encode, E).object, "witness does not fit E")
    uh = tr.call("words.compose", W.compose, u, h)
    rhs = tr.call(f"{layer}.phi", phi, E, uh)
    check(all(rhs[x] == lhs[f(x)] for x in E.universe), "factorization equation fails")


def _encoded_poset(tr, layer, encode, space):
    enc = tr.call(f"{layer}.encode", encode, space)
    return enc.poset if layer == "ultrametric_encoding" else enc


def _poset_trial(tr, encoding, D, E, u, pick):
    layer, encode, phi, witness = encoding
    f = _pick_embedding(tr, D, E, pick)
    check(_encoded_poset(tr, layer, encode, D) == u.source, "u does not start at D's poset")
    lhs = tr.call(f"{layer}.phi", phi, D, u.target, u)
    h = tr.call(f"{layer}.witness", witness, D, E, f)
    check(h.source == _encoded_poset(tr, layer, encode, E) and h.target == u.source,
          "witness is not a map between the encoded posets")
    uh = tr.call("structures.compose", compose_embeddings, u, h)
    rhs = tr.call(f"{layer}.phi", phi, E, u.target, uh)
    check(all(rhs[x] == lhs[f(x)] for x in E.universe), "factorization equation fails")


# ---------------------------------------------------------------------------
# pipeline: the CLI in process


_FILES = {
    "point": {"kind": "poset", "universe": [1], "leq": []},
    "chain2": {"kind": "poset", "universe": [1, 2], "leq": [[1, 2]]},
    "chain3": {"kind": "poset", "universe": [1, 2, 3], "leq": [[1, 2], [1, 3], [2, 3]]},
    "graph": {"kind": "graph", "universe": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]]},
    "sub": {"kind": "graph", "universe": [1, 2, 3], "edges": [[1, 2], [1, 3]]},
    "gpoint": {"kind": "graph", "universe": [1], "edges": []},
    "chain15": {"kind": "poset", "universe": list(range(1, 16)),
                "leq": [[a, b] for a in range(1, 16) for b in range(a + 1, 16)]},
    "upair": {"kind": "ultrametric", "universe": [1, 2], "dist": [[1, 2, "1"]],
              "spectrum": ["0", "1"]},
    "upoint": {"kind": "ultrametric", "universe": [1], "dist": [], "spectrum": ["0", "1"]},
    "metric": {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "2"]],
               "spectrum": ["0", "1", "2"]},
    "mpair": {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "1"]],
              "spectrum": ["0", "1"]},
}

U16 = "0 x1 0 0 x2 0 x1 x3 x3 x4 x2 x5 x6 0 x7 x1"


def _commands(f, seed):
    """(argv, pinned fields of the JSON output): the acceptance verb list
    with one mid-size arrow decision added, then transfer-demo for every
    selector within the default budget.  The added decision (2^15
    colorings) is the third most expensive of these 25 commands."""
    s = str(seed)
    return [
        (["word", "validate", "--alphabet", "0", "--word", U16], {"valid": True, "m": 7}),
        (["word", "compose", "--alphabet", "0", "--u", U16, "--v", "0 x1 x2 x3 x1 x4 x5"],
         {"word": "0 0 0 0 x1 0 0 x2 x2 x3 x1 x1 x4 0 x5 0"}),
        (["word", "enumerate", "--alphabet", "0,1", "-n", "3", "-m", "1"], {"count": 19}),
        (["structure", "validate", "--file", f["upair"]], {"valid": True}),
        (["structure", "embeddings", "--source", f["sub"], "--target", f["graph"]],
         {"count": 1}),
        (["encode", "graph", "--file", f["graph"]], {"object": 7}),
        (["encode", "metric", "--file", f["metric"]], {}),
        (["phi", "graph", "--structure", f["graph"], "--word", U16], {}),
        (["phi", "ultrametric", "--structure", f["upair"]], {}),
        (["witness", "graph", "--structure", f["graph"], "--sub", f["sub"],
          "--map", "[[1,2],[2,3],[3,4]]", "--word", U16], {"witness": "0 x1 x2 x3 x1 x4 x5"}),
        (["witness", "metric", "--structure", f["metric"], "--sub", f["metric"],
          "--map", "[[1,1],[2,2]]"], {}),
        (["pa-check", "graph", "--trials", "25", "--seed", s], {"all_passed": True}),
        (["pa-check", "ultrametric", "--trials", "25", "--seed", s], {"all_passed": True}),
        (["spectrum", "check", "--values", "0,1,5"], {"tight": False}),
        (["spectrum", "tighten", "--values", "0,1,5"], {"tight": True}),
        (["arrow", "decide", "--kind", "poset", "--A", f["point"], "--B", f["chain2"],
          "--C", f["chain3"], "-k", "2", "--seed", s, "--threads", "1"], {"holds": True}),
        (["arrow", "decide", "--kind", "poset", "--A", f["point"], "--B", f["chain2"],
          "--C", f["chain15"], "-k", "2"], {"holds": True}),
        (["arrow", "check-coloring", "--kind", "poset", "--A", f["point"], "--B", f["chain2"],
          "--C", f["chain3"], "-k", "2", "--coloring", "1,1,2"], {"holds": True}),
        (["arrow", "gr", "--alphabet", "0", "-n", "3", "-m", "2", "--ell", "1", "-k", "2"],
         {"holds": False}),
        (["transfer-demo", "ultrametric", "--D", f["upair"], "--E", f["upoint"], "-k", "2",
          "--seed", s, "--budget-colorings", "600000"], {"verified": True}),
        (["fixture", "paper-example"], {"ok": True}),
        (["transfer-demo", "graph", "--D", f["gpoint"], "--E", f["gpoint"], "-k", "2",
          "--seed", s], {"verified": True}),
        (["transfer-demo", "poset", "--D", f["point"], "--E", f["point"], "-k", "2",
          "--seed", s], {"verified": True}),
        (["transfer-demo", "ultrametric", "--D", f["upair"], "--E", f["upoint"], "-k", "2",
          "--seed", s], {"verified": True}),
        (["transfer-demo", "metric", "--D", f["mpair"], "--E", f["mpair"], "-k", "2",
          "--seed", s], {"verified": True}),
    ]


class Pipeline(Workload):
    """Every call goes through ``cli.main`` with JSON output captured.

    A round is the command list four times, each pass with its own seed
    drawn from the run's seed: 100 calls, so that the median falls among
    the cheap commands and the 90th percentile among the four added arrow
    decisions, not on the step between two kinds of command.
    """

    PASSES = 4

    def __init__(self, seed):
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="pipeline-")
        files = {}
        for name, payload in _FILES.items():
            path = Path(self._tmp.name) / f"{name}.json"
            path.write_text(json.dumps(payload))
            files[name] = str(path)
        self.commands = [(argv + ["--format", "json"], fields)
                         for j in range(self.PASSES)
                         for argv, fields in _commands(files, seed * self.PASSES + j)]
        # stdout of the first repetition of each command; later ones must match it
        self.expected: list[str | None] = [None] * len(self.commands)

    def close(self):
        self._tmp.cleanup()

    def run_round(self, meter):
        for i, (argv, fields) in enumerate(self.commands):
            meter.op(" ".join(argv[:2]), self._call, i, argv, fields)

    def _call(self, tr, i, argv, fields):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tr.call(f"cli.{argv[0]}", cli.main, argv)
        text = out.getvalue()
        tr.count("cli.stdout_bytes", len(text.encode()))
        check(code == 0, f"exit code {code}")
        if tr.enabled and argv[0] == "transfer-demo":
            colorings = json.loads(text)["premise"]["counts"].get("colorings_checked", 0)
            tr.count("harness.transfer_colorings", colorings)
        if self.expected[i] is None:
            payload = json.loads(text)
            for key, value in fields.items():
                check(payload.get(key) == value, f"{key} is {payload.get(key)!r}, expected {value!r}")
            self.expected[i] = text
        check(text == self.expected[i], "output differs from the first repetition")


WORKLOADS = {"arrow": Arrow, "factorize": Factorize, "pipeline": Pipeline}

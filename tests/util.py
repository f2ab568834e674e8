"""Shared brute-force oracles used by the test suite, and the command list
of acceptance criterion 8.

The oracles are deliberately naive: exhaustive filters and generators
that the library implementations are checked against.
"""

from __future__ import annotations

import functools
import itertools
import json
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


U16 = "0 x1 0 0 x2 0 x1 x3 x3 x4 x2 x5 x6 0 x7 x1"

CRITERION_8_FILES = {
    "point": {"kind": "poset", "universe": [1], "leq": []},
    "chain2": {"kind": "poset", "universe": [1, 2], "leq": [[1, 2]]},
    "chain3": {"kind": "poset", "universe": [1, 2, 3], "leq": [[1, 2], [1, 3], [2, 3]]},
    "graph": {"kind": "graph", "universe": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]]},
    "sub": {"kind": "graph", "universe": [1, 2, 3], "edges": [[1, 2], [1, 3]]},
    "upair": {"kind": "ultrametric", "universe": [1, 2], "dist": [[1, 2, "1"]],
              "spectrum": ["0", "1"]},
    "upoint": {"kind": "ultrametric", "universe": [1], "dist": [], "spectrum": ["0", "1"]},
    "metric": {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "2"]],
               "spectrum": ["0", "1", "2"]},
}


def criterion_8_commands(tmp_path) -> list[list[str]]:
    """Acceptance criterion 8's CLI argument lists, one per verb, all with
    JSON output; the structure files they name are written to ``tmp_path``."""
    files = {}
    for name, payload in CRITERION_8_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    return [
        ["word", "validate", "--alphabet", "0", "--word", U16, "--format", "json"],
        ["word", "compose", "--alphabet", "0", "--u", U16,
         "--v", "0 x1 x2 x3 x1 x4 x5", "--format", "json"],
        ["word", "enumerate", "--alphabet", "0,1", "-n", "3", "-m", "1", "--format", "json"],
        ["structure", "validate", "--file", files["upair"], "--format", "json"],
        ["structure", "embeddings", "--source", files["sub"], "--target", files["graph"],
         "--format", "json"],
        ["encode", "graph", "--file", files["graph"], "--format", "json"],
        ["encode", "metric", "--file", files["metric"], "--format", "json"],
        ["phi", "graph", "--structure", files["graph"], "--word", U16, "--format", "json"],
        ["phi", "ultrametric", "--structure", files["upair"], "--format", "json"],
        ["witness", "graph", "--structure", files["graph"], "--sub", files["sub"],
         "--map", "[[1,2],[2,3],[3,4]]", "--word", U16, "--format", "json"],
        ["witness", "metric", "--structure", files["metric"], "--sub", files["metric"],
         "--map", "[[1,1],[2,2]]", "--format", "json"],
        ["pa-check", "graph", "--trials", "25", "--seed", "7", "--format", "json"],
        ["pa-check", "ultrametric", "--trials", "25", "--seed", "7", "--format", "json"],
        ["spectrum", "check", "--values", "0,1,5", "--format", "json"],
        ["spectrum", "tighten", "--values", "0,1,5", "--format", "json"],
        ["arrow", "decide", "--kind", "poset", "--A", files["point"], "--B", files["chain2"],
         "--C", files["chain3"], "-k", "2", "--seed", "7", "--threads", "1",
         "--format", "json"],
        ["arrow", "check-coloring", "--kind", "poset", "--A", files["point"],
         "--B", files["chain2"], "--C", files["chain3"], "-k", "2",
         "--coloring", "1,1,2", "--format", "json"],
        ["arrow", "gr", "--alphabet", "0", "-n", "3", "-m", "2", "--ell", "1", "-k", "2",
         "--format", "json"],
        ["transfer-demo", "ultrametric", "--D", files["upair"], "--E", files["upoint"],
         "-k", "2", "--seed", "7", "--budget-colorings", "600000", "--format", "json"],
        ["fixture", "paper-example", "--format", "json"],
    ]

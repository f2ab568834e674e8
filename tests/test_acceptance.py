"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and enforcing the stated time budget.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ramseylift import fixtures
from ramseylift.errors import SpectrumError
from ramseylift.harness import pa_harness, random_word
from ramseylift.metric_encoding import (
    _shift,
    decode_poset_metric,
    is_tight,
    tight_complete,
)
from ramseylift.oracle import (
    ArrowInstance,
    StructureCategory,
    WordCategory,
    check_coloring,
    decide_arrow,
    decide_gr,
)
from ramseylift.structures import (
    ConvUltrametricSpace,
    LinOrderedGraph,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    enumerate_embeddings,
)
from ramseylift.ultrametric_encoding import decode_poset_ultra
from ramseylift.words import Alphabet, compose, count_words, enumerate_words, identity

from util import (
    all_posets_on,
    brute_force_embeddings,
    brute_force_words,
    criterion_8_commands,
    is_nonneg_combination,
)

A0 = Alphabet(["0"])
A01 = Alphabet(["0", "1"])

POINT = LinOrderedPoset.build([1], [])
CHAIN2 = LinOrderedPoset.build([1, 2], [(1, 2)])
CHAIN3 = LinOrderedPoset.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])


class _Stopwatch:
    def __init__(self, name, limit_s):
        self.name, self.limit = name, limit_s

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s, limit {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"
        return False


def test_criterion_1_pinned_fixture():
    with _Stopwatch("criterion 1 (worked-example fixture)", 1.0):
        checks = fixtures.run_fixture()
        assert all(c.ok for c in checks)
        by_name = {c.name: c.actual for c in checks}
        assert by_name["image_1"] == {2, 7, 12, 16}
        assert by_name["image_2"] == {5, 11, 12, 13, 15}
        assert by_name["image_3"] == {8, 9, 13}
        assert by_name["image_4"] == {10, 15}
        assert by_name["h"] == "0 x1 x2 x3 x1 x4 x5"
        assert by_name["u_h"] == "0 0 0 0 x1 0 0 x2 x2 x3 x1 x1 x4 0 x5 0"
        assert by_name["sub_image_1"] == {5, 11, 12, 13, 15}
        assert by_name["sub_image_2"] == {8, 9, 13}
        assert by_name["sub_image_3"] == {10, 15}


def test_criterion_2_category_laws():
    with _Stopwatch("criterion 2 (word category laws, 1000 triples)", 10.0):
        rng = random.Random("acceptance:laws")
        for _ in range(1000):
            alphabet = rng.choice([A0, A01])
            n = rng.randint(3, 12)
            m = rng.randint(2, n)
            k = rng.randint(1, m)
            l = rng.randint(0, k)
            u = random_word(rng, alphabet, n, m)
            v = random_word(rng, alphabet, m, k)
            w = random_word(rng, alphabet, k, l)
            uv = compose(u, v)  # closure: compose re-validates internally
            assert (uv.n, uv.m) == (n, k)
            assert compose(uv, w) == compose(u, compose(v, w))
            assert compose(identity(alphabet, n), u) == u
            assert compose(u, identity(alphabet, m)) == u


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_criterion_3_factorization_suites(selector):
    with _Stopwatch(f"criterion 3 (factorization suite, {selector}, 200 instances)", 30.0):
        report = pa_harness(selector, trials=200, seed=2024)
        assert report.all_passed, [t.to_json() for t in report.failures]


def test_criterion_4_tuple_space_claims():
    with _Stopwatch("criterion 4 (tuple-space axioms, exhaustive)", 30.0):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                ultra_spectrum = [Fraction(i, 2) for i in range(k + 1)]
                metric_spectra = [
                    [Fraction(i) for i in range(k + 1)],
                    [Fraction(0)] + [Fraction(i + 1) for i in range(1, k + 1)],
                ]
                for poset in all_posets_on(n):
                    decode_poset_ultra(poset, ultra_spectrum)  # validates on build
                    for spectrum in metric_spectra:
                        assert is_tight(spectrum)
                        decode_poset_metric(poset, spectrum)
        # negative control: a non-tight spectrum admits a triangle violation
        bad = tuple(Fraction(v) for v in (0, 1, 5))
        with pytest.raises(SpectrumError):
            decode_poset_metric(CHAIN2, bad)
        ranks = list(itertools.product(range(2), repeat=2))

        def d(a, b):
            return bad[_shift(CHAIN2.rows, a, b)]

        assert any(d(a, c) > d(a, b) + d(b, c) for a, b, c in itertools.product(ranks, repeat=3))


def test_criterion_5_tight_completion():
    with _Stopwatch("criterion 5 (tight completion, 500 inputs)", 30.0):
        assert tight_complete([0, 1, 5]) == tuple(Fraction(i) for i in range(6))
        rng = random.Random("acceptance:tight")
        for _ in range(500):
            nonzero = sorted(
                {
                    Fraction(rng.randint(1, 20), rng.randint(1, 20))
                    for _ in range(rng.randint(1, 4))
                }
            )
            values = [Fraction(0)] + nonzero
            completed = tight_complete(values)
            assert is_tight(completed)
            assert set(values) <= set(completed)
            assert completed[1] == nonzero[0]
            assert completed[-1] == nonzero[-1]
            for t in completed:
                assert is_nonneg_combination(t, nonzero)


def test_criterion_6_arrow_ground_truth():
    with _Stopwatch("criterion 6 (arrow oracle ground truth)", 30.0):
        posets = StructureCategory("poset")
        holds = decide_arrow(ArrowInstance(posets, POINT, CHAIN2, CHAIN3, 2))
        assert holds.holds
        fails = decide_arrow(ArrowInstance(posets, POINT, CHAIN2, CHAIN2, 2))
        assert not fails.holds
        recheck, _ = check_coloring(
            ArrowInstance(posets, POINT, CHAIN2, CHAIN2, 2), fails.bad_coloring
        )
        assert not recheck.holds
        rigid = decide_arrow(ArrowInstance(posets, CHAIN3, CHAIN3, CHAIN3, 2))
        assert rigid.holds and rigid.counts["hom_BC"] == 1
        words = WordCategory(A0)
        for n in (1, 2, 3):
            for m in range(1, n + 1):
                for ell in range(1, m + 1):
                    assert (
                        decide_gr(A0, n, m, ell, 2).holds
                        == decide_arrow(ArrowInstance(words, ell, m, n, 2)).holds
                    )


def test_criterion_7_enumeration_oracles():
    with _Stopwatch("criterion 7 (enumeration oracles)", 30.0):
        graph5 = LinOrderedGraph.build(
            [1, 2, 3, 4, 5], [(1, 2), (2, 3), (2, 4), (4, 5), (1, 5)]
        )
        graph3 = LinOrderedGraph.build([1, 2, 3], [(1, 2), (2, 3)])
        poset5 = LinOrderedPoset.build(
            [1, 2, 3, 4, 5], [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
        )
        poset3 = LinOrderedPoset.build([1, 2, 3], [(1, 3), (2, 3)])
        ultra5 = ConvUltrametricSpace.build(
            [1, 2, 3, 4, 5],
            {
                (a, b): (1 if {a, b} <= {1, 2} or {a, b} <= {3, 4} else 2)
                for a, b in itertools.combinations(range(1, 6), 2)
            },
            [0, 1, 2],
        )
        ultra2 = ConvUltrametricSpace.build([1, 2], {(1, 2): 1}, [0, 1, 2])
        metric5 = LinOrderedMetricSpace.build(
            [1, 2, 3, 4, 5],
            {
                (a, b): (1 if abs(a - b) == 1 else 2)
                for a, b in itertools.combinations(range(1, 6), 2)
            },
            [0, 1, 2],
        )
        metric3 = LinOrderedMetricSpace.build([1, 2, 3], {(1, 2): 1, (2, 3): 1, (1, 3): 2}, [0, 1, 2])
        pairs = [
            (graph3, graph5),
            (poset3, poset5),
            (ultra2, ultra5),
            (metric3, metric5),
            (POINT, CHAIN3),
            (CHAIN2, CHAIN3),
        ]
        for src, tgt in pairs:
            fast = list(enumerate_embeddings(src, tgt))
            slow = brute_force_embeddings(src, tgt)
            assert {e.mapping for e in fast} == {e.mapping for e in slow}
            assert len(fast) == len(slow)
        for n in range(1, 5):
            for m in range(0, n + 1):
                stream = list(enumerate_words(A0, n, m, 100_000))
                brute = brute_force_words(A0, n, m)
                assert len(stream) == len(brute) == count_words(A0, n, m)
                assert {w.symbols for w in stream} == {w.symbols for w in brute}


def _run_cli(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "ramseylift.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_criterion_8_determinism(tmp_path):
    with _Stopwatch("criterion 8 (byte determinism and repeatable verdicts)", 120.0):
        commands = criterion_8_commands(tmp_path)
        for args in commands:
            first = _run_cli(args, "101")
            second = _run_cli(args, "202")
            assert first.returncode == second.returncode == 0, second.stderr
            assert first.stdout == second.stdout, args
        # verdicts repeat exactly on the criterion-6 instances
        posets = StructureCategory("poset")
        for inst in [
            ArrowInstance(posets, POINT, CHAIN2, CHAIN3, 2),
            ArrowInstance(posets, POINT, CHAIN2, CHAIN2, 2),
            ArrowInstance(posets, CHAIN3, CHAIN3, CHAIN3, 2),
        ]:
            assert decide_arrow(inst).holds == decide_arrow(inst).holds

"""Fuzz the CLI edges: malformed structure files, word text and argv.

Every case runs ``cli.main`` in process with its output captured.  It must
return 0, 1 or 2, or exit 2 through argparse; any other exception, a
traceback, fails the test.  Examples are derandomized and bounded, and
the oracle verbs always carry a small coloring budget, so the module runs
in seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ramseylift.cli import main
from ramseylift.harness import SELECTORS

FUZZ = settings(derandomize=True, deadline=None, max_examples=400, database=None,
                suppress_health_check=[HealthCheck.too_slow])

SCALARS = st.one_of(st.integers(-2, 6), st.sampled_from(["a", "b", "0", ""]), st.booleans(),
                    st.floats(-2, 2, allow_nan=False), st.none())
ELEMENTS = st.one_of(SCALARS, st.lists(st.integers(0, 3), max_size=2),
                     st.dictionaries(st.sampled_from(["a"]), st.integers(0, 1)))
RATIONALS = st.one_of(st.sampled_from(["0", "1", "2", "1/2", "3/2", "-1", "x", "1/0", "", " 1"]),
                      st.integers(-1, 3), st.floats(0, 2, allow_nan=False), st.booleans(),
                      st.none(), st.lists(st.integers(0, 1), max_size=1))


def _entries(width):
    """A list field of entries, mostly lists of ``width`` elements."""
    entry = st.one_of(st.lists(st.one_of(st.integers(0, 6), ELEMENTS),
                               min_size=width, max_size=width),
                      st.lists(ELEMENTS, max_size=4), SCALARS)
    return st.one_of(st.lists(entry, max_size=6), SCALARS)


DIST_ENTRIES = st.one_of(
    st.lists(st.one_of(st.tuples(st.integers(0, 6), st.integers(0, 6), RATIONALS).map(list),
                       st.lists(RATIONALS, max_size=4), SCALARS), max_size=8),
    SCALARS)

STRUCTURES = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(SELECTORS + ("mystery",)), SCALARS)},
    optional={
        "universe": st.one_of(st.lists(st.integers(0, 6), max_size=6, unique=True),
                              st.lists(ELEMENTS, max_size=6), SCALARS),
        "edges": _entries(2),
        "leq": _entries(2),
        "dist": DIST_ENTRIES,
        "spectrum": st.one_of(st.lists(RATIONALS, max_size=5), SCALARS),
    },
)

WORDS = st.lists(st.sampled_from(["0", "1", "x1", "x2", "x3", "x0", "x", "y", "x01"]),
                 max_size=8).map(" ".join)

# Structure files every argv may name: valid ones of each kind and malformed ones.
FILES = {
    "gpoint": {"kind": "graph", "universe": [1], "edges": []},
    "gedge": {"kind": "graph", "universe": [1, 2], "edges": [[1, 2]]},
    "gpath": {"kind": "graph", "universe": [1, 2, 3], "edges": [[1, 2], [2, 3]]},
    "point": {"kind": "poset", "universe": [1], "leq": []},
    "chain2": {"kind": "poset", "universe": [1, 2], "leq": [[1, 2]]},
    "anti2": {"kind": "poset", "universe": [1, 2], "leq": []},
    "upoint": {"kind": "ultrametric", "universe": [1], "dist": [], "spectrum": ["0", "1"]},
    "upair": {"kind": "ultrametric", "universe": [1, 2], "dist": [[1, 2, "1"]],
              "spectrum": ["0", "1"]},
    "upoint3": {"kind": "ultrametric", "universe": [1], "dist": [],
                "spectrum": ["0", "1", "2", "3"]},
    "mpoint": {"kind": "metric", "universe": [1], "dist": [], "spectrum": ["0", "1"]},
    "mpair": {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "1/2"]]},
    "mpair2": {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "1"]],
               "spectrum": ["0", "1", "2"]},
    "bad": {"kind": "poset", "universe": [1, 2], "leq": [[2, 1]]},
    "junk": ["not", "an", "object"],
}
MAPS = st.sampled_from(['[[1, 1]]', '[[1, 2], [2, 1]]', '[[1, 1], [2, 2]]', '[]', '{}', '[[1]]',
                        '[[[1, 0], 1]]', '[[1, [2]]]', 'nope', '[[2, 1]]'])
INTS = st.one_of(st.integers(1, 4), st.integers(-2, 6)).map(str)
BUDGETS = {"--budget-hom": st.sampled_from(["-2", "-1", "0", "1", "16", "10000"]),
           "--budget-colorings": st.sampled_from(["-1", "0", "1", "100", "4000"])}


def _verbs(kind, file):
    """Per verb: its words and, per flag, (value strategy, required)."""
    alphabet = st.sampled_from(["0", "0,1", "x1", "0,0", "a b"])
    values = st.lists(RATIONALS.map(str), max_size=4).map(",".join)
    colors = st.lists(st.integers(-1, 3).map(str), max_size=6).map(",".join)
    budgets = {flag: (s, False) for flag, s in BUDGETS.items()}
    # The oracle verbs always carry a small coloring budget: the default
    # of two million colorings would let one example run for seconds.
    oracle = {"--budget-hom": (BUDGETS["--budget-hom"], False),
              "--budget-colorings": (BUDGETS["--budget-colorings"], True)}
    return {
        ("word", "validate"): {"--alphabet": (alphabet, True), "--word": (WORDS, True),
                               "--m": (INTS, False)},
        ("word", "compose"): {"--alphabet": (alphabet, True), "--u": (WORDS, True),
                              "--v": (WORDS, True)},
        ("word", "enumerate"): {"--alphabet": (alphabet, True), "-n": (INTS, True),
                                "-m": (INTS, True), "--limit": (INTS, False)},
        ("structure", "validate"): {"--file": (file, True)},
        ("structure", "embeddings"): {"--source": (file, True), "--target": (file, True),
                                      **budgets},
        ("encode", kind): {"--file": (file, True)},
        ("phi", kind): {"--structure": (file, True), "--word": (WORDS, False),
                        "--poset": (file, False), "--map": (MAPS, False)},
        ("witness", kind): {"--structure": (file, True), "--sub": (file, True),
                            "--map": (MAPS, True), "--word": (WORDS, False)},
        ("pa-check", kind): {"--D": (file, False), "--E": (file, False),
                             "--trials": (st.integers(-1, 3).map(str), True),
                             "--seed": (INTS, False)},
        ("spectrum", "check"): {"--values": (values, True)},
        ("spectrum", "tighten"): {"--values": (values, True)},
        ("arrow", "decide"): {"--kind": (st.just(kind), True), "--A": (file, True),
                              "--B": (file, True), "--C": (file, True), "-k": (INTS, True),
                              **oracle},
        ("arrow", "check-coloring"): {"--kind": (st.just(kind), True), "--A": (file, True),
                                      "--B": (file, True), "--C": (file, True),
                                      "-k": (INTS, True), "--coloring": (colors, True),
                                      **oracle},
        ("arrow", "gr"): {"--alphabet": (alphabet, True), "-n": (INTS, True),
                          "-m": (INTS, True), "--ell": (INTS, True), "-k": (INTS, True),
                          **oracle},
        ("transfer-demo", kind): {"--D": (file, True), "--E": (file, True), "-k": (INTS, True),
                                  "--C": (st.one_of(INTS, file), False),
                                  "--coloring": (colors, False), **oracle},
        ("fixture", "paper-example"): {"--corrupt": (st.sampled_from(["h", "u", "?"]), False)},
    }


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, payload in FILES.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    return {name: str(root / f"{name}.json") for name in [*FILES, "fuzzed"]}


def _run(argv) -> int:
    """``main(argv)`` with its output captured: the exit code, or argparse's."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse rejected the command line
            return 2


@st.composite
def argvs(draw):
    """A command line of one real verb; ``@name`` stands for a structure file."""
    kind = draw(st.sampled_from(SELECTORS))
    own = [f"@{name}" for name, payload in FILES.items()
           if isinstance(payload, dict) and payload["kind"] == kind]
    any_file = st.sampled_from([f"@{name}" for name in FILES])
    verbs = _verbs(kind, st.one_of(st.sampled_from(own), any_file))
    verb = draw(st.sampled_from(sorted(verbs)))
    argv = list(verb)
    for flag, (values, required) in verbs[verb].items():
        if required or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


@FUZZ
@given(argv=argvs())
@example(argv=["structure", "embeddings", "--source", "@gpoint", "--target", "@gpoint",
               "--budget-hom", "-2"])
def test_fuzz_argv(paths, argv):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    assert _run(argv) in (0, 1, 2), argv


@settings(FUZZ, max_examples=150)  # six commands per example
@given(structure=STRUCTURES)
def test_fuzz_structure_files(paths, structure):
    path = paths["fuzzed"]
    with open(path, "w") as f:
        json.dump(structure, f)
    commands = [["structure", "validate", "--file", path],
                ["structure", "embeddings", "--source", path, "--target", path]]
    commands += [["encode", kind, "--file", path] for kind in SELECTORS]
    for argv in commands:
        assert _run(argv + ["--format", "json"]) in (0, 1, 2), (argv, structure)


@FUZZ
@given(u=WORDS, v=WORDS, m=st.integers(-1, 4))
def test_fuzz_word_text(u, v, m):
    for argv in (["word", "validate", "--alphabet", "0,1", "--word", u],
                 ["word", "validate", "--alphabet", "0", "--word", u, "--m", str(m)],
                 ["word", "compose", "--alphabet", "0,1", "--u", u, "--v", v]):
        assert _run(argv) in (0, 1, 2), argv

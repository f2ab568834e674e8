import argparse
import json
import os
import subprocess
import sys
import time
import types

import pytest

from ramseylift import cli, words
from ramseylift.cli import build_parser, main
from ramseylift.harness import SELECTORS
from ramseylift.structures import from_json

from util import U16, criterion_8_commands

H7 = "0 x1 x2 x3 x1 x4 x5"

POINT = {"kind": "poset", "universe": [1], "leq": []}
CHAIN2 = {"kind": "poset", "universe": [1, 2], "leq": [[1, 2]]}
CHAIN3 = {"kind": "poset", "universe": [1, 2, 3], "leq": [[1, 2], [1, 3], [2, 3]]}
GRAPH = {"kind": "graph", "universe": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]]}
U_PAIR = {"kind": "ultrametric", "universe": [1, 2], "dist": [[1, 2, "1"]], "spectrum": ["0", "1"]}
U_POINT = {"kind": "ultrametric", "universe": [1], "dist": [], "spectrum": ["0", "1"]}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    return write


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_word_compose_prints_the_composite(files, capsys):
    u, h = files("u.txt", U16), files("h.txt", H7)
    code, out = run_main(capsys, "word", "compose", "--alphabet", "0", "--u", u, "--v", h)
    assert code == 0
    assert out.strip() == "0 0 0 0 x1 0 0 x2 x2 x3 x1 x1 x4 0 x5 0"


def test_word_compose_accepts_literal_text(capsys):
    code, out = run_main(capsys, "word", "compose", "--alphabet", "0", "--u", "x1 0 x2", "--v", "x1 x1")
    assert code == 0
    assert out.strip() == "x1 0 x1"


def test_word_validate_errors_exit_1(capsys):
    code, _ = run_main(capsys, "word", "validate", "--alphabet", "0", "--word", "x2 x1", "--m", "2")
    assert code == 1


def test_word_enumerate_order(capsys):
    code, out = run_main(capsys, "word", "enumerate", "--alphabet", "0", "-n", "2", "-m", "1")
    assert code == 0
    assert out.splitlines() == ["count: 3", "x1 x1", "x1 0", "0 x1"]


def test_spectrum_commands(capsys):
    code, out = run_main(capsys, "spectrum", "tighten", "--values", "0,1,5")
    assert code == 0 and out.strip() == "0,1,2,3,4,5"
    code, out = run_main(capsys, "spectrum", "check", "--values", "0,1,5")
    assert code == 0 and out.strip() == "tight: false"


def test_arrow_decide_poset_chains(files, capsys):
    a, b, c = files("a.json", POINT), files("b.json", CHAIN2), files("c.json", CHAIN3)
    code, out = run_main(capsys, "arrow", "decide", "--kind", "poset",
                         "--A", a, "--B", b, "--C", c, "-k", "2")
    assert code == 0
    assert out.splitlines()[0] == "verdict: holds"


def test_arrow_decide_failure_prints_bad_coloring(files, capsys):
    a, b = files("a.json", POINT), files("b.json", CHAIN2)
    code, out = run_main(capsys, "arrow", "decide", "--kind", "poset",
                         "--A", a, "--B", b, "--C", b, "-k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: fails"
    assert lines[-1].startswith("bad_coloring:")


def test_arrow_decide_threads_flag_changes_no_byte(files, capsys):
    edge = files("edge.json", {"kind": "graph", "universe": [1, 2], "edges": [[1, 2]]})
    k3 = files("k3.json", {"kind": "graph", "universe": [1, 2, 3],
                           "edges": [[1, 2], [1, 3], [2, 3]]})
    k5 = files("k5.json", {"kind": "graph", "universe": [1, 2, 3, 4, 5],
                           "edges": [[a, b] for a in range(1, 6) for b in range(a + 1, 6)]})
    for fmt in ("text", "json"):
        outs = []
        for threads in ("1", "4"):
            code, out = run_main(capsys, "arrow", "decide", "--kind", "graph", "--A", edge,
                                 "--B", k3, "--C", k5, "-k", "2", "--threads", threads,
                                 "--format", fmt)
            assert code == 0
            outs.append(out)
        assert outs[1] == outs[0]
    assert outs[0].startswith("{")
    assert json.loads(outs[0])["holds"] is False


def test_arrow_check_coloring(files, capsys):
    a, b, c = files("a.json", POINT), files("b.json", CHAIN2), files("c.json", CHAIN3)
    code, out = run_main(capsys, "arrow", "check-coloring", "--kind", "poset",
                         "--A", a, "--B", b, "--C", c, "-k", "2", "--coloring", "1,1,2")
    assert code == 0
    assert out.splitlines()[0] == "monochromatic: yes"


def test_arrow_gr_and_budget_exit_2(capsys):
    code, out = run_main(capsys, "arrow", "gr", "--alphabet", "0",
                         "-n", "1", "-m", "1", "--ell", "1", "-k", "2")
    assert code == 0 and out.splitlines()[0] == "verdict: holds"
    code, _ = run_main(capsys, "arrow", "gr", "--alphabet", "0",
                       "-n", "5", "-m", "2", "--ell", "1", "-k", "2",
                       "--budget-colorings", "1000")
    assert code == 2


def test_fixture_paper_example(capsys):
    code, out = run_main(capsys, "fixture", "paper-example")
    assert code == 0
    assert out.splitlines()[-1] == "all 21 values match"


def test_fixture_corruption_nonzero_exit(capsys):
    code, out = run_main(capsys, "fixture", "paper-example", "--corrupt", "image_2")
    assert code == 1
    assert "first mismatch at image_2" in out


def test_structure_validate_json_round_trip(files, capsys):
    path = files("g.json", GRAPH)
    code, out = run_main(capsys, "structure", "validate", "--file", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert from_json(payload["structure"]) == from_json(GRAPH)


def test_structure_validate_domain_error_exit_1(files, capsys):
    path = files("bad.json", {"kind": "poset", "universe": [2, 1], "leq": [[1, 2]]})
    code, out = run_main(capsys, "structure", "validate", "--file", path, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "StructureError"


def test_encode_and_phi_and_witness(files, capsys):
    g = files("g.json", GRAPH)
    g2 = files("g2.json", {"kind": "graph", "universe": [1, 2, 3], "edges": [[1, 2], [1, 3]]})
    code, out = run_main(capsys, "encode", "graph", "--file", g)
    assert code == 0 and out.splitlines()[0] == "object: 7"
    code, out = run_main(capsys, "phi", "graph", "--structure", g, "--word", U16)
    assert code == 0
    assert out.splitlines()[1] == "2: 5 11 12 13 15"
    code, out = run_main(capsys, "witness", "graph", "--structure", g, "--sub", g2,
                         "--map", "[[1,2],[2,3],[3,4]]", "--word", U16)
    assert code == 0 and out.strip() == H7


def test_phi_metric_defaults_to_identity(files, capsys):
    m = files("m.json", {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "2"]],
                         "spectrum": ["0", "1", "2"]})
    code, out = run_main(capsys, "phi", "metric", "--structure", m)
    assert code == 0
    assert out.splitlines()[0] == "1: [[1, 0], [1, 1]]"


def test_pa_check_runs(files, capsys):
    code, out = run_main(capsys, "pa-check", "ultrametric", "--trials", "15", "--seed", "9")
    assert code == 0
    assert "all_passed: true" in out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_pa_check_refuses_no_trials(capsys, trials):
    code, out = run_main(capsys, "pa-check", "graph", "--trials", trials, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "DomainError", "message": f"trials must be at least 1, got {trials}"}


def test_transfer_demo_cli(files, capsys):
    d = files("d.json", U_PAIR)
    e = files("e.json", U_POINT)
    code, out = run_main(capsys, "transfer-demo", "ultrametric", "--D", d, "--E", e,
                         "-k", "2", "--seed", "5")
    assert code == 0
    assert "verified: true" in out


def _run_subprocess(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "ramseylift.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_byte_identical_output_across_processes(files, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(POINT))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(CHAIN2))
    c = tmp_path / "c.json"
    c.write_text(json.dumps(CHAIN3))
    commands = [
        ["fixture", "paper-example", "--format", "json"],
        ["pa-check", "metric", "--trials", "10", "--seed", "4", "--format", "json"],
        ["arrow", "decide", "--kind", "poset", "--A", str(a), "--B", str(b),
         "--C", str(c), "-k", "2", "--format", "json", "--seed", "1"],
        ["word", "enumerate", "--alphabet", "0,1", "-n", "3", "-m", "2", "--format", "json"],
    ]
    for args in commands:
        first = _run_subprocess(args, "1")
        second = _run_subprocess(args, "2")
        assert first.returncode == second.returncode == 0, second.stderr
        assert first.stdout == second.stdout


MALFORMED_STRUCTURES = {
    "leq-entry-not-a-pair": ({"kind": "poset", "universe": [1, 2], "leq": [[1]]}, "'leq'"),
    "unhashable-vertex": ({"kind": "graph", "universe": [1, [2]], "edges": []}, "'universe'"),
    "unhashable-leq-element": ({"kind": "poset", "universe": [1, 2], "leq": [[1, [2]]]}, "'leq'"),
    "edge-not-a-list": ({"kind": "graph", "universe": [1, 2], "edges": [5]}, "'edges'"),
    "dist-not-a-list": ({"kind": "metric", "universe": [1, 2], "dist": 5}, "'dist'"),
    "dist-entry-too-short": ({"kind": "metric", "universe": [1, 2], "dist": [[1, 2]]}, "'dist'"),
    "spectrum-not-a-list": ({"kind": "ultrametric", "universe": [1], "dist": [],
                             "spectrum": 1}, "'spectrum'"),
    "top-level-list": ([1, 2], "structure JSON must be an object"),
}


@pytest.mark.parametrize("verb", ["validate", "check-coloring"])
@pytest.mark.parametrize("case", sorted(MALFORMED_STRUCTURES))
def test_malformed_structure_json_is_a_domain_error(files, capsys, case, verb):
    payload, named = MALFORMED_STRUCTURES[case]
    bad = files("bad.json", payload)
    if verb == "validate":
        argv = ["structure", "validate", "--file", bad]
    else:
        point, chain2 = files("a.json", POINT), files("b.json", CHAIN2)
        argv = ["arrow", "check-coloring", "--kind", "poset", "--A", point, "--B", chain2,
                "--C", bad, "-k", "2", "--coloring", "1"]
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "DomainError"
    assert named in error["message"]
    assert "Traceback" not in captured.err


# The parser is built once per process and reused by every ``main`` call.


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    commands = criterion_8_commands(tmp_path)
    fresh = {}
    for args in commands:
        proc = _run_subprocess(args, "0")
        fresh[tuple(args)] = (proc.returncode, proc.stdout)
    for args in commands + commands[::-1]:
        assert run_main(capsys, *args) == fresh[tuple(args)], args


def test_main_builds_the_parser_tree_once(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_main(capsys, "spectrum", "check", "--values", "0,1,5")[0] == 0
    first = len(built)
    assert first > 1
    for argv in (["spectrum", "tighten", "--values", "0,1,5"],
                 ["word", "enumerate", "--alphabet", "0", "-n", "2", "-m", "1"],
                 ["fixture", "paper-example"],
                 ["spectrum", "check", "--values", "0,1,5"]):
        assert run_main(capsys, *argv)[0] == 0
    assert len(built) == first


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(self)\n"
        "    real_init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import ramseylift.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


IMMUTABLE = (type(None), bool, int, float, str, tuple, frozenset)


def test_no_parser_action_has_a_mutable_default():
    parsers = list(_parsers(build_parser()))
    assert len(parsers) > 20
    for parser in parsers:
        for action in parser._actions:
            assert isinstance(action.default, IMMUTABLE), (parser.prog, action.dest)
            assert isinstance(action.const, IMMUTABLE), (parser.prog, action.dest)
        for name, value in parser._defaults.items():
            assert isinstance(value, (types.FunctionType, *IMMUTABLE)), (parser.prog, name)


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


# Input that used to end in a traceback is a domain error naming what is wrong.


def _error(capsys, *argv):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)["error"]


def test_unreadable_input_file_is_a_domain_error(files, tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe\x00")
    for argv, named in (
        (["structure", "validate", "--file", str(tmp_path)], "cannot read structure file"),
        (["structure", "validate", "--file", str(latin)], "structure file is not UTF-8"),
        (["word", "validate", "--alphabet", "0", "--word", str(latin)], "word file is not UTF-8"),
    ):
        code, error = _error(capsys, *argv)
        assert code == 1
        assert error["type"] == "DomainError" and named in error["message"]


def test_non_integer_flags_are_domain_errors(files, capsys):
    a, b, c = files("a.json", POINT), files("b.json", CHAIN2), files("c.json", CHAIN3)
    g = files("g.json", {"kind": "graph", "universe": [1], "edges": []})
    cases = [
        (["arrow", "check-coloring", "--kind", "poset", "--A", a, "--B", b, "--C", c,
          "-k", "2", "--coloring", "1,a"], "--coloring: 'a'"),
        (["transfer-demo", "poset", "--D", b, "--E", b, "-k", "2", "--coloring", "1,x"],
         "--coloring: 'x'"),
        (["transfer-demo", "graph", "--D", g, "--E", g, "-k", "2", "--C", "x"], "--C: 'x'"),
    ]
    for argv, named in cases:
        code, error = _error(capsys, *argv)
        assert code == 1 and error["type"] == "DomainError"
        assert error["message"] == f"{named} is not an integer"


METRIC = {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "2"]],
          "spectrum": ["0", "1", "2"]}


@pytest.mark.parametrize("kind, payload, spec", [
    ("metric", METRIC, "5"),
    ("metric", METRIC, "[[1]]"),
    ("metric", METRIC, "[[1,2]]"),
    ("metric", METRIC, '[[[1,{"a":0}],2]]'),
    ("metric", METRIC, "[[[1,0],[2]]]"),
    ("ultrametric", U_PAIR, '[["a",1]]'),
    ("ultrametric", U_PAIR, "{}"),
])
def test_malformed_phi_map_is_a_domain_error(files, capsys, kind, payload, spec):
    s = files("s.json", payload)
    target = files("t.json", CHAIN3)
    code, error = _error(capsys, "phi", kind, "--structure", s, "--poset", target, "--map", spec)
    assert code == 1 and error["type"] == "DomainError"
    assert "--map" in error["message"]


@pytest.mark.parametrize("spec", ["5", "[[1]]", "[[1,2,3]]", "[[[1],2]]", "[[1,[2]]]"])
def test_malformed_witness_map_is_a_domain_error(files, capsys, spec):
    g = files("g.json", GRAPH)
    code, error = _error(capsys, "witness", "graph", "--structure", g, "--sub", g,
                         "--map", spec, "--word", U16)
    assert code == 1 and error["type"] == "DomainError"
    assert "--map" in error["message"]


@pytest.mark.parametrize("verb", ["phi", "witness"])
@pytest.mark.parametrize("kind, payload", [("graph", GRAPH), ("poset", CHAIN2)])
def test_word_base_needs_a_word(files, capsys, verb, kind, payload):
    s = files("s.json", payload)
    argv = [verb, kind, "--structure", s]
    if verb == "witness":
        argv += ["--sub", s, "--map", json.dumps([[x, x] for x in payload["universe"]])]
    code, error = _error(capsys, *argv)
    assert code == 1
    assert error == {"type": "DomainError", "message": f"{verb} {kind} needs --word"}


@pytest.mark.parametrize("verb", ["pa-check", "transfer-demo"])
def test_structures_of_another_kind_are_refused(files, capsys, verb):
    p = files("p.json", CHAIN2)
    argv = [verb, "graph", "--D", p, "--E", p] + (["-k", "2"] if verb == "transfer-demo" else [])
    code, error = _error(capsys, *argv)
    assert code == 1
    assert error == {"type": "DomainError", "message": "expected a graph file, got poset"}


def test_structure_embeddings_refuses_a_hom_set_over_budget(files, capsys):
    a, c = files("a.json", POINT), files("c.json", CHAIN3)
    code, error = _error(capsys, "structure", "embeddings", "--source", a, "--target", c,
                         "--budget-hom", "2")
    assert code == 2
    assert error == {"type": "BudgetError",
                     "message": "hom set exceeds budget of 2 morphisms"}
    code, out = run_main(capsys, "structure", "embeddings", "--source", a, "--target", c,
                         "--budget-hom", "3")
    assert code == 0 and out.splitlines()[0] == "count: 3"


def test_every_kind_choice_is_the_selector_table():
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            if action.dest == "kind":
                assert tuple(action.choices) == SELECTORS, parser.prog


# Each verb declares the flags its handler reads; --format and --timings are on all.
BUDGET_FLAGS = {"--budget-hom", "--budget-colorings"}
VERB_FLAGS = {
    "word validate": {"--alphabet", "--word", "--m"},
    "word compose": {"--alphabet", "--u", "--v"},
    "word enumerate": {"--alphabet", "-n", "-m", "--limit"},
    "structure validate": {"--file"},
    "structure embeddings": {"--source", "--target", *BUDGET_FLAGS},
    "encode": {"--file"},
    "phi": {"--structure", "--word", "--alphabet", "--poset", "--map"},
    "witness": {"--structure", "--sub", "--map", "--word", "--alphabet"},
    "pa-check": {"--D", "--E", "--trials", "--seed"},
    "spectrum check": {"--values"},
    "spectrum tighten": {"--values"},
    "arrow decide": {"--kind", "--A", "--B", "--C", "-k", "--seed", "--threads", *BUDGET_FLAGS},
    "arrow check-coloring": {"--kind", "--A", "--B", "--C", "-k", "--coloring", *BUDGET_FLAGS},
    "arrow gr": {"--alphabet", "-n", "-m", "--ell", "-k", *BUDGET_FLAGS},
    "transfer-demo": {"--D", "--E", "-k", "--C", "--coloring", "--seed", "--threads",
                      *BUDGET_FLAGS},
    "fixture": {"--corrupt"},
}
COMMON_FLAGS = {"--format", "--timings", "--seed", "--threads", *BUDGET_FLAGS}


def test_each_verb_declares_only_the_flags_it_reads():
    declared = {}
    for parser in _parsers(build_parser()):
        if "handler" in parser._defaults:
            verb = parser.prog.removeprefix("ramseylift ")
            declared[verb] = {opt for action in parser._actions for opt in action.option_strings
                              if opt not in ("-h", "--help")}
    assert declared == {verb: flags | {"--format", "--timings"}
                        for verb, flags in VERB_FLAGS.items()}
    assert sum(len(flags & COMMON_FLAGS) for flags in declared.values()) == 47


@pytest.mark.parametrize("c", ["1", "-1"])
def test_word_base_refuses_an_object_shorter_than_the_encoded_pair(files, capsys, c):
    d, e = files("d.json", CHAIN2), files("e.json", POINT)
    code, error = _error(capsys, "transfer-demo", "poset", "--D", d, "--E", e, "-k", "2",
                         "--C", c)
    assert code == 1
    assert error == {"type": "DomainError",
                     "message": f"no word with 2 parameters and length {c} exists"}


# Long inputs: the word and embedding walks keep their own stacks, so a
# word or structure longer than the interpreter's recursion limit is decided
# like any other (these three used to end in a RecursionError traceback).


def test_long_word_enumeration_is_refused_by_its_budget(capsys):
    code, error = _error(capsys, "word", "enumerate", "--alphabet", "0", "-n", "1200",
                         "-m", "1", "--limit", "5")
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "enumeration of W^1200_1 exceeded limit 5: at least 6 words exist"}


def test_long_word_premise_is_refused_by_its_budget(files, capsys):
    point = files("gpoint.json", {"kind": "graph", "universe": [1], "edges": []})
    code, error = _error(capsys, "transfer-demo", "graph", "--D", point, "--E", point,
                         "-k", "2", "--C", "1500")
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "enumeration of W^1500_1 exceeded limit 10000: at least 10001 words exist"}


def test_word_count_refusal_is_prompt_at_a_million_letters(capsys):
    """|W^n_ell| is a closed form in n, not a loop over the n positions."""
    start = time.perf_counter()
    code, error = _error(capsys, "arrow", "gr", "--alphabet", "0", "-n", "1000000", "-m", "2",
                         "--ell", "1", "-k", "2")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "|W^1000000_1| = <301030 digits> exceeds the hom budget 10000"}


def test_word_enumerate_refusal_is_prompt_at_ten_million_letters(capsys):
    """A lower bound on |W^n_m| refuses before the exact count's powers of
    n * log2(|A| + m) bits are computed."""
    start = time.perf_counter()
    code, error = _error(capsys, "word", "enumerate", "--alphabet", "0,1", "-n", "10000000",
                         "-m", "3")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert error == {"type": "BudgetError", "message": "enumeration of W^10000000_3 exceeded "
                     "limit 10000: at least 10001 words exist"}


def test_negative_coloring_budget_is_a_domain_error(capsys):
    code, error = _error(capsys, "arrow", "gr", "--alphabet", "0", "-n", "2", "-m", "1",
                         "--ell", "1", "-k", "2", "--budget-colorings", "-1")
    assert code == 1
    assert error == {"type": "DomainError",
                     "message": "coloring budget must be nonnegative, got -1"}


def test_word_premise_refusal_builds_no_word(files, capsys, monkeypatch):
    """The premise sizes hom(FE, C) by its exact count, so a C past the
    hom budget is refused before any word of length C is built."""
    lengths = []
    real = words.ParameterWord

    def counting(alphabet, m, symbols):
        lengths.append(len(symbols))
        return real(alphabet, m, symbols)

    monkeypatch.setattr(words, "ParameterWord", counting)
    point = files("point.json", POINT)
    code, error = _error(capsys, "transfer-demo", "poset", "--D", point, "--E", point,
                         "-k", "2", "--C", "3000")
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "enumeration of W^3000_1 exceeded limit 10000: at least 10001 words exist"}
    assert 3000 not in lengths


def test_refusals_name_huge_counts_by_their_digits(files, capsys):
    """A count of more than 30 digits is named by its number of digits, so
    one past Python's int-to-text limit cannot crash a refusal; shorter
    counts stay in full."""
    code, error = _error(capsys, "arrow", "gr", "--alphabet", "0", "-n", "20000", "-m", "2",
                         "--ell", "1", "-k", "2")
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "|W^20000_1| = <6021 digits> exceeds the hom budget 10000"}
    a, b, c = files("a.json", POINT), files("b.json", CHAIN2), files("c.json", CHAIN3)
    code, error = _error(capsys, "arrow", "decide", "--kind", "poset", "--A", a, "--B", b,
                         "--C", c, "-k", "1" + "0" * 1500)
    assert code == 2
    assert error == {"type": "BudgetError", "message":
                     "deciding needs k^|hom(A,C)| = <1501 digits>^3 = <4501 digits> "
                     "colorings, above the budget of 2000000"}


def test_embeddings_of_a_large_structure_into_itself(files, capsys):
    n = 1100
    big = files("big.json", {"kind": "graph", "universe": list(range(n)), "edges": []})
    code, out = run_main(capsys, "structure", "embeddings", "--source", big, "--target", big)
    assert code == 0
    assert out.splitlines() == ["count: 1", " ".join(f"{v}->{v}" for v in range(n))]

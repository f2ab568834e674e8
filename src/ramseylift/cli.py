"""Command-line front end.

One verb per construction: word algebra, structure validation and
embedding enumeration, the four encodings with their maps and witnesses,
spectrum checks and completion, arrow decisions, the factorization
harness, the transfer pipeline, and the pinned end-to-end fixture.

Exit codes: 0 success, 1 domain error, 2 budget refusal.  All output is
deterministic for a fixed seed; wall-clock timings are only emitted when
--timings is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Hashable
from pathlib import Path

from . import fixtures
from . import graph_encoding as GE
from . import metric_encoding as ME
from . import poset_encoding as PE
from . import ultrametric_encoding as UE
from . import words as W
from .errors import BudgetError, DomainError, RamseyLiftError
from .harness import SELECTORS, pa_harness, selector_impl, transfer_demo
from .oracle import (
    ArrowInstance,
    Budget,
    StructureCategory,
    WordCategory,
    check_coloring,
    decide_arrow,
    decide_gr,
)
from .structures import (
    Ball,
    check_embedding,
    format_rational,
    from_json,
    identity_embedding,
    parse_rational,
    to_json,
    validate_structure,
)

# ---------------------------------------------------------------------------
# input helpers


def _alphabet(spec: str) -> W.Alphabet:
    return W.Alphabet(spec.split(","))


def _word_source(value: str, alphabet: W.Alphabet, m=None) -> W.ParameterWord:
    """Read a word from a file path, or parse the value itself as word text."""
    path = Path(value)
    if path.is_file():
        try:
            return W.parse(path.read_text(), alphabet, m)
        except DomainError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise DomainError(f"{path}: word file is not UTF-8 text") from None
    return W.parse(value, alphabet, m)


def _structure(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DomainError(f"structure file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise DomainError(f"cannot read structure file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DomainError(f"{path}: structure file is not UTF-8 text") from None
    return from_json(data)


def _kind_structure(path: str, kind: str):
    s = _structure(path)
    if s.kind != kind:
        raise DomainError(f"expected a {kind} file, got {s.kind}")
    return s


def _rationals(spec: str) -> list:
    return [parse_rational(tok) for tok in spec.split(",") if tok != ""]


def _int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"{flag}: {token!r} is not an integer") from None


def _int_list(spec: str, flag: str) -> list[int]:
    return [_int(tok, flag) for tok in spec.split(",") if tok != ""]


def _json_arg(spec: str):
    try:
        return json.loads(spec)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad inline JSON: {exc.msg}") from None


def _render(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, Ball):
        return {"points": sorted(value.points), "radius_index": value.radius_index}
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# output


class Reporter:
    def __init__(self, args):
        self.format = args.format
        self.timings = args.timings
        self.started = time.monotonic()

    def emit(self, payload: dict, text_lines) -> None:
        if self.timings:
            payload = dict(payload)
            payload["wall_time_ms"] = int((time.monotonic() - self.started) * 1000)
        if self.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)

    def fail(self, exc: RamseyLiftError) -> int:
        code = 2 if isinstance(exc, BudgetError) else 1
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if self.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


def _budget(args) -> Budget:
    return Budget(max_hom=args.budget_hom, max_colorings=args.budget_colorings)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_word_validate(args, rep):
    alphabet = _alphabet(args.alphabet)
    word = _word_source(args.word, alphabet, args.m)
    payload = {"word": word.text(), "n": word.n, "m": word.m, "valid": True}
    rep.emit(payload, [f"valid: n={word.n} m={word.m}", word.text()])


def cmd_word_compose(args, rep):
    alphabet = _alphabet(args.alphabet)
    u = _word_source(args.u, alphabet)
    v = _word_source(args.v, alphabet)
    out = W.compose(u, v)
    rep.emit({"word": out.text(), "n": out.n, "m": out.m}, [out.text()])


def cmd_word_enumerate(args, rep):
    alphabet = _alphabet(args.alphabet)
    words = [w.text() for w in W.enumerate_words(alphabet, args.n, args.m, args.limit)]
    rep.emit(
        {"count": len(words), "words": words},
        [f"count: {len(words)}"] + words,
    )


def cmd_structure_validate(args, rep):
    s = _structure(args.file)
    report = validate_structure(s)
    rep.emit(
        {"valid": True, "report": report, "structure": to_json(s)},
        [f"valid {report['kind']} with {report['size']} elements"],
    )


def cmd_structure_embeddings(args, rep):
    src = _structure(args.source)
    tgt = _structure(args.target)
    cat = StructureCategory(src.kind)
    found = [[[a, tgt.universe[r]] for a, r in zip(src.universe, ranks)]
             for ranks in cat.hom(src, tgt, _budget(args))]
    rep.emit(
        {"count": len(found), "embeddings": found},
        [f"count: {len(found)}"] + [" ".join(f"{a}->{b}" for a, b in e) for e in found],
    )


def cmd_encode(args, rep):
    s = _kind_structure(args.file, args.kind)
    if args.kind == "graph":
        enc = GE.encode_graph(s)
        payload = {
            "object": enc.object,
            "edge_order": [sorted(e) for e in enc.edge_order],
        }
        lines = [f"object: {enc.object}"] + [
            f"e_{i + 1}: {sorted(e)}" for i, e in enumerate(enc.edge_order)
        ]
    elif args.kind == "poset":
        enc = PE.encode_poset(s)
        payload = {
            "object": enc.object,
            "downsets": [sorted(d) for d in enc.downsets],
        }
        lines = [f"object: {enc.object}"] + [
            f"D_{i + 1}: {sorted(d)}" for i, d in enumerate(enc.downsets)
        ]
    elif args.kind == "ultrametric":
        bp = UE.encode_ultrametric(s)
        elems = bp.poset.universe
        index = {b: i + 1 for i, b in enumerate(elems)}
        payload = {
            "balls": [
                {"index": index[b], "points": sorted(b.points), "radius_index": b.radius_index}
                for b in elems
            ],
            "leq": sorted([index[a], index[b]] for a, b in bp.poset.strict_pairs()),
        }
        lines = [f"balls: {len(elems)}"] + [
            f"B_{index[b]}: points={sorted(b.points)} radius_index={b.radius_index}"
            for b in elems
        ]
    else:
        poset = ME.encode_metric(s)
        elems = poset.universe
        index = {e: i + 1 for i, e in enumerate(elems)}
        payload = {
            "elements": [[x, i] for (x, i) in elems],
            "leq": sorted([index[a], index[b]] for a, b in poset.strict_pairs()),
        }
        lines = [f"elements: {len(elems)}"] + [f"L_{index[e]}: {e}" for e in elems]
    rep.emit(payload, lines)


def _base_word(args) -> W.ParameterWord:
    """The base word u that phi and witness take for a graph or a poset."""
    if args.word is None:
        raise DomainError(f"{args.command} {args.kind} needs --word")
    return _word_source(args.word, _alphabet(args.alphabet))


def _ball_key(key, universe):
    """A ball given by its 1-based index, as ``encode ultrametric`` numbers it."""
    if not isinstance(key, int):
        raise DomainError(f"--map: ball index {key!r} is not an integer")
    if not 1 <= key <= len(universe):
        raise DomainError(f"ball index {key} out of range 1..{len(universe)}")
    return universe[key - 1]


def _level_key(key, universe):
    """A level-poset element given as [point, level], as ``encode metric`` lists it."""
    if not (isinstance(key, list) and len(key) == 2 and all(isinstance(x, Hashable) for x in key)):
        raise DomainError(f"--map: {key!r} is not a [point, level] pair")
    return tuple(key)


# How --map names the elements of each space kind's encoded poset.
_ENCODED_KEYS = {"ultrametric": _ball_key, "metric": _level_key}


def _mapped_embedding(spec: str, source, target, key=None):
    """The embedding of ``source`` into ``target`` that --map gives as a JSON
    list of [source, target] element pairs; ``key``, when given, reads each
    source entry as an element of ``source``."""
    pairs = _json_arg(spec)
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise DomainError(f"--map must be a JSON list of [source, target] pairs, got {spec}")
    mapping = {}
    for entry, tgt in pairs:
        src = entry if key is None else key(entry, source.universe)
        if not (isinstance(src, Hashable) and isinstance(tgt, Hashable)):
            raise DomainError(f"--map: {[entry, tgt]} does not pair two structure elements")
        mapping[src] = tgt
    return check_embedding(mapping, source, target)


def cmd_phi(args, rep):
    s = _kind_structure(args.structure, args.kind)
    impl = selector_impl(args.kind)
    words = impl.category.name == "words"
    if words:
        u = _base_word(args)
    else:
        inner = impl.encode(s)
        if args.poset is None:
            u = identity_embedding(inner)
        else:
            poset = _structure(args.poset)
            if poset.kind != "poset":
                raise DomainError("phi target must be a poset file")
            if args.map is None:
                raise DomainError("--map is required when --poset is given")
            u = _mapped_embedding(args.map, inner, poset, _ENCODED_KEYS[args.kind])
    images = impl.phi(s, u)
    payload = {"images": [[x, _render(img)] for x, img in images.items()]}
    if words:
        lines = [f"{v}: {' '.join(map(str, sorted(img)))}" for v, img in images.items()]
    else:
        lines = [f"{x}: {_render(img)}" for x, img in images.items()]
    rep.emit(payload, lines)


def cmd_witness(args, rep):
    big = _structure(args.structure)
    small = _structure(args.sub)
    if big.kind != args.kind or small.kind != args.kind:
        raise DomainError(f"both structures must be of kind {args.kind}")
    f = _mapped_embedding(args.map, small, big)
    impl = selector_impl(args.kind)
    if impl.category.name == "words":
        h = impl.witness(big, small, f, _base_word(args))
        rep.emit({"witness": h.text(), "n": h.n, "m": h.m}, [h.text()])
    else:
        v = impl.witness(big, small, f, None)
        pairs = [[_render(a), _render(b)] for a, b in v.mapping]
        rep.emit(
            {"witness": pairs},
            [f"{_render(a)} -> {_render(b)}" for a, b in v.mapping],
        )


def cmd_pa_check(args, rep):
    if (args.D is None) != (args.E is None):
        raise DomainError("supply both --D and --E, or neither")
    D = _kind_structure(args.D, args.kind) if args.D else None
    E = _kind_structure(args.E, args.kind) if args.E else None
    report = pa_harness(args.kind, D, E, trials=args.trials, seed=args.seed)
    payload = report.to_json()
    lines = [
        f"selector: {report.selector}",
        f"trials: {len(report.trials)}",
        f"failures: {len(report.failures)}",
        f"all_passed: {str(report.all_passed).lower()}",
    ] + [f"  failed {t.index} (seed {t.trial_seed}): {t.error}" for t in report.failures]
    rep.emit(payload, lines)
    return 0 if report.all_passed else 1


def cmd_spectrum_check(args, rep):
    values = _rationals(args.values)
    tight = ME.is_tight(values)
    rep.emit(
        {"values": [format_rational(v) for v in values], "tight": tight},
        [f"tight: {str(tight).lower()}"],
    )


def cmd_spectrum_tighten(args, rep):
    values = _rationals(args.values)
    spec = ME.tight_complete(values)
    text = ",".join(format_rational(v) for v in spec)
    rep.emit(
        {"values": [format_rational(v) for v in spec], "tight": True},
        [text],
    )


def _arrow_instance(args):
    A, B, C = (_kind_structure(path, args.kind) for path in (args.A, args.B, args.C))
    return ArrowInstance(StructureCategory(args.kind), A, B, C, args.k)


def _verdict_lines(verdict) -> list[str]:
    """The text form of an arrow decision: verdict, counts, bad coloring."""
    lines = [
        f"verdict: {'holds' if verdict.holds else 'fails'}",
        "counts: " + " ".join(f"{k}={v}" for k, v in verdict.counts.items()),
    ]
    if verdict.bad_coloring is not None:
        lines.append("bad_coloring: " + ",".join(map(str, verdict.bad_coloring)))
    return lines


def cmd_arrow_decide(args, rep):
    inst = _arrow_instance(args)
    verdict = decide_arrow(inst, _budget(args))
    payload = {
        "instance": {"kind": args.kind, "k": args.k},
        "seed": args.seed,
        **verdict.to_json(inst.category),
    }
    rep.emit(payload, _verdict_lines(verdict))


def cmd_arrow_check_coloring(args, rep):
    inst = _arrow_instance(args)
    colors = _int_list(args.coloring, "--coloring")
    verdict, detail = check_coloring(inst, colors, _budget(args))
    payload = {
        "instance": {"kind": args.kind, "k": args.k},
        **verdict.to_json(inst.category),
        "candidates": detail,
    }
    lines = [f"monochromatic: {'yes' if verdict.holds else 'no'}"]
    if verdict.holds:
        lines.append(f"witness_color: {verdict.witness_color}")
    lines += [
        f"  candidate {i}: colors {d['colors_met']}" for i, d in enumerate(detail)
    ]
    rep.emit(payload, lines)
    return 0


def cmd_arrow_gr(args, rep):
    alphabet = _alphabet(args.alphabet)
    verdict = decide_gr(alphabet, args.n, args.m, args.ell, args.k, _budget(args))
    payload = {
        "instance": {"alphabet": list(alphabet.letters), "n": args.n, "m": args.m,
                     "ell": args.ell, "k": args.k},
        **verdict.to_json(WordCategory(alphabet)),
    }
    rep.emit(payload, _verdict_lines(verdict))


def cmd_transfer_demo(args, rep):
    D = _kind_structure(args.D, args.kind)
    E = _kind_structure(args.E, args.kind)
    C = None
    if args.C is not None:
        if selector_impl(args.kind).category.name == "words":
            C = _int(args.C, "--C")
        else:
            C = _structure(args.C)
    coloring = _int_list(args.coloring, "--coloring") if args.coloring else None
    report = transfer_demo(
        args.kind, D, E, args.k,
        budget=_budget(args), seed=args.seed, C=C, coloring=coloring,
    )
    payload = report.to_json()
    lines = [
        f"premise: {json.dumps(report.premise['object'])}",
        f"coloring: {','.join(map(str, report.coloring))}",
        f"pulled_back: {','.join(map(str, report.pulled_back))}",
        f"monochromatic: index={report.mono_index} color={report.mono_color}",
        f"composites: {len(report.composites)}",
        f"verified: {str(report.verified).lower()}",
    ]
    rep.emit(payload, lines)
    return 0 if report.verified else 1


def cmd_fixture(args, rep):
    checks = fixtures.run_fixture(corrupt=args.corrupt)
    bad = [c for c in checks if not c.ok]
    payload = {
        "checks": [c.to_json() for c in checks],
        "total": len(checks),
        "mismatches": len(bad),
        "ok": not bad,
    }
    lines = [f"{c.name}: {'ok' if c.ok else 'MISMATCH'}" for c in checks]
    if bad:
        first = bad[0]
        lines.append(
            f"first mismatch at {first.name}: expected {_render(first.expected)}, "
            f"got {_render(first.actual)}"
        )
    else:
        lines.append(f"all {len(checks)} values match")
    rep.emit(payload, lines)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# parser


# Flags a verb declares only when its handler reads them.
_OPTIONAL_FLAGS = {
    "--seed": {"type": int, "default": 0,
               "help": "seed for all randomized steps (default 0)"},
    "--threads": {"type": int, "default": 1,
                  "help": "accepted for compatibility; has no effect (the search is serial)"},
    "--budget-hom": {"type": int, "default": 10_000,
                     "help": "largest hom set the oracle will enumerate"},
    "--budget-colorings": {"type": int, "default": 2_000_000,
                           "help": "largest number of colorings the oracle will exhaust"},
}
_BUDGET_FLAGS = ("--budget-hom", "--budget-colorings")


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """--format and --timings, which every verb takes, and ``flags`` from
    _OPTIONAL_FLAGS."""
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    for flag in flags:
        p.add_argument(flag, **_OPTIONAL_FLAGS[flag])
    p.add_argument("--timings", action="store_true",
                   help="include wall_time_ms in JSON output (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="ramseylift",
        description="parameter words, ordered-structure encodings, and arrow decisions",
    )
    sub = root.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="parameter word operations").add_subparsers(
        dest="sub", required=True
    )
    p = word.add_parser("validate")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word", required=True, help="file path or literal token text")
    p.add_argument("--m", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_word_validate)
    p = word.add_parser("compose")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_word_compose)
    p = word.add_parser("enumerate")
    p.add_argument("--alphabet", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--limit", type=int, default=10_000)
    _add_common(p)
    p.set_defaults(handler=cmd_word_enumerate)

    structure = sub.add_parser("structure", help="structure files").add_subparsers(
        dest="sub", required=True
    )
    p = structure.add_parser("validate")
    p.add_argument("--file", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_structure_validate)
    p = structure.add_parser("embeddings")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    _add_common(p, *_BUDGET_FLAGS)
    p.set_defaults(handler=cmd_structure_embeddings)

    p = sub.add_parser("encode", help="encode a structure")
    p.add_argument("kind", choices=SELECTORS)
    p.add_argument("--file", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("phi", help="decode a base morphism into an embedding")
    p.add_argument("kind", choices=SELECTORS)
    p.add_argument("--structure", required=True)
    p.add_argument("--word", help="base word (graph/poset kinds)")
    p.add_argument("--alphabet", default="0")
    p.add_argument("--poset", help="target poset file (ultrametric/metric kinds)")
    p.add_argument("--map", help="embedding of the encoded poset into --poset, as JSON")
    _add_common(p)
    p.set_defaults(handler=cmd_phi)

    p = sub.add_parser("witness", help="factorizing morphism for an embedding")
    p.add_argument("kind", choices=SELECTORS)
    p.add_argument("--structure", required=True, help="the big structure D")
    p.add_argument("--sub", required=True, help="the small structure E")
    p.add_argument("--map", required=True, help="embedding of E into D as JSON pairs")
    p.add_argument("--word", help="base word u (graph/poset kinds)")
    p.add_argument("--alphabet", default="0")
    _add_common(p)
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("pa-check", help="randomized factorization suite")
    p.add_argument("kind", choices=SELECTORS)
    p.add_argument("--D", help="structure file for D")
    p.add_argument("--E", help="structure file for E")
    p.add_argument("--trials", type=int, default=200)
    _add_common(p, "--seed")
    p.set_defaults(handler=cmd_pa_check)

    spectrum = sub.add_parser("spectrum", help="tight spectra").add_subparsers(
        dest="sub", required=True
    )
    p = spectrum.add_parser("check")
    p.add_argument("--values", required=True, help="comma separated rationals")
    _add_common(p)
    p.set_defaults(handler=cmd_spectrum_check)
    p = spectrum.add_parser("tighten")
    p.add_argument("--values", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_spectrum_tighten)

    arrow = sub.add_parser("arrow", help="arrow relation oracle").add_subparsers(
        dest="sub", required=True
    )
    p = arrow.add_parser("decide")
    p.add_argument("--kind", choices=SELECTORS, required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("-k", type=int, required=True)
    _add_common(p, "--seed", "--threads", *_BUDGET_FLAGS)
    p.set_defaults(handler=cmd_arrow_decide)
    p = arrow.add_parser("check-coloring")
    p.add_argument("--kind", choices=SELECTORS, required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--coloring", required=True, help="comma separated colors 1..k")
    _add_common(p, *_BUDGET_FLAGS)
    p.set_defaults(handler=cmd_arrow_check_coloring)
    p = arrow.add_parser("gr")
    p.add_argument("--alphabet", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    _add_common(p, *_BUDGET_FLAGS)
    p.set_defaults(handler=cmd_arrow_gr)

    p = sub.add_parser("transfer-demo", help="run the transfer pipeline end to end")
    p.add_argument("kind", choices=SELECTORS)
    p.add_argument("--D", required=True)
    p.add_argument("--E", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--C", help="base object: an integer (graph/poset) or poset file")
    p.add_argument("--coloring", help="explicit coloring of hom(E, G(C))")
    _add_common(p, "--seed", "--threads", *_BUDGET_FLAGS)
    p.set_defaults(handler=cmd_transfer_demo)

    fixture = sub.add_parser("fixture", help="pinned end-to-end example")
    fixture.add_argument("which", choices=("paper-example",))
    fixture.add_argument("--corrupt", help="perturb one expected value (negative control)")
    _add_common(fixture)
    fixture.set_defaults(handler=cmd_fixture)

    return root


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then reused.

    Reuse is safe because ``parse_args`` returns a fresh namespace per call
    and no action has a mutable default.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rep = Reporter(args)
    try:
        result = args.handler(args, rep)
    except RamseyLiftError as exc:
        return rep.fail(exc)
    return result or 0


if __name__ == "__main__":
    sys.exit(main())

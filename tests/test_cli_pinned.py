"""Per-kind CLI outputs pinned byte for byte.

``data/cli_pinned.json`` holds the structure files and, for each command
in JSON and in text, the exit code, stdout and stderr that the CLI gave
at commit 382a6e8, before the four encodings shared one selector
protocol.  The commands cover encode, phi, witness, pa-check and
transfer-demo for every kind, phi into an explicit poset with --map,
transfer-demo with an integer and a poset-file --C (failing premises
included) and with --coloring.  The data is a record of past behaviour:
do not regenerate it to make a change pass.  Four cases were edited by
hand when the word premise moved from ``decide_gr`` to ``decide_arrow``:
the failing ``--C 2`` poset premise (JSON and text) now reports the first
bad coloring in Gray order, ``[2, 1, 1]``, and the probed one's budget
refusal names ``k^|hom(A,C)|`` instead of ``k^|W^5_1|``.
"""

import json
from pathlib import Path

import pytest

from ramseylift.cli import main

PINNED = json.loads((Path(__file__).parent / "data" / "cli_pinned.json").read_text())


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    out = {}
    for name, payload in PINNED["files"].items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        out[name] = str(path)
    return out


@pytest.mark.parametrize(
    "case", PINNED["cases"],
    ids=[f"{i}-{'-'.join(c['argv'][:2])}-{c['argv'][-1]}" for i, c in enumerate(PINNED["cases"])],
)
def test_cli_output_is_pinned(case, paths, capsys):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])

"""Per-kind CLI outputs pinned byte for byte.

``data/cli_pinned.json`` holds the structure files and, for each command
in JSON and in text, the exit code, stdout and stderr that the CLI gave
at commit 382a6e8, before the four encodings shared one selector
protocol.  The commands cover encode, phi, witness, pa-check and
transfer-demo for every kind, phi into an explicit poset with --map,
transfer-demo with an integer and a poset-file --C (failing premises
included) and with --coloring.  The data is a record of past behaviour:
do not regenerate it to make a change pass.  Cases edited by hand since:
the probed word premise's budget refusal names ``k^|hom(A,C)|`` instead
of ``k^|W^5_1|``, since ``decide_arrow`` decides it; and every failing
premise reports its first bad coloring in itertools.product order, which
both word deciders share: ``[1, 1, 2]`` for the word premise ``--C 2``,
where the one candidate's three composites must not share a color, and
``[1, 1, 1, 1, 2]`` for the ultrametric pair into the diamond poset, where
the one candidate's composites are the last two of the five 2-chains.
Each is pinned in JSON and in text.
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

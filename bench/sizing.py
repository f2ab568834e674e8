"""Single-shot sizing probe: tuple-space decoding at 64 and 125 points.

    python3 bench/sizing.py [--seed N]

Times one ``decode_poset_ultra`` and one ``decode_poset_metric`` call over
a random 4-element and a random 5-element poset (4^3 and 5^3 points), the
sizes ROADMAP quotes for the decode layer.  Decoding is not one of the
workloads of ``run.py``: a 64-point decode with its checks takes seconds,
too long to repeat often enough inside a run for a steady figure on a
shared machine.  Prints one JSON object of seconds per call.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramseylift" / "__init__.py").is_file():
        print(f"error: no ramseylift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from ramseylift import metric_encoding as ME
    from ramseylift import ultrametric_encoding as UE
    from workloads import random_2dim_poset

    rng = random.Random(f"sizing:{args.seed}")
    spectrum = [Fraction(v) for v in range(4)]  # 0,1,2,3: tight and graded
    out = {}
    for n in (4, 5):
        poset = random_2dim_poset(rng, n)
        for kind, decode in (("ultrametric", UE.decode_poset_ultra),
                             ("metric", ME.decode_poset_metric)):
            start = time.perf_counter()
            space = decode(poset, spectrum)
            out[f"{kind}_{len(space.universe)}_s"] = time.perf_counter() - start
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

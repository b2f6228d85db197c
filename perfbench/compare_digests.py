#!/usr/bin/env python3
"""Check that two benchmark runs with one seed produced the same bytes.

    python3 perfbench/compare_digests.py .perfbench/digests/A.json .perfbench/digests/B.json

Runs are time-bounded, so they may complete different numbers of ops; the
ops both completed are compared, digest by digest. Exits 1 on any difference.
"""

import json
import sys


def main(first: str, second: str) -> int:
    a, b = (json.load(open(path, encoding="utf-8")) for path in (first, second))
    common = min(len(a), len(b))
    differing = [i for i in range(common) if a[i] != b[i]]
    for i in differing[:5]:
        print(f"op {i} differs: {a[i]} != {b[i]}")
    print(f"{common - len(differing)} of {common} common ops identical")
    return 1 if differing or common == 0 else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))

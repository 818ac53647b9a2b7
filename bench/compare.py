"""Report the outputs whose sha256 differs between two benchmark results.

    python3 bench/compare.py BEFORE.json AFTER.json

Each argument is a result file written by bench/run.py (under .bench_out/),
typically from the parent commit and from a change, run with the same
workload and seed.  Every input present in both must have byte-identical
output.  Exits 1 if any digest differs.
"""

from __future__ import annotations

import json
import sys


def differing(before: dict, after: dict) -> list[str]:
    return sorted(k for k in before.keys() & after.keys() if before[k] != after[k])


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.load(open(path, encoding="utf-8"))["digests"] for path in argv[1:])
    bad = differing(before, after)
    for key in bad:
        print(f"differs: {key}")
    common = len(before.keys() & after.keys())
    print(f"{common} outputs compared, {len(bad)} differ, {len(before.keys() ^ after.keys())} in one file only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

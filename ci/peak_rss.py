"""Run a command and fail when its peak resident set size exceeds a ceiling.

    python3 ci/peak_rss.py 120 -- python -m symquant abstract --config ci/grid-3721.ini --out grid.sts

Prints the command's wall time and peak RSS (``ru_maxrss`` of the child, in
MiB; Linux reports it in KiB).  Exits with the command's code when it fails,
1 when its peak RSS is above the ceiling (MiB), and 0 otherwise.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: peak_rss.py CEILING_MIB -- command [args...]", file=sys.stderr)
        return 2
    ceiling = float(argv[0])
    start = time.perf_counter()
    rc = subprocess.run(argv[2:]).returncode
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak_rss: {peak:.1f} MiB (ceiling {ceiling:g} MiB), wall {wall:.2f} s")
    if rc != 0:
        return rc
    return 1 if peak > ceiling else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR SPEC [SPEC ...]

Times importing ``nullhelix.cli`` from SRC_DIR plus ``load_spec`` of every
SPEC, and prints one JSON line with that time, raw and normalised by the
reference loop run just before and after it.
"""

import json
import sys
import time

from speed import SpeedGauge


def main():
    src, paths = sys.argv[1], sys.argv[2:]
    gauge = SpeedGauge()
    gauge.sample()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from nullhelix import cli

    for path in paths:
        cli.load_spec(path)
    end = time.perf_counter()
    gauge.sample()
    print(json.dumps({"seconds": end - start,
                      "normalised": gauge.normalise(start, end)}))


if __name__ == "__main__":
    main()

"""Host-speed probe: times one fixed unit of work, over and over.

    python3 bench/probe.py OUTFILE

``run.py`` starts it on the CPU that the measured processes use and
terminates it at the end of the run; it also stops when its parent
dies. After each unit it appends a line ``start end`` in
``time.perf_counter`` seconds to OUTFILE, flushed at once, and sleeps for
``PERIOD_S``. On Linux perf_counter reads CLOCK_MONOTONIC, so these times
compare with those of the other processes. The unit touches no qlert
code, so a change to qlert does not change its duration; only the host's
speed does.
"""

import os
import signal
import sys
import time

import numpy as np
import scipy.sparse as sp

#: Pause between units: the probe takes about 2% of the CPU it shares.
PERIOD_S = 0.05


def make_unit():
    """Interpreted arithmetic plus sparse matrix-vector products, the two
    kinds of work that qlert's commands spend their time in."""
    n = 2000
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    x = np.linspace(0.0, 1.0, n)

    def unit():
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        y = x
        for _ in range(20):
            y = lap @ y + 0.5 * x
        return acc + float(y[0])

    return unit


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    unit = make_unit()
    unit()
    with open(sys.argv[1], "a", encoding="utf-8") as out:
        while os.getppid() == parent:  # also stop when orphaned
            t0 = time.perf_counter()
            unit()
            t1 = time.perf_counter()
            out.write(f"{t0:.6f} {t1:.6f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()

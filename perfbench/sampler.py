"""Speed sampler: times a fixed piece of work, over and over, on the benchmark's CPU.

On a shared host a CPU flips between a fast and a slow state every few
seconds (this work takes about 2 ms or 3 ms of CPU time on a 2-vCPU Xeon
VM), and the share of slow time drifts by tens of percent over minutes.
run.py pins this process and every worker to one CPU, so the samples show
the speed the worker got while it ran, and scales measured times by it.

    python3 perfbench/sampler.py

Prints "ready" once it samples, then, on SIGTERM, one JSON list of
[time.monotonic() at start, CPU seconds] pairs, and exits.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.1  # time between samples; each sample takes 2-4% of that


def _work(X) -> None:
    """Interpreter and small-array numpy work, the kind that dominates the fits."""
    acc = 0
    for i in range(10_000):
        acc += i * i
    w = np.linspace(0.5, -0.5, X.shape[1])
    for _ in range(150):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w = w - 1e-3 * (X.T @ (p - 0.5))


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    X = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
    samples = []
    _work(X)  # warm up before the first sample counts
    print("ready", flush=True)
    try:
        while True:
            start, cpu0 = time.monotonic(), time.process_time()
            _work(X)
            samples.append([start, time.process_time() - cpu0])
            time.sleep(PERIOD_S)
    finally:
        print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    sys.exit(main())

"""Reference task: a fixed piece of work that shows how fast the machine is now.

The task mixes what the program spends its time on: formatting and
parsing CSV-like text in a Python loop, and numpy transforms. It never
calls the program, so no change to the program can move it. `run.py`
times it in its own process next to the in-process monitor, and runs this
file as a fresh interpreter (start-up, numpy import, one task) next to
each CLI stage, which is a process too:

    python3 perfbench/reference.py
"""

import numpy as np

SIGNAL = np.cos(np.arange(30000) * 0.001)


def task():
    rows = [f"{i * 0.001:.6f},0,{i % 3},{1535.3 + i * 1e-6:.9f}" for i in range(8000)]
    total = 0.0
    for row in rows:
        parts = row.split(",")
        total += float(parts[0]) + float(parts[3]) + int(parts[2])
    for _ in range(4):
        np.abs(np.fft.fft(SIGNAL))
    return total


if __name__ == "__main__":
    task()

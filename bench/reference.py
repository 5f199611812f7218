"""Host-speed reference: a fixed pure-Python computation timed next to the
workload, so that timings can be given at a constant host speed.

The shared host this benchmark runs on drifts in speed by up to half over
minutes, and every workload is interpreter-bound, so a workload pass slows
with the host as this computation does.  `run.py` times the reference right
before and right after each round of passes and multiplies the round's wall
times by NOMINAL_S / (mean of the two reference times): a timing is then in
seconds of a host on which the reference takes NOMINAL_S.  The reference
imports nothing from fanoscope, so a change to the program moves the
normalised timings exactly as it moves the wall times.

Its mix follows the workloads': exact rational row reduction (Gamma's rank),
fraction-free integer determinants, and sets and dicts of integer tuples
(hulls and face lattices).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median of compute() on the host where the benchmark was written
# (Python 3.11.7, 2-vCPU KVM guest, Intel Xeon of the Sapphire Rapids class).
NOMINAL_S = 0.17
CHECKSUM = 109255


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _det(a) -> int:
    m = [row[:] for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _tuples(rng) -> int:
    points = {tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(150)}
    sums = {}
    for p in points:
        for q in points:
            if p < q:
                s = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
                sums[s] = sums.get(s, 0) + 1
    return len(sums) + max(sums.values())


def compute() -> int:
    """The reference computation; always returns CHECKSUM."""
    rng = random.Random(20180109)
    total = 0
    for _ in range(12):
        total += _rank([[rng.randrange(-6, 7) for _ in range(18)]
                        for _ in range(12)])
        for _ in range(12):
            total += abs(_det([[rng.randrange(-9, 10) for _ in range(12)]
                               for _ in range(12)])) % 1000
        total += _tuples(rng)
    return total


def seconds() -> float:
    """Wall seconds of one compute(); raises if its result ever changes."""
    start = time.perf_counter()
    result = compute()
    elapsed = time.perf_counter() - start
    if result != CHECKSUM:
        raise RuntimeError(f"reference checksum {result} != {CHECKSUM}")
    return elapsed

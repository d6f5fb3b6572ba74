"""Scale timings to a fixed machine speed.

On a shared machine the benchmark's CPU alternates between full speed and
roughly half speed while other tenants compete for the core.  The slow
spells last from milliseconds to minutes, so a whole run can fall in one,
and raw timings then move by tens of percent from run to run.

``Pace`` runs a fixed reference at most every ``INTERVAL_NS`` of timed
work.  The references are stdlib and numpy code kept in the benchmark, never
package code, so a change to the package cannot move them.  A timing is
reported as ``raw * nominal / p``: ``p`` is the mean of the reference
readings just before and just after it, and ``nominal`` is a fixed constant,
the reference's time on an uncontended CPU of the machine the benchmark
was defined on.  The result is the time the work would have taken at that
speed.  The references do work of the same kind as the timed work
(``Fraction`` arithmetic, small complex ``slogdet``, a fresh interpreter
importing numpy), so both slow down alike; measured over two minutes of a
contended machine, the ratio of timed work to its reference varied about
thirty times less than the raw timing.  The scaling depends only on the
reference readings, never on the op or process being timed.  The record
keeps the fastest and the median reading, whose ratio to ``nominal`` says
how contended the run was.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction
from typing import Callable, List

INTERVAL_NS = 5_000_000
CALIBRATION_PROBES = 10
# Nominal times of the references: their fastest readings on the 2-vCPU
# x86-64 machine (Python 3.11, numpy 2.4) the benchmark was defined on.
EXACT_REFERENCE_NS = 440_000
NUMPY_REFERENCE_NS = 125_000
START_REFERENCE_NS = 120_000_000
# A fresh interpreter doing the stdlib and numpy imports a CLI process does,
# without the package.
START_REFERENCE_ARGV = ("-c", "import numpy, fractions, json, argparse, dataclasses")


def exact_reference() -> None:
    """Exact-rational work like the package's exact layers do."""
    acc = Fraction(0)
    for i in range(1, 60):
        a, b = Fraction(i, 7), Fraction(3, i + 1)
        acc = max(acc - a * b, min(a, b) + Fraction(1, i)) if i % 3 else \
            acc + max(a - b, Fraction(0))
    sorted((acc, Fraction(1, 3), Fraction(2, 5)))


def numpy_reference() -> None:
    """Small-matrix numpy work like the package's Monte Carlo layer does."""
    import numpy as np

    for k in range(4):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((k, 7))))
        h = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2.0)
        np.linalg.slogdet(np.eye(3) + 1e8 * (h @ h.conj().T))


class Pace:
    def __init__(self, probe: Callable[[], object], nominal_ns: float,
                 repeats: int = 2, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.nominal_ns = nominal_ns
        self._probe = probe
        self._repeats = repeats
        self.readings: List[int] = []
        self.cpu = None
        self._last = 0
        self.current = None

    def probe(self) -> int:
        """Nanoseconds of the fastest of ``repeats`` runs of the reference."""
        best = None
        for _ in range(self._repeats):
            start = self.clock()
            self._probe()
            took = self.clock() - start
            best = took if best is None else min(best, took)
        self.readings.append(best)
        self.current = best
        self._last = self.clock()
        return best

    def calibrate(self) -> None:
        """Pin this process, and so every process it starts, to the CPU whose
        probes read fastest, so probes and timed work share one CPU."""
        if not hasattr(os, "sched_setaffinity"):
            self.probe()
            return
        medians = {}
        for cpu in sorted(os.sched_getaffinity(0)):
            os.sched_setaffinity(0, {cpu})
            medians[cpu] = statistics.median(
                self.probe() for _ in range(CALIBRATION_PROBES))
        self.cpu = min(medians, key=medians.get)
        os.sched_setaffinity(0, {self.cpu})

    def mark(self, force: bool = False) -> int:
        """The probe reading that applies to the timing about to start;
        probes again if ``force`` or ``INTERVAL_NS`` has passed."""
        if force or self.current is None or self.clock() - self._last >= INTERVAL_NS:
            return self.probe()
        return self.current

    def scaled(self, raw: float, probe_ns: float) -> float:
        return raw * self.nominal_ns / probe_ns

    def stats(self) -> dict:
        return {"cpu": self.cpu, "probe_nominal_ns": self.nominal_ns,
                "probe_fastest_ns": min(self.readings),
                "probe_median_ns": statistics.median(self.readings),
                "probes": len(self.readings)}

"""The four benchmark workloads.

Each workload turns a seed into a list of *units* (input generation, part
of set-up), runs a unit's library ops under a :class:`Recorder` (the timed
part), then checks the unit's outputs and folds its exact answers into the
run digest (both untimed).  Each workload also names the shell queries its
traffic corresponds to; the run spawns those as fresh ``python -m
gdofic.cli`` processes.

All library calls go through module attributes (``G.region_of``, never a
name imported into this module), so the traced run's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice, product
from typing import Callable, List, Optional, Sequence, Tuple

import gdofic as G
import pace

# Exponent values of the acceptance gate's reciprocity criterion.
EXPONENTS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3),
             F(3, 4), F(1), F(4, 3), F(3, 2), F(2))
# Symmetric cross-link exponents of the split-solver criterion.
SPLIT_ALPHAS = (F(1, 4), F(1, 2), F(2, 3), F(1))
# Exponent values of the Monte Carlo MAC criterion.
MAC_EXPONENTS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))
SWEEP_GRID = tuple(F(k, 60) for k in range(181))
# Criterion 09: every antenna profile with counts 1..3 at each symmetric alpha.
CRITERION_09 = tuple(product(product(range(1, 4), repeat=4), SPLIT_ALPHAS))
# The k/60 sweeps of criteria 01, 02, 03, 07 and 08, one entry per sweep:
# (1,1) once, each M > N <= 4 twice (02 and 08), each M < N <= 4 once, and
# the (1,1,2,1) curve once.
CRITERIA_SWEEPS = (((1, 1, 1, 1),)
                   + tuple((m, n, m, n) for m in range(2, 5) for n in range(1, m)) * 2
                   + tuple((m, n, m, n) for m in range(1, 4) for n in range(m + 1, 5))
                   + ((1, 1, 2, 1),))
MC_DRAWS = 5
MAC_TOLERANCE = 0.05
# Slopes recomputed by the check from sample_channel / sample_instance and
# numpy must agree with the library's to this tolerance.
RECOMPUTE_TOLERANCE = 1e-9
# Statistical misses (secant bias, private-power tolerance) on more than
# this share of a run's ops, plus a slack for short runs, make the run
# incorrect.  When the benchmark was defined the share was about 2.3% over a
# full run and up to 5.1% over the 300-unit digest prefix of one seed.
TOLERANCE_CEILING = 0.05
TOLERANCE_SLACK = 25
TOLERANCE_MARK = "(tolerance)"  # ends a fault that is a statistical miss
ERROR = object()  # output of an op that raised
MAX_FAULTS_SHOWN = 5


def pq(x) -> str:
    """Canonical p/q text of an exact rational."""
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def alpha_arg(exp) -> str:
    return ",".join(str(a) for a in exp.as_tuple())


def ant_args(ant) -> List[str]:
    return [str(v) for v in ant.as_tuple()]


class Recorder:
    """Times each op of the timed loop; with a tracer, runs it under an op span.

    Each timed interval is divided by the mean of the pace reference
    readings taken just before and just after it and kept in *reference
    units*; multiplying by the reference's nominal time gives the scaled
    time (see ``pace.py``).  Op latencies go into a histogram with 0.1% wide
    bins, so memory does not grow with the number of ops.  An op that raises
    is timed too and returns ``ERROR``.
    """

    BIN = math.log(1.001)

    def __init__(self, pace, tracer=None):
        self.pace = pace
        self.clock = pace.clock
        self.tracer = tracer
        self.ops = 0
        self.timed_ns = 0
        self._bins: Counter = Counter()
        self._units = 0.0  # all timed work, in reference units
        self._pending: List[Tuple[int, int]] = []  # ops, raw ns since the last reading
        self._probe = None

    def _mark(self) -> None:
        """Probe if due; a new reading closes the intervals timed since the
        previous one."""
        seen = len(self.pace.readings)
        if self.tracer is None:
            probe = self.pace.mark()
        else:
            enabled, self.tracer.enabled = self.tracer.enabled, False
            try:
                probe = self.pace.mark()
            finally:
                self.tracer.enabled = enabled
        if self._probe is None:
            self._probe = probe
        elif len(self.pace.readings) != seen:
            self._flush((self._probe + probe) / 2)
            self._probe = probe

    def _flush(self, probe: float) -> None:
        for count, took in self._pending:
            units = took / probe
            self._units += units
            if count:
                self._bins[round(math.log(max(units, 1e-9) / count) / self.BIN)] += count
        self._pending.clear()

    def _record(self, count: int, took: int) -> None:
        self.timed_ns += took
        self.ops += count
        self._pending.append((count, took))

    def op(self, fn: Callable, *args, count: int = 1):
        """Run ``fn(*args)`` as ``count`` ops sharing one call's time."""
        self._mark()
        start = self.clock()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.run_op(self.ops, fn, *args)
        except Exception:  # a failed op is data, not a crash; checks count it
            result = ERROR
        self._record(count, self.clock() - start)
        return result

    def work(self, fn: Callable, *args):
        """Library work that belongs to no single op (timed, in ``ops_per_s``)."""
        if self.tracer is not None:
            self.tracer.op_id = -1
        self._mark()
        start = self.clock()
        result = fn(*args)
        self._record(0, self.clock() - start)
        return result

    def latency_ns(self, q: float) -> float:
        """Nearest-rank ``q`` quantile of the scaled op latencies."""
        self._flush(self._probe)
        rank, seen = max(1, math.ceil(q * self.ops)), 0
        for key in sorted(self._bins):
            seen += self._bins[key]
            if seen >= rank:
                return math.exp(key * self.BIN) * self.pace.nominal_ns
        raise ValueError("no ops recorded")

    def ops_per_s(self) -> float:
        """Ops per scaled second of all timed work."""
        self._flush(self._probe)
        return self.ops / (self._units * self.pace.nominal_ns / 1e9)


class Tally:
    """Failed ops, statistical misses, the first fault messages and the
    digest of a unit stream.

    An op fails when it raises or one of its exact checks fails; any failed
    op makes the run incorrect.  A Monte Carlo slope outside its statistical
    tolerance is not a wrong answer (the two-point secant has a known bias),
    so an op whose only faults are such misses is counted apart, in
    ``tolerance_misses``, and reported as measured; misses above a ceiling
    are a fault of their own.
    """

    def __init__(self):
        self.failed = 0
        self.tolerance_misses = 0  # ops whose only faults are misses
        self.tolerance_share = 0.0  # of the timed ops, set by check_ceiling
        self.exact_faults = 0
        self.faults = []
        self.hash = hashlib.sha256()

    def add(self, failed, faults, exact, in_digest):
        exact_faults = sum(not f.endswith(TOLERANCE_MARK) for f in faults)
        self.exact_faults += exact_faults
        if exact_faults:
            self.failed += failed
        elif faults:
            self.tolerance_misses += failed
        self.faults.extend(faults[:MAX_FAULTS_SHOWN - len(self.faults)])
        if in_digest:
            self.hash.update(exact.encode() + b"\n")

    def check_ceiling(self, ops: int) -> None:
        """Misses above ``TOLERANCE_CEILING`` of the ops (plus the slack) are
        a fault of their own."""
        self.tolerance_share = self.tolerance_misses / ops if ops else 0.0
        if self.tolerance_misses > TOLERANCE_CEILING * ops + TOLERANCE_SLACK:
            self.add(0, [f"tolerance misses on {self.tolerance_misses} of {ops} "
                         f"ops, above the {TOLERANCE_CEILING:.0%} ceiling"], "", False)


# -- exact checks shared by workloads ------------------------------------------

def vertex_faults(region) -> List[str]:
    """Every vertex is nonnegative, satisfies all bounds, with two tight."""
    faults = []
    for v in region.vertices:
        if v[0] < 0 or v[1] < 0:
            faults.append(f"vertex {v} is negative")
        tight = (v[0] == 0) + (v[1] == 0)
        for b in region.bounds:
            slack = b.rhs - b.c1 * v[0] - b.c2 * v[1]
            if slack < 0:
                faults.append(f"vertex {v} violates {b.kind}")
            tight += slack == 0
        if tight < 2:
            faults.append(f"vertex {v} has {tight} tight bounds")
    return faults


def polygon_contains(vertices, p) -> bool:
    """Membership in a convex polygon from its counterclockwise vertices,
    independent of the bound list the library tests against."""
    n = len(vertices)
    if n == 1:
        return p == vertices[0]
    if n == 2:
        (ax, ay), (bx, by) = vertices
        if (bx - ax) * (p[1] - ay) != (by - ay) * (p[0] - ax):
            return False
        dot = (p[0] - ax) * (bx - ax) + (p[1] - ay) * (by - ay)
        return 0 <= dot <= (bx - ax) ** 2 + (by - ay) ** 2
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


def split_fault(ant, exp, point, split) -> Optional[str]:
    """d_ic + d_ip = d_i, nonnegative parts, and every constraint row holds."""
    if split is ERROR:
        return f"split at {point} raised"
    d1c, d1p, d2c, d2p = split.as_tuple()
    if (d1c + d1p, d2c + d2p) != tuple(point) or min(d1c, d1p, d2c, d2p) < 0:
        return f"split {split.as_tuple()} does not decompose {point}"
    for a, b, c, name in G.hk_scheme.split_constraints(ant, exp, point):
        if a * d1p + b * d2p > c:
            return f"split at {point} violates {name}"
    return None


def closed_form_sym(ant, alpha: F) -> F:
    """Symmetric GDoF of an (M,N,M,N) or the (1,1,2,1) channel from the
    closed forms."""
    if ant.as_tuple() == (1, 1, 2, 1):
        return G.curve_1121(alpha)
    m, n = ant.m1, ant.n1
    if m > n:
        return G.closed_form_d(m, n, alpha)
    if m < n:
        return min(F(m), G.closed_form_d(n, m, alpha))
    return n * G.siso_w_curve(alpha)


def _log2det(a) -> float:
    import numpy as np

    return float(np.linalg.slogdet(a)[1]) / math.log(2)


def _secant(rate) -> float:
    ladder = G.finite_snr.SnrLadder()
    return (rate(ladder.hi) - rate(ladder.lo)) / \
        (math.log2(ladder.hi) - math.log2(ladder.lo))


def mac_reference(rx: int, users, seed: int) -> float:
    """One-draw MAC sum-rate slope recomputed from ``sample_channel`` and
    numpy, independently of ``mac_sum_rate`` and ``estimate_slope``."""
    import numpy as np

    hs = [(G.finite_snr.sample_channel(rx, m, (seed, k)), m, a)
          for k, (m, a) in enumerate(users)]

    def rate(rho):
        return _log2det(np.eye(rx) + sum(rho ** float(a) / m * (h @ h.conj().T)
                                         for h, m, a in hs))
    return _secant(rate)


def tin_reference(ant, exp, seed: int) -> List[float]:
    """One-draw TIN slopes of both users recomputed from ``sample_instance``
    and numpy, independently of ``tin_rates`` and ``estimate_slope``."""
    import numpy as np

    def gram(h, rho, a, m):
        return rho ** float(a) / m * (h @ h.conj().T)

    def rate(user, rho):
        inst = G.sample_instance(ant, exp, rho_ref=rho, seed=seed)
        if user == 1:
            h, hi, a, ai = inst.h11, inst.h21, exp.a11, exp.a21
        else:
            h, hi, a, ai = inst.h22, inst.h12, exp.a22, exp.a12
        noise = np.eye(h.shape[0]) + gram(hi, rho, ai, hi.shape[1])
        return _log2det(noise + gram(h, rho, a, h.shape[1])) - _log2det(noise)

    return [_secant(lambda rho, u=u: rate(u, rho)) for u in (1, 2)]


# -- shell queries ------------------------------------------------------------

class Query:
    """One CLI invocation and the check of its output against the library.

    ``check(code, stdout, stderr)`` returns a fault message (None when the
    output matches the library) and the exact answer text for the digest.
    """

    def __init__(self, kind: str, argv: Sequence[str], check: Callable):
        self.kind = kind
        self.argv = list(argv)
        self._check = check

    def check(self, code: int, out: str, err: str) -> Tuple[Optional[str], str]:
        expect_code = 1 if self.kind == "bad-alpha" else 0
        if code != expect_code:
            return f"{self.kind}: exit {code}, stderr {err.strip()[:200]!r}", "-"
        try:
            fault, exact = self._check(out, err)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            fault, exact = f"unparsable output ({e!r})", "-"
        if fault:
            return f"{self.kind} {' '.join(self.argv)}: {fault}", exact
        return None, exact


def region_query(ant, exp, fmt: str = "json") -> Query:
    argv = ["region", *ant_args(ant), "--alpha", alpha_arg(exp)]
    if fmt == "svg":
        argv += ["--format", "svg"]

    def check(out, err):
        verts = G.region_of(ant, exp).vertices
        exact = " ".join(f"{pq(x)},{pq(y)}" for x, y in verts)
        if fmt == "svg":
            want = 'data-vertices="' + " ".join(f"{x},{y}" for x, y in verts) + '"'
            return (None if want in out else "svg vertices differ"), exact
        got = [(F(x), F(y)) for x, y in json.loads(out)["vertices"]]
        return (None if tuple(got) == verts else "vertices differ"), exact

    return Query("region-" + fmt, argv, check)


def sym_query(ant, exp) -> Query:
    def check(out, err):
        want = G.symmetric_gdof(ant, exp)
        got = F(json.loads(out)["d_sym"])
        return (None if got == want else f"d_sym {got} != {want}"), pq(want)

    return Query("sym", ["sym", *ant_args(ant), "--alpha", alpha_arg(exp)], check)


def sweep_query(ant, step: F = F(1, 60)) -> Query:
    grid = [k * step for k in range(int(3 / step) + 1)]

    def check(out, err):
        want = [p.d_sym for p in G.sweep_alpha(ant, grid).points]
        rows = out.strip().splitlines()[1:]
        got = [F(row.split(",")[1]) for row in rows]
        return (None if got == want else "sweep d_sym differs"), \
            " ".join(map(pq, want))

    return Query("sweep", ["sweep", *ant_args(ant), "--grid", f"0:3:{step}"], check)


def reciprocity_query(ant, exp) -> Query:
    def check(out, err):
        want = G.regions_equal(G.region_of(ant, exp),
                               G.region_of(*G.reciprocal(ant, exp)))
        got = json.loads(out)["equal"]
        fault = None if got is want is True else f"equal={got}, library {want}"
        return fault, str(want)

    return Query("reciprocity",
                 ["reciprocity", *ant_args(ant), "--alpha", alpha_arg(exp)], check)


def split_query(ant, exp, point) -> Query:
    argv = ["split", *ant_args(ant), "--alpha", alpha_arg(exp),
            "--point", f"{point[0]},{point[1]}"]

    def check(out, err):
        want = G.split_solver(ant, exp, point)
        s = json.loads(out)["split"]
        got = tuple(F(s[k]) for k in ("d1c", "d1p", "d2c", "d2p"))
        fault = split_fault(ant, exp, point, want)
        if fault is None and got != want.as_tuple():
            fault = f"split {got} != library {want.as_tuple()}"
        return fault, " ".join(map(pq, got))

    return Query("split", argv, check)


def simulate_query(ant, exp, seed: int) -> Query:
    argv = ["simulate", *ant_args(ant), "--alpha", alpha_arg(exp),
            "--seed", str(seed), "--draws", str(MC_DRAWS)]

    def check(out, err):
        doc = json.loads(out)
        want = G.tin_slopes(ant, exp, draws=MC_DRAWS, seed=seed)
        d_sym = G.symmetric_gdof(ant, exp)
        fault = None
        for got, est in zip(doc["tin_gdof_estimates"], want):
            if not (math.isfinite(got)
                    and math.isclose(got, est.value, rel_tol=1e-9, abs_tol=1e-12)):
                fault = f"TIN estimate {got} != library {est.value}"
        if F(doc["fundamental_symmetric_gdof"]) != d_sym:
            fault = f"symmetric GDoF {doc['fundamental_symmetric_gdof']} != {d_sym}"
        return fault, pq(d_sym)

    return Query("simulate", argv, check)


def classify_query(m: int, n: int, alpha: F) -> Query:
    def check(out, err):
        doc = json.loads(out)
        want = G.classify_regime(m, n, alpha).name
        star = G.alpha_star(m, n)
        ok = doc["regime"] == want and F(doc["alpha_star"]) == star
        return (None if ok else f"regime {doc['regime']} != {want}"), \
            f"{want} {pq(star)}"

    return Query("classify", ["classify", str(m), str(n), "--alpha", str(alpha)],
                 check)


def bad_alpha_query(ant) -> Query:
    def check(out, err):
        lines = err.strip().splitlines()
        if out or len(lines) != 1:
            return "expected exactly one JSON error line and no stdout", ""
        doc = json.loads(lines[0])
        return (None if doc.get("error") == "bad-alpha" else f"error {doc}"), \
            doc["error"]

    return Query("bad-alpha",
                 ["region", *ant_args(ant), "--alpha", "2,1,1,1"], check)


# -- input helpers ------------------------------------------------------------

class Profiles:
    """Builds each distinct antenna or exponent profile once per input set,
    so generating thousands of units stays cheap."""

    def __init__(self):
        self._made = {}

    def ant(self, *counts):
        key = ("ant", counts)
        if key not in self._made:
            self._made[key] = G.AntennaProfile(*counts)
        return self._made[key]

    def exp(self, a12, a21, a22=1):
        key = ("exp", a12, a21, a22)
        if key not in self._made:
            self._made[key] = G.ExponentProfile(1, a12, a21, a22)
        return self._made[key]

    def random_ant(self, rnd: random.Random, hi: int):
        return self.ant(*(rnd.randint(1, hi) for _ in range(4)))

    def asymmetric_exp(self, rnd: random.Random):
        """a12 != a21 and a22 != 1, from the reciprocity criterion's set."""
        a12, a21 = rnd.sample(EXPONENTS, 2)
        return self.exp(a12, a21, rnd.choice([e for e in EXPONENTS if e not in (0, 1)]))


def axis(count: int) -> Tuple[F, ...]:
    return tuple(F(k, 8) for k in range(8 * count + 1))


def cycle(counts: dict) -> Tuple[str, ...]:
    """One cycle of unit kinds, each kind at evenly spread fixed places (a
    kind with count c in a cycle of n comes about every n/c units), so the
    mix of a run does not depend on its seed."""
    return tuple(kind for _, kind in sorted(
        ((j + 0.5) / c, kind) for kind, c in counts.items() for j in range(c)))


class Deck:
    """Draws from a fixed list in seed-shuffled passes, so every entry comes
    once per pass, as in the criterion the list reproduces."""

    def __init__(self, entries, rnd: random.Random):
        self._entries, self._rnd, self._left = list(entries), rnd, []

    def draw(self):
        if not self._left:
            self._left = self._entries[:]
            self._rnd.shuffle(self._left)
        return self._left.pop()


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    units_full = 0
    digest_units_full = 0  # leading units whose exact answers form the digest
    cli_share = 0.45  # share of --seconds spent on fresh CLI processes

    def make_units(self, rnd: random.Random, n: int) -> list:
        raise NotImplementedError

    # Fixed reference work that paces the timings (see ``pace.py``).
    reference = staticmethod(pace.exact_reference)
    reference_ns = pace.EXACT_REFERENCE_NS

    def run_unit(self, unit, rec: Recorder):
        raise NotImplementedError

    def check_unit(self, unit, out) -> Tuple[int, List[str], str]:
        """(failed ops, fault messages, canonical exact text) of one unit."""
        raise NotImplementedError

    def queries(self, rnd: random.Random, units: list, n: int) -> List[Query]:
        raise NotImplementedError


class SplitGrid(Workload):
    """Criterion-09 traffic: contains on the 1/8 grid, split solves inside.

    Symmetric units draw criterion 09's 324 (profile, alpha) pairs in
    shuffled passes.  Criterion 09 has no asymmetric profile; every
    ``asymmetric_every``-th unit is one (a12 != a21, a22 != 1) so that the
    split solver also sees those.
    """

    name = "split-grid"
    units_full = 2000
    digest_units_full = 12
    asymmetric_every = 5
    axes = {k: axis(k) for k in (1, 2, 3)}

    def make_units(self, rnd, n):
        units, P = [], Profiles()
        pairs = Deck(CRITERION_09, rnd)
        for i in range(n):
            if i % self.asymmetric_every == self.asymmetric_every - 1:
                ant, exp = P.random_ant(rnd, 3), P.asymmetric_exp(rnd)
            else:
                counts, a = pairs.draw()
                ant, exp = P.ant(*counts), P.exp(a, a)
            units.append((ant, exp, self.axes[min(ant.m1, ant.n1)],
                          self.axes[min(ant.m2, ant.n2)]))
        return units

    @staticmethod
    def _grid_op(region, ant, exp, point):
        if G.contains(region, point):
            return G.split_solver(ant, exp, point)
        return None

    def run_unit(self, unit, rec):
        ant, exp, xs, ys = unit
        region = rec.work(G.region_of, ant, exp)
        grid = [rec.op(self._grid_op, region, ant, exp, (x, y))
                for x in xs for y in ys]
        verts = [rec.op(G.split_solver, ant, exp, v) for v in region.vertices]
        return region, grid, verts

    def check_unit(self, unit, out):
        ant, exp, xs, ys = unit
        region, grid, verts = out
        faults = vertex_faults(region)
        text = [" ".join(f"{pq(x)},{pq(y)}" for x, y in region.vertices)]
        points = [(x, y) for x in xs for y in ys] + list(region.vertices)
        for i, (point, split) in enumerate(zip(points, grid + verts)):
            inside = i >= len(grid) or polygon_contains(region.vertices, point)
            if split is ERROR:
                fault = f"op at {point} raised"
            elif split is None:
                fault = f"contains says {point} is outside" if inside else None
            elif not inside:
                fault = f"contains says {point} is inside"
            else:
                fault = split_fault(ant, exp, point, split)
            if fault:
                faults.append(fault)
            text.append("-" if split in (None, ERROR)
                        else " ".join(map(pq, split.as_tuple())))
        return min(len(faults), len(points)), faults, "\n".join(text)

    def queries(self, rnd, units, n):
        out = []
        for ant, exp, _, _ in units[:n]:
            verts = G.region_of(ant, exp).vertices
            out.append(split_query(ant, exp, rnd.choice(verts)))
        return out


class RegionCorpus(Workload):
    """Criteria 01-05/07/08 traffic: regions, reciprocity, DoF recovery, sweeps.

    Those criteria make 200 reciprocity profiles (04), 256 all-ones
    profiles (05) and 20 k/60 sweeps (01, 02 x6, 03 x6, 07, 08 x6).  A cycle
    of 119 units keeps that mix (divided by 4) at fixed places: 50
    reciprocity profiles, 64 all-ones profiles and 5 sweeps.  Sweeps draw
    the criteria's 20 antenna profiles in shuffled passes.  Profiles have
    antenna counts 1..6 where the criteria stop at 4.
    """

    name = "region-corpus"
    units_full = 6000
    digest_units_full = 200
    CYCLE = cycle({"reciprocity": 50, "ones": 64, "sweep": 5})

    def make_units(self, rnd, n):
        units, P = [], Profiles()
        sweeps = Deck(CRITERIA_SWEEPS, rnd)
        for i in range(n):
            kind = self.CYCLE[i % len(self.CYCLE)]
            if kind == "sweep":
                units.append(("sweep", P.ant(*sweeps.draw())))
            elif kind == "ones":
                units.append(("profile", P.random_ant(rnd, 6), P.exp(1, 1)))
            else:
                exp = P.exp(rnd.choice(EXPONENTS), rnd.choice(EXPONENTS),
                            rnd.choice(EXPONENTS[1:]))
                units.append(("profile", P.random_ant(rnd, 6), exp))
        return units

    @staticmethod
    def _profile_op(ant, exp):
        region = G.region_of(ant, exp)
        twin = G.region_of(*G.reciprocal(ant, exp))
        return region, twin, G.regions_equal(region, twin)

    def run_unit(self, unit, rec):
        if unit[0] == "sweep":
            return rec.op(G.sweep_alpha, unit[1], SWEEP_GRID, count=len(SWEEP_GRID))
        return rec.op(self._profile_op, unit[1], unit[2])

    def check_unit(self, unit, out):
        if out is ERROR:
            n = len(SWEEP_GRID) if unit[0] == "sweep" else 1
            return n, [f"{unit[0]} raised"], "-"
        if unit[0] == "sweep":
            ant = unit[1]
            faults = [f"sweep {ant.as_tuple()} d_sym({p.alpha}) = {p.d_sym}"
                      for p in out.points if p.d_sym != closed_form_sym(ant, p.alpha)]
            if [p.alpha for p in out.points] != list(SWEEP_GRID):
                faults.append("sweep grid differs")
            return len(faults), faults, " ".join(pq(p.d_sym) for p in out.points)
        _, ant, exp = unit
        region, twin, equal = out
        faults = vertex_faults(region) + vertex_faults(twin)
        if not (equal is True and set(region.vertices) == set(twin.vertices)):
            faults.append(f"reciprocity fails for {ant.as_tuple()} {alpha_arg(exp)}")
        if exp == G.ExponentProfile.symmetric(1) and \
                set(region.vertices) != set(G.dof_region(ant).vertices):
            faults.append(f"all-ones region of {ant.as_tuple()} != DoF region")
        text = "\n".join(" ".join(f"{pq(x)},{pq(y)}" for x, y in r.vertices)
                         for r in (region, twin))
        return min(len(faults), 1), faults, text

    def queries(self, rnd, units, n):
        out = []
        for unit in units[:n]:
            if unit[0] == "sweep":
                out.append(sweep_query(unit[1]))
            elif len(out) % 2:
                out.append(reciprocity_query(unit[1], unit[2]))
            else:
                out.append(region_query(unit[1], unit[2]))
        return out


class MonteCarlo(Workload):
    """Criteria 10-12 traffic: TIN and MAC slope draws, covariance splits.

    Those criteria make 10 TIN draws (12: two 5-draw ``tin_slopes``), 150
    MAC draws (11: thirty 5-draw ``mac_slope``) and 100 covariance
    instances (10).  A cycle of 66 units keeps that mix (divided by 2) at
    fixed places: 1 TIN and 15 MAC instances of 5 draws each, and 50
    covariance instances.  Each covariance op also runs
    ``stream_decomposition``, which no criterion calls.
    """

    name = "monte-carlo"
    units_full = 12000
    digest_units_full = 300
    CYCLE = cycle({"tin": 1, "mac": 15, "cov": 50})

    def make_units(self, rnd, n):
        units, P = [], Profiles()
        for i in range(n):
            kind = self.CYCLE[i % len(self.CYCLE)]
            seed = rnd.randrange(1 << 30)
            if kind == "mac":
                rx = rnd.randint(1, 3)
                users = tuple((rnd.randint(1, 3), rnd.choice(MAC_EXPONENTS))
                              for _ in range(rnd.choice((2, 3))))
                units.append(("mac", rx, users, seed))
                continue
            exp = P.exp(rnd.choice(MAC_EXPONENTS), rnd.choice(MAC_EXPONENTS),
                        rnd.choice((F(1, 2), F(3, 4), F(1))))
            units.append((kind, P.random_ant(rnd, 3), exp, seed))
        return units

    reference = staticmethod(pace.numpy_reference)
    reference_ns = pace.NUMPY_REFERENCE_NS

    @staticmethod
    def _draw(fn, a, b, seed):
        return fn(a, b, draws=1, seed=seed)

    @staticmethod
    def _cov_op(ant, exp, seed):
        inst = G.sample_instance(ant, exp, 1e8, seed)
        return inst, [(G.covariances(inst, u), G.stream_decomposition(inst, u))
                      for u in (1, 2)]

    def run_unit(self, unit, rec):
        kind, a, b, seed = unit
        if kind == "cov":
            return [rec.op(self._cov_op, a, b, seed)]
        fn = G.tin_slopes if kind == "tin" else G.mac_slope
        return [rec.op(self._draw, fn, a, b, seed + d) for d in range(MC_DRAWS)]

    def check_unit(self, unit, out):
        kind, a, b, seed = unit
        if any(o is ERROR for o in out):
            return len(out), [f"{kind} draw raised"], "-"
        if kind == "cov":
            return self._check_cov(a, out[0])
        faults = []
        for d, o in enumerate(out):
            got = [e.value for e in (o if kind == "tin" else (o,))]
            want = (tin_reference(a, b, seed + d) if kind == "tin"
                    else [mac_reference(a, b, seed + d)])
            if not all(math.isfinite(v) and math.isclose(
                    v, w, rel_tol=RECOMPUTE_TOLERANCE, abs_tol=RECOMPUTE_TOLERANCE)
                    for v, w in zip(got, want)) or len(got) != len(want):
                faults.append(f"{kind} {unit[1:3]} draw {d}: slopes {got} != "
                              f"recomputed {want}")
        if faults:
            return len(out), faults, "-"
        if kind == "tin":
            return 0, [], pq(G.symmetric_gdof(a, b))
        rx, users = a, b
        if len(users) == 2:
            oracle = G.f(rx, (users[0][1], users[0][0]), (users[1][1], users[1][0]))
        else:
            oracle = G.g(rx, *[(e, u) for u, e in users])
        slope = math.fsum(o.value for o in out) / len(out)
        if abs(slope - float(oracle)) > MAC_TOLERANCE:
            return len(out), [f"MAC {rx} {users}: slope {slope:.4f} vs {oracle} "
                              + TOLERANCE_MARK], pq(oracle)
        return 0, [], pq(oracle)

    @staticmethod
    def _check_cov(ant, result):
        import numpy as np

        inst, per_user = result
        faults, shapes = [], []
        for user, (cp, streams) in zip((1, 2), per_user):
            m = cp.k_u.shape[0]
            target = np.eye(m) / m
            rel = np.linalg.norm(cp.k_u + cp.k_w - target) / np.linalg.norm(target)
            if not rel <= 1e-12:
                faults.append(f"covariances of user {user} on {ant.as_tuple()}: "
                              f"K_u + K_w is off I/M by {rel:.1e}")
            h, rho = inst.cross_link(user)
            excess = np.linalg.norm(rho * h @ cp.k_u @ h.conj().T, 2) - 1.0 / m
            if not excess <= 1e-9:
                faults.append(f"covariances of user {user} on {ant.as_tuple()}: "
                              f"private power excess {excess:.1e} " + TOLERANCE_MARK)
            m_cross = min(h.shape)
            if len(streams) != m_cross + m or not all(
                    math.isfinite(s.weight) for s in streams):
                faults.append(f"stream decomposition of user {user} malformed")
            shapes.append(f"{m}:{len(streams)}")
        return min(len(faults), 1), faults, " ".join(ant_args(ant) + shapes)

    def queries(self, rnd, units, n):
        # TIN and covariance instances have the same form; the cycle holds
        # too few TIN units to give n distinct queries.
        return [simulate_query(a, b, seed % 1000)
                for kind, a, b, seed in islice(
                    (u for u in units if u[0] != "mac"), n)]


class CliCold(Workload):
    """Shell users: every subcommand, in-process here and cold in processes.

    Sweeps use a 1/12 grid so the in-process loop reaches 1000 ops in its
    share of the run; the full k/60 sweep is region-corpus traffic.  Split
    queries cycle through ``SPLIT_POOL`` distinct ones, because choosing a
    split point (a region vertex) is a library call during set-up.
    """

    name = "cli-cold"
    units_full = 2000
    digest_units_full = 90
    cli_share = 0.6
    SPLIT_POOL = 30
    KINDS = ("region-json", "region-svg", "sym", "sweep", "reciprocity",
             "split", "simulate", "classify", "bad-alpha")

    def make_units(self, rnd, n):
        import gdofic.cli  # noqa: F401  (part of set-up: the CLI module)

        units, splits, P = [], [], Profiles()
        for i in range(n):
            kind = self.KINDS[i % len(self.KINDS)]
            ant = P.random_ant(rnd, 4)
            a = rnd.choice(EXPONENTS)
            exp = P.asymmetric_exp(rnd) if rnd.random() < 0.5 else P.exp(a, a)
            if kind.startswith("region-"):
                q = region_query(ant, exp, kind[len("region-"):])
            elif kind == "sym":
                q = sym_query(ant, exp)
            elif kind == "sweep":
                q = sweep_query(P.ant(ant.m1, ant.n1, ant.m1, ant.n1), F(1, 12))
            elif kind == "reciprocity":
                q = reciprocity_query(ant, exp)
            elif kind == "split":
                if len(splits) < self.SPLIT_POOL:
                    vertex = rnd.choice(G.region_of(ant, exp).vertices)
                    splits.append(split_query(ant, exp, vertex))
                q = splits[i // len(self.KINDS) % self.SPLIT_POOL]
            elif kind == "simulate":
                a = rnd.choice(SPLIT_ALPHAS)
                small = P.ant(*(min(v, 3) for v in ant.as_tuple()))
                q = simulate_query(small, P.exp(a, a), rnd.randrange(1000))
            elif kind == "classify":
                m, k = sorted((rnd.randint(1, 6), rnd.randint(1, 6)), reverse=True)
                q = classify_query(m, k, rnd.choice(EXPONENTS))
            else:
                q = bad_alpha_query(ant)
            units.append(q)
        return units

    @staticmethod
    def _main_op(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = G.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_unit(self, unit, rec):
        return rec.op(self._main_op, unit.argv)

    def check_unit(self, unit, out):
        if out is ERROR:
            return 1, [f"{unit.kind} raised"], "-"
        fault, exact = unit.check(*out)
        return (1, [fault], exact) if fault else (0, [], exact)

    def queries(self, rnd, units, n):
        return units[:n]


WORKLOADS = {w.name: w for w in (SplitGrid(), RegionCorpus(), MonteCarlo(), CliCold())}

"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload split-grid --seed 0 --seconds 16 --trace 0

With ``--trace 0`` the run times the workload's library ops and its fresh
``python -m gdofic.cli`` processes and prints the end-to-end metrics.  With
``--trace 1`` it runs the workload's fixed digest prefix untraced and then
traced, and prints the per-layer metrics.  Either way the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (environment, sample
counts, digest, first faults).  See bench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded numpy for this process and every process it starts; set
# before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

DEFAULT_SEED = 0
SETUP_SAMPLES = 7  # fresh-process set-ups per run
PACE_GROUP = 2  # timed processes per pacing reference start
MIN_CLI_SAMPLES = 10
CLI_QUERIES = 30  # distinct shell queries a run cycles through
CHILD_TIMEOUT_S = 120
TINY = {"units": 40, "digest_units": 2}

# Children import the package from src/ and cache its bytecode, as an
# installed package would, whatever the caller's PYTHONDONTWRITEBYTECODE.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPATH"] = SRC


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child(argv):
    """Run a fresh Python process in the checkout."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def reference_start():
    """The process pacing reference: a fresh interpreter doing the imports
    that are the bulk of both a CLI process and a set-up process."""
    from pace import START_REFERENCE_ARGV

    child(list(START_REFERENCE_ARGV)).check_returncode()


def run_children(next_argv, spawn_pace):
    """Fresh processes, one at a time, while ``next_argv(n_done, raw_s)``
    returns an argv.  A reference start before the first process and after
    every ``PACE_GROUP`` processes paces them: each process is scaled by the
    mean of the readings around its group.  Returns (raw wall s, probe ns,
    process) per process."""
    runs, group = [], []
    before = spawn_pace.probe()

    def close_group():
        nonlocal before
        after = spawn_pace.probe()
        runs.extend((wall, (before + after) / 2, proc) for wall, proc in group)
        group.clear()
        before = after

    spent = 0.0
    while (argv := next_argv(len(runs) + len(group), spent)) is not None:
        start = time.perf_counter()
        proc = child(argv)
        wall = time.perf_counter() - start
        spent += wall
        group.append((wall, proc))
        if len(group) == PACE_GROUP:
            close_group()
    if group:
        close_group()
    return runs


# -- set-up ------------------------------------------------------------------

def setup(name: str, seed: int, size: str):
    """Import the package and generate the workload's inputs; timed."""
    start = time.perf_counter()
    import gdofic  # noqa: F401
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    n_units = wl.units_full if size == "full" else TINY["units"]
    rnd = random.Random(f"{name}:{seed}")
    units = wl.make_units(rnd, n_units)
    queries = wl.queries(rnd, units, CLI_QUERIES)
    return time.perf_counter() - start, wl, units, queries


def digest_units(wl, size: str) -> int:
    """How many leading units the digest covers; always run, however slow."""
    return wl.digest_units_full if size == "full" else TINY["digest_units"]


def fresh_setups(args, spawn_pace):
    """(raw set-up s, probe ns) of ``SETUP_SAMPLES`` fresh --setup-only runs."""
    argv = [os.path.abspath(__file__), "--workload", args.workload, "--seed",
            str(args.seed), "--size", args.size, "--setup-only"]
    out = []
    for _, probe, proc in run_children(
            lambda n, _: argv if n < SETUP_SAMPLES else None, spawn_pace):
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out.append((json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], probe))
    return out


# -- the loops ---------------------------------------------------------------

def run_units(wl, units, rec, min_units, budget_ns, tracer=None):
    """Run units in order until ``budget_ns`` of op time is spent and at least
    ``min_units`` are done.  Each unit is checked and hashed right after it
    ran, outside the timed intervals and with tracing off."""
    from workloads import Tally

    tally = Tally()
    done = 0
    while rec.timed_ns < budget_ns or done < min_units:
        unit = units[done % len(units)]
        if tracer is not None:
            tracer.enabled = True
        out = wl.run_unit(unit, rec)
        if tracer is not None:
            tracer.enabled = False
        tally.add(*wl.check_unit(unit, out), done < min_units)
        done += 1
    tally.check_ceiling(rec.ops)
    return tally, done


def run_cli(queries, budget_s: float, tally, spawn_pace):
    """Fresh ``python -m gdofic.cli`` processes until ``budget_s`` of their
    raw wall time is spent; returns their (raw wall s, probe ns) pairs."""
    def next_argv(n, spent):
        if spent >= budget_s and n >= MIN_CLI_SAMPLES:
            return None
        return ["-m", "gdofic.cli", *queries[n % len(queries)].argv]

    runs = run_children(next_argv, spawn_pace)
    for i, (_, _, proc) in enumerate(runs):
        fault, _ = queries[i % len(queries)].check(proc.returncode, proc.stdout,
                                                  proc.stderr)
        tally.add(1 if fault else 0, [fault] if fault else [], "", False)
    return [r[:2] for r in runs]


# -- environment -------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Hash of the package source, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gdofic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import gdofic
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "gdofic_file": gdofic.__file__,
    }


# -- per-layer metrics -------------------------------------------------------

def importtime_seconds(spawn_pace):
    """Median (import gdofic.cli, import numpy) cumulative seconds over three
    ``-X importtime`` processes, scaled like every other process timing."""
    samples = []
    for _, probe, proc in run_children(
            lambda n, _: ["-X", "importtime", "-c", "import gdofic.cli"]
            if n < 3 else None, spawn_pace):
        total = numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            if depth == 1 and (name == "gdofic" or name.startswith("gdofic.")):
                total += int(parts[1])
            if name == "numpy":
                numpy_us = int(parts[1])
        samples.append((total / 1e6, numpy_us / 1e6, probe))
    return (statistics.median(spawn_pace.scaled(t, p) for t, _, p in samples),
            statistics.median(spawn_pace.scaled(n, p) for _, n, p in samples))


def layer_metrics(tracer, ops: int) -> dict:
    from spans import COUNT_ONLY, TRACED

    self_s = tracer.self_times()
    metrics = {}
    for layer, funcs in TRACED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            if layer not in ("cli", "svg"):
                metrics[f"{name}.calls"] = (tracer.counts[name], "count")
            if name not in COUNT_ONLY:
                metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    calls = tracer.counts
    metrics["region.contains.true_ratio"] = (
        tracer.trues["region.contains"] / calls["region.contains"]
        if calls["region.contains"] else 0.0, "ratio")
    metrics["hk_scheme.split_solver.infeasible"] = (
        tracer.raised["hk_scheme.split_solver"], "count")
    metrics["finite_snr.sample_channel.per_draw"] = (
        calls["finite_snr.sample_channel"] / ops, "count/op")
    return metrics


def traced_run(args, wl, units, n_digest, pace, spawn_pace):
    """The digest prefix untraced, then traced; per-layer metrics.  The traced
    pass must reproduce the untraced digest."""
    from spans import Tracer
    from workloads import Recorder

    rec = Recorder(pace)
    tally, _ = run_units(wl, units, rec, n_digest, 0)

    tracer = Tracer()
    tracer.install()
    try:
        traced = Recorder(pace, tracer)
        traced_tally, _ = run_units(wl, units, traced, n_digest, 0, tracer)
    finally:
        tracer.uninstall()
    if traced_tally.hash.hexdigest() != tally.hash.hexdigest():
        tally.add(0, ["traced digest differs from untraced digest"], "", False)

    os.makedirs(OUT_DIR, exist_ok=True)
    dump = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.dump(dump)

    metrics = layer_metrics(tracer, rec.ops)
    import_s, numpy_s = importtime_seconds(spawn_pace)
    bare = run_children(lambda n, _: ["-c", "pass"] if n < 5 else None, spawn_pace)
    metrics["cli.spawn_s"] = (statistics.median(spawn_pace.scaled(w, p) for w, p, _ in bare),
                              "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.numpy_import_s"] = (numpy_s, "s")
    plain_rate, traced_rate = rec.ops_per_s(), traced.ops_per_s()
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - plain_rate, "1/s")
    extra = {"untraced_ops_per_s": plain_rate, "spans": len(tracer.spans),
             "span_dump": os.path.relpath(dump, ROOT)}
    return metrics, tally, rec.ops, extra


# -- end-to-end metrics ------------------------------------------------------

def timed_run(args, wl, units, queries, n_digest, pace, spawn_pace):
    from workloads import Recorder

    setups = fresh_setups(args, spawn_pace)
    rec = Recorder(pace)
    budget_ns = int(args.seconds * (1 - wl.cli_share) * 1e9)
    tally, done = run_units(wl, units, rec, n_digest, budget_ns)
    cli_runs = run_cli(queries, args.seconds * wl.cli_share, tally, spawn_pace)
    setup_s = [spawn_pace.scaled(*s) for s in setups]
    cli_s = [spawn_pace.scaled(*r) for r in cli_runs]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (rec.ops_per_s(), "1/s"),
        "op_p50_us": (rec.latency_ns(0.5) / 1e3, "us"),
        "op_p99_us": (rec.latency_ns(0.99) / 1e3, "us"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "cli_p50_ms": (statistics.median(cli_s) * 1e3, "ms"),
        "cli_p90_ms": (percentile(cli_s, 0.90) * 1e3, "ms"),
    }
    attempted = rec.ops + len(cli_s)
    extra = {"setup_samples_raw_s": [s[0] for s in setups],
             "op_samples": rec.ops, "cli_samples": len(cli_s),
             "units_done": done, "raw_ops_per_s": rec.ops / (rec.timed_ns / 1e9),
             "raw_cli_p50_ms": statistics.median(r[0] for r in cli_runs) * 1e3,
             "failed_ratio": tally.failed / attempted}
    return metrics, tally, attempted, extra


# -- main --------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("split-grid", "region-corpus", "monte-carlo", "cli-cold"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few units, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gdofic", "__init__.py")):
        print(f"error: no package source at {SRC}/gdofic; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_own, wl, units, queries = setup(args.workload, args.seed, args.size)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    import gdofic

    pkg = os.path.realpath(os.path.dirname(gdofic.__file__))
    if pkg != os.path.realpath(os.path.join(SRC, "gdofic")):
        print(f"error: imported gdofic from {pkg}, not from {SRC}", file=sys.stderr)
        return 2

    from pace import START_REFERENCE_NS, Pace

    pace = Pace(wl.reference, wl.reference_ns)
    pace.calibrate()
    spawn_pace = Pace(reference_start, START_REFERENCE_NS, repeats=1)
    n_digest = digest_units(wl, args.size)
    if args.trace:
        metrics, tally, attempted, extra = traced_run(
            args, wl, units, n_digest, pace, spawn_pace)
    else:
        metrics, tally, attempted, extra = timed_run(
            args, wl, units, queries, n_digest, pace, spawn_pace)

    digest = tally.hash.hexdigest()
    with open(DIGESTS) as fh:
        recorded = json.load(fh)[args.size].get(args.workload, {}).get(str(args.seed))
    if recorded is None:
        digest_status = "unrecorded"
        print(f"warning: no digest recorded for {args.workload} seed {args.seed} "
              f"({args.size}); exact answers are checked but not compared "
              "with a recorded digest", file=sys.stderr)
    elif recorded != digest:
        digest_status = "mismatch"
        tally.add(0, [f"digest {digest} != recorded {recorded}"], "", False)
    else:
        digest_status = "match"

    record = {"environment": environment(args), "digest": digest,
              "recorded_digest": recorded, "digest_status": digest_status,
              "tolerance_misses": tally.tolerance_misses,
              "tolerance_share": tally.tolerance_share, "faults": tally.faults,
              "pace": pace.stats(), "spawn_pace": spawn_pace.stats(), **extra}
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": tally.exact_faults == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""quatosc benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 bench/run.py --workload gram-family --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Prints a summary line, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, in this process and every child, before numpy
# loads: the single-threaded baseline, and steady first-call timings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import compileall
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import refcheck
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("gram-family", "state-algebra", "cli-cold")
# Set-up is timed in this many fresh processes before the timed phase and as
# many after it, so that the median spans the run rather than one moment.
SETUP_PROBES = 3
TAIL_MIN_OPS = 100         # p90 needs at least 10 operations beyond it
REF_REPS = 60
REF_WINDOW = 3             # kernel runs on each side of an operation that set its reference

# Per-layer metrics: (span name, with a calls metric).  Every traced run
# reports all of them; a layer the workload never enters reads 0.
SPAN_METRICS = (
    ("cli.main", False),
    ("oscillator1d.gram", True), ("quaternion.is_parallel", True), ("wavestate.evaluate", True),
    ("multidim.radial_gram", False), ("multidim.radial_inner", True),
    ("multidim.angular_gram", False), ("specfun.sph_harm", True),
    ("wavestate.inner", True), ("wavestate.inner_quad", True), ("specfun.make_rule", True),
    ("oscillator1d.psi_nm", True),
    ("wavestate.apply", True), ("wavestate.expectation", False),
    ("multidim.product_state", False), ("multidim.cartesian_energy", False),
    ("oscillator1d.build_via_ladder", False), ("oscillator1d.schrodinger_residual", False),
)
IMPORT_METRICS = (("import.numpy_ms", "numpy"), ("import.scipy_special_ms", "scipy.special"),
                  ("import.quatosc_ms", "quatosc"))


def ref_kernel() -> int:
    """Fixed pure-Python work timed next to every operation; dividing by its
    time cancels most of the machine's drift in speed.  It allocates small
    tuples, lists, dicts and strings, as quatosc's state and report code
    does: op time moved with such a kernel more closely than with an
    arithmetic-only loop."""
    total = 0
    for rep in range(REF_REPS):
        pairs = [(i, i * 0.5 + rep) for i in range(200)]
        table = {i: str(i) for i in range(100)}
        total += len(pairs) + sum(len(v) for v in table.values())
    return total


def ref_time() -> float:
    t0 = time.perf_counter()
    ref_kernel()
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up

def build(args, workdir: str) -> list:
    """Inputs and operations for the workload; warm workloads also run one
    untimed operation and collect garbage, so caches are filled."""
    compileall.compile_dir(SRC, quiet=1)
    if args.workload == "cli-cold":
        return workloads.cli_cold(args.seed, workdir, ROOT)
    sys.path.insert(0, SRC)
    make = workloads.gram_family if args.workload == "gram-family" else workloads.state_algebra
    ops = make(args.seed, workdir)
    ops[0].check(ops[0].run())
    gc.collect()
    return ops


def measure_setup(args, times: list, imports: list) -> None:
    """Appends the wall times of SETUP_PROBES fresh processes from spawn to
    the point where the first timed operation would start; with tracing,
    also their import times from ``-X importtime``."""
    flags = ["-X", "importtime"] if args.trace else []
    err_path = os.path.join(OUT_DIR, f"setup-{os.getpid()}.err")
    argv = [sys.executable] + flags + [os.path.abspath(__file__), "--workload", args.workload,
                                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                                       "--setup-probe"]
    for _ in range(SETUP_PROBES):
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err, cwd=ROOT)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            with open(err_path, "rb") as fh:
                sys.stderr.write(fh.read().decode("utf-8", "replace")[-2000:])
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if args.trace:
            with open(err_path, "rb") as fh:
                imports.append(import_times(fh.read().decode("utf-8", "replace")))
    os.remove(err_path)


def import_times(stderr_text: str) -> dict:
    """Cumulative import times in ms, by module, from ``-X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1000.0
    return out


def median_dict(rows: list[dict]) -> dict:
    keys = {k for r in rows for k in r}
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


# ---------------------------------------------------------------------------
# timed phases

class Tally:
    """Operation counts, latencies, reference-normalised costs and digits."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.costs: list[float] = []
        self.round_costs: list[float] = []
        self.busy = 0.0
        self.digits_min = float("inf")
        self.first_failure = None

    def record(self, op, output, elapsed: float) -> bool:
        """Checks one operation's output; an exception in place of the
        output, or a failed check, fails the operation."""
        self.attempted += 1
        self.busy += elapsed
        try:
            if isinstance(output, Exception):
                raise refcheck.CheckFailed(f"raised {output!r}")
            devs = op.check(output)
        except Exception as exc:  # a wrong or malformed output fails the operation
            self.failed += 1
            self.first_failure = self.first_failure or f"{op.kind}: {exc!r}"
            return False
        self.latencies.append(elapsed)
        if devs:
            self.digits_min = min(self.digits_min, refcheck.digits(max(devs)))
        return True


def attempt(op, *run_args):
    """Run one operation; returns (output, seconds).  An exception is
    returned as the output, and Tally.record fails it."""
    t0 = time.perf_counter()
    try:
        out = op.run(*run_args)
    except Exception as exc:
        out = exc
    return out, time.perf_counter() - t0


def timed_phase(ops: list, seconds: float) -> Tally:
    """Whole rounds over ``ops`` until ``seconds`` have passed.  The reference
    kernel runs between operations; an operation's reference time is the
    median of the REF_WINDOW kernel runs on each side of it, so that one
    disturbed kernel run does not skew its cost.  A round's cost is its
    operations' time over the sum of their reference times, so every kind
    of operation counts in it by its share of the work."""
    tally = Tally()
    kernels = [ref_time()]
    timed = []                      # (index of the kernel run before, seconds, passed)
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            out, elapsed = attempt(op)
            kernels.append(ref_time())
            timed.append((len(kernels) - 2, elapsed, tally.record(op, out, elapsed)))
        if time.perf_counter() >= deadline:
            break
    for _ in range(REF_WINDOW - 1):
        kernels.append(ref_time())
    round_time = round_ref = 0.0
    for i, (before, elapsed, passed) in enumerate(timed, 1):
        ref = statistics.median(kernels[max(0, before - REF_WINDOW + 1): before + REF_WINDOW + 1])
        if passed:
            tally.costs.append(elapsed / ref)
        round_time += elapsed
        round_ref += ref
        if i % len(ops) == 0:
            tally.round_costs.append(round_time / round_ref)
            round_time = round_ref = 0.0
    return tally


def traced_phase(args, ops: list, seconds: float) -> tuple[Tally, Tally, dict, dict]:
    """Whole rounds; each operation runs untraced, then traced.  Returns the
    tally of the untraced runs, the tally of the traced ones, the per-layer
    metrics and, for cli-cold, the children's import times."""
    tally, traced = Tally(), Tally()
    untraced, traced_times, reports = [], [], []
    layer: dict[str, list] = {}
    imports: list[dict] = []
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    written: set[str] = set()   # the trace file keeps the first traced operation of each kind
    tracer = None if args.workload == "cli-cold" else tracing.Tracer()
    spans_path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
    deadline = time.perf_counter() + seconds
    with open(trace_path, "w", encoding="utf-8") as trace_file:
        while True:
            for index, op in enumerate(ops):
                out, elapsed = attempt(op)
                if tally.record(op, out, elapsed):
                    untraced.append(elapsed)
                    reports.append(request_times(op, out, elapsed))
                if tracer is None:
                    prefix = ["-X", "importtime", os.path.join(BENCH_DIR, "tracing.py"), spans_path]
                    out, elapsed = attempt(op, prefix)
                    spans = []
                    if os.path.exists(spans_path):
                        with open(spans_path, encoding="utf-8") as fh:
                            spans = [tuple(s) for s in json.load(fh)]
                        os.remove(spans_path)
                    with open(op.err_path, "rb") as fh:
                        imports.append(import_times(fh.read().decode("utf-8", "replace")))
                else:
                    tracer.install()
                    try:
                        out, elapsed = attempt(op)
                    finally:
                        tracer.restore()
                    spans = tracer.take()
                traced.record(op, out, elapsed)
                traced_times.append(elapsed)
                for name, (calls, self_s) in tracing.self_times(spans).items():
                    entry = layer.setdefault(name, [0, 0.0])
                    entry[0] += calls
                    entry[1] += self_s
                if op.kind not in written:
                    written.add(op.kind)
                    for i, (name, start, end, parent) in enumerate(spans):
                        trace_file.write(json.dumps({"op": index, "kind": op.kind, "span": i,
                                                     "name": name, "start": start, "end": end,
                                                     "parent": parent}) + "\n")
            if time.perf_counter() >= deadline:
                break
    traced_ops = len(traced_times)
    metrics = {}
    for name, with_calls in SPAN_METRICS:
        calls, self_s = layer.get(name, (0, 0.0))
        if with_calls:
            metrics[f"{name}.calls"] = (calls / traced_ops, "calls/op")
        metrics[f"{name}.self_ms"] = (1e3 * self_s / traced_ops, "ms/op")
    reported = [r for r in reports if r is not None]
    metrics["cli.startup_ms"] = (1e3 * median_or_zero([r[0] for r in reported]), "ms")
    metrics["cli.command_ms"] = (1e3 * median_or_zero([r[1] for r in reported]), "ms")
    metrics["trace.overhead_ms"] = (
        1e3 * (statistics.median(traced_times) - statistics.median(untraced)), "ms")
    return tally, traced, metrics, median_dict(imports)


def request_times(op, output, elapsed: float):
    """(request wall time minus the report's wall_time_s, wall_time_s) for a
    CLI request; None for operations that make no CLI request."""
    if not isinstance(output, tuple) or not isinstance(output[-1], str):
        return None
    command = json.loads(output[-1])["wall_time_s"]
    wall = getattr(op, "last_wall", elapsed) or elapsed
    return wall - command, command


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------

def end_to_end(args, ops, tally: Tally, setup_s: float) -> dict:
    if args.workload == "cli-cold":
        peak = max(op.peak_rss_mb for op in ops)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "cost_round_ref": (statistics.median(tally.round_costs), "ref"),
        "peak_rss_mb": (peak, "MB"),
        "digits_min": (tally.digits_min, "digits"),
    }


def summary(args, tally: Tally, traced: Tally | None) -> str:
    """Human-readable line with the figures that are not bounded (see
    README): raw wall-clock ones, which follow the machine's drift too
    closely, and per-operation costs; p90 only where the run has enough
    operations for a tail."""
    parts = [f"workload={args.workload}", f"seed={args.seed}", f"trace={args.trace}",
             f"attempted={tally.attempted}", f"failed={tally.failed}"]
    if tally.latencies:
        parts.append(f"ops_per_s={len(tally.latencies) / tally.busy:.3f}op/s")
        parts.append(f"latency_p50_ms={1e3 * statistics.median(tally.latencies):.3f}ms")
    if tally.costs:
        parts.append(f"cost_p50_ref={statistics.median(tally.costs):.4f}ref")
    if len(tally.latencies) >= TAIL_MIN_OPS:
        p90 = statistics.quantiles(tally.latencies, n=10)[-1]
        parts.append(f"latency_p90_ms={1e3 * p90:.3f}ms")
        if tally.costs:
            parts.append(f"cost_p90_ref={statistics.quantiles(tally.costs, n=10)[-1]:.4f}ref")
    if traced is not None:
        parts.append(f"traced_failed={traced.failed}")
    for t in (tally, traced):
        if t is not None and t.first_failure:
            parts.append(f"first_failure={t.first_failure}")
    return " ".join(parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quatosc", "__init__.py")):
        sys.stderr.write(f"bench: no quatosc sources under {SRC}; run from a source checkout\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            build(args, workdir)
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        setup_times, setup_imports = [], []
        measure_setup(args, setup_times, setup_imports)
        ops = build(args, workdir)
        traced = None
        if args.trace:
            tally, traced, metrics, child_imports = traced_phase(args, ops, args.seconds)
        else:
            tally = timed_phase(ops, args.seconds)
        measure_setup(args, setup_times, setup_imports)
        if args.trace:
            imports = child_imports if args.workload == "cli-cold" else median_dict(setup_imports)
            for name, module in IMPORT_METRICS:
                metrics[name] = (imports.get(module, 0.0), "ms")
        else:
            metrics = end_to_end(args, ops, tally, statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(summary(args, tally, traced))
    # A traced run whose output fails its check makes the traced metrics
    # untrustworthy; it is not counted as a failed operation, but the run
    # is not correct.
    correct = tally.failed == 0 and (traced is None or traced.failed == 0)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

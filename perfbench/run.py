"""Seeded closed-loop benchmark for cspi: one client, one op at a time.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; cspi is imported from ``src/``.
A run sets up (``import cspi`` plus input generation), computes every op's
reference outside the timed region, then repeats passes over the op list
until ``--seconds`` is used up, checking each pass's outputs after it ends.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer self times and work counts from passes run
under ``tracing.Tracer``, alternated with untraced passes for the overhead.
The line before it holds the details: machine stamp, sample counts, the tail
percentile and the names of failed ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_PROCESS = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "passed_ops_ratio": "ratio",
    "min_correct_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """What every run pays before its first op: import cspi, build the inputs."""
    import cspi  # noqa: F401
    import workloads

    return workloads.build(workload, seed)


def measure_setup(args) -> float:
    """Wall time of a fresh process that only imports cspi and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    # a blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as probe:
        code = probe.wait()
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return time.perf_counter() - t0


def run_pass(ops, latencies, outputs) -> float:
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            outputs[i] = op.run()
        except Exception as exc:  # counted as a failed op; the pass goes on
            outputs[i] = exc
        latencies[i].append(time.perf_counter() - t0)
    return time.perf_counter() - t_pass


class Tally:
    """Verdicts per op over all passes (computed after each pass, outside its timing).

    Each op of the list counts once in ``attempted``, and once in ``failed``
    if any of its passes failed.  Both then repeat exactly for a seed, however
    many passes fit in the run.
    """

    def __init__(self, ops):
        self.attempted = len(ops)
        self.failures: dict[int, str] = {}  # op index -> first reason it failed
        self.wrong: set[int] = set()
        self.digits = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, ops, outputs) -> float:
        residual = 0.0
        for i, op in enumerate(ops):
            verdict = op.check(outputs[i])
            outputs[i] = None
            self.digits += verdict.digits
            if verdict.failed:
                self.failures.setdefault(i, verdict.note)
            if verdict.wrong:
                self.wrong.add(i)
            residual = max(residual, verdict.diag.get("conservation_residual", 0.0))
        return residual


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 635, 1982).

    A Beta-weighted mean of all order statistics.  The ops of a pass have
    latencies in clusters a factor 2 apart, so the plain order statistic
    jumps between clusters when two ops near it swap places; this one moves
    by a small fraction of that.
    """
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail_percentile(n: int) -> float:
    """The highest percentile (as a fraction) that keeps TAIL_BEYOND of n values beyond it."""
    return max(0.0, (n - 1 - TAIL_BEYOND) / (n - 1)) if n > 1 else 1.0


def machine_stamp() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("CSPI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cspi" / "__init__.py").is_file():
        print(f"error: no cspi sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # the defaults a user gets: sweeps run on one thread
    os.environ.pop("CSPI_THREADS", None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    ops = setup(args.workload, args.seed)
    if args.setup_probe:
        return 0
    setup_in_process = time.perf_counter() - T_PROCESS

    t0 = time.perf_counter()
    workloads.attach_references(ops)
    reference_s = time.perf_counter() - t0
    # inputs and references live for the whole run; keep them out of the
    # collector's scans, as they would be in a process that only runs cspi
    gc.collect()
    gc.freeze()

    import tracing

    latencies = [[] for _ in ops]
    outputs = [None] * len(ops)
    tally = Tally(ops)
    plain, traced, layer_passes, residuals = [], [], [], []
    setup_times = []
    start = time.perf_counter()
    if args.trace:
        # the overhead compares medians of only a few passes: keep the cold
        # first pass out of both
        run_pass(ops, [[] for _ in ops], outputs)
        residuals.append(tally.add(ops, outputs))
    while True:
        use_tracer = bool(args.trace) and len(traced) < len(plain)
        gc.collect()
        if use_tracer:
            with tracing.Tracer() as tracer:
                traced.append(run_pass(ops, [[] for _ in ops], outputs))
                layer_passes.append(tracer.take())
        else:
            plain.append(run_pass(ops, latencies, outputs))
        residuals.append(tally.add(ops, outputs))
        elapsed = time.perf_counter() - start - sum(setup_times)
        # the set-up probes are spread over the run, so that they meet the
        # machine in the same states as the passes; their time is not counted
        while len(setup_times) * args.seconds < SETUP_PROBES * min(elapsed, args.seconds):
            setup_times.append(measure_setup(args))
        typical = statistics.median(plain + traced)
        if elapsed + typical > args.seconds and (not args.trace or traced):
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup(args))

    per_op = [statistics.median(lat) for lat in latencies]
    tail_q = tail_percentile(len(per_op))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "pass_s": plain,
        "traced_pass_s": traced,
        "latency_samples": len(ops) * len(plain),
        "latency_tail_percentile": 100.0 * tail_q,
        "setup_probes_s": setup_times,
        "setup_in_process_s": setup_in_process,
        "reference_s": reference_s,
        "wrong_ops": [ops[i].name for i in sorted(tally.wrong)],
        "failed_ops_ratio": tally.failed / tally.attempted,
        "failures": [[ops[i].name, note] for i, note in sorted(tally.failures.items())],
        "machine": machine_stamp(),
    }
    if args.trace:
        metrics = layer_metrics(layer_passes, residuals, statistics.median(traced) - statistics.median(plain))
        metrics["trace.wall_s"] = metric(statistics.median(traced), "s")
    else:
        values = {
            "wall_s": statistics.median(plain),
            "latency_p50_ms": 1e3 * quantile(per_op, 0.5),
            "latency_tail_ms": 1e3 * quantile(per_op, tail_q),
            "passed_ops_ratio": 1.0 - tally.failed / tally.attempted,
            "min_correct_digits": min(tally.digits),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(layer_passes, residuals, overhead_s) -> dict:
    """Median over traced passes of each span's self time, calls and work counts."""
    import tracing

    def med(index, key):
        return statistics.median(p[index].get(key, 0) for p in layer_passes)

    out = {}
    for module, names in tracing.TRACED.items():
        for name in names:
            span = tracing.span_name(module, name)
            ms_name = "cli.main.self_ms" if span == "cli.main" else f"{span}.ms"
            out[ms_name] = metric(1e3 * med(0, span), "ms")
            out[f"{span}.calls"] = metric(med(1, span), "count")
    for key in tracing.COUNTS:
        out[key] = metric(med(2, key), "B" if key.endswith("_bytes_computed") else "count")
    freq_s = sum(med(0, n) for n in tracing.FREQ_SUMS)
    flow_s = med(0, "run_flow")
    out["discrete.freq_terms_per_s"] = metric(med(2, "discrete.freq_terms") / freq_s if freq_s else 0.0, "1/s")
    out["flow.shells_per_s"] = metric(med(2, "flow.shells") / flow_s if flow_s else 0.0, "1/s")
    out["flow.conservation_residual_max"] = metric(max(residuals), "abs")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of coopoutage: end-to-end metrics, per-layer metrics, correctness.

    python3 benchmark/run.py --workload snr_sweep --seed 3 --seconds 25 --trace 0

Runs one seeded workload (snr_sweep, domain_grid or mc_oracle; see
BENCHMARK.json for why each exists) against the public API of the
``coopoutage`` package under ``src/`` of this checkout, in this one process.

``--trace 0`` measures the end-to-end metrics with no tracing: warm passes
for ``--seconds`` (the cold first pass is excluded), per-row and per-call
latency (median over the passes, scaled to the reference machine speed by
calibration kernels run between calls), set-up time of fresh interpreters
and peak RSS.
``--trace 1`` times the calls into each module's public functions from this
code and prints the per-layer metrics (see layers.py).

Both modes run the correctness gate: range and identity checks on every
result, the Monte Carlo sanity band, pass-to-pass determinism, and the
committed analytic values of the default seed (reference.json, rel 1e-6).
Failures of the program in the timed work count in ``failed``; the known
failures at the edge inputs are counted by the traced run.  A broken gate
prints ``"correct": false`` and exits 1.  The last stdout line is the JSON
result.

``--write-reference`` recomputes reference.json from the code under src/.
"""

import os
import sys


# BLAS/OpenMP threads, set before numpy is imported.  aor_af's matrix-vector
# products are the only BLAS calls; with one thread they run on the measuring
# thread.  With two, the worker spinning on the other vCPU after each call
# made snr_sweep slower and noisier on a 2-vCPU VM (3 of 3 alternating runs).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy.special  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

MIN_TIMED_PASSES = 3
# Calibration kernel times (ms) on the machine the benchmark was tuned on
# in a quiet period; end-to-end timings are scaled to that speed.
KERNEL_REF_MS = {"scalar": 5.6, "quadrature": 4.3, "trig": 5.5}
# Work between two timings of the calibration kernels, and the timings on
# either side of a call whose median scales it.
CHUNK_S = 0.1
KERNEL_WINDOW = 3
_KERNEL_X = np.linspace(0.1, 5.0, 150_000)
_KERNEL_T = np.arange(65_536) * 1e-3
_KERNEL_BUF = tuple(np.empty_like(_KERNEL_T) for _ in range(3))
SETUP_PROBES = 7
LEGENDRE_PROBES = 3
CHILD_TIMEOUT_S = 120


class GateError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_coopoutage():
    """Import coopoutage from src/ of this checkout, never from elsewhere."""
    pkg = SRC / "coopoutage"
    if not (pkg / "__init__.py").is_file():
        raise GateError(f"{pkg} not found: run from the root of a coopoutage checkout")
    sys.path.insert(0, str(SRC))
    import coopoutage

    if Path(coopoutage.__file__).resolve().parent != pkg.resolve():
        raise GateError(f"imported coopoutage from {coopoutage.__file__}, not {pkg}")
    return coopoutage


def declared_units(trace: int) -> dict:
    """Metric name -> unit of the end-to-end (trace 0) or per-layer metrics."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# child probes (fresh interpreters)


def _child_main(kind: str) -> None:
    if kind == "setup":
        slice_inputs = json.loads(sys.stdin.read())
        co = import_coopoutage()
        wl.run_pass(wl.Api(co), slice_inputs, perf_counter)
        print(json.dumps({"done": True}), flush=True)
    else:
        co = import_coopoutage()
        t0 = perf_counter()
        co.numerics.gauss_legendre(2048)
        print(json.dumps({"legendre_cold_ms": (perf_counter() - t0) * 1e3}), flush=True)


def _spawn(kind: str, stdin_text: str = ""):
    """Run one child probe; returns (wall s from spawn to its result, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind]
    t0 = perf_counter()
    with subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
    ) as proc:
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or not line:
        raise GateError(f"probe {kind} exited with {rc}")
    return wall, json.loads(line)


def measure_setup(workload: str, inputs: dict) -> float:
    """Median wall time of fresh interpreters from spawn to the first results:
    import coopoutage, then evaluate the workload's set-up slice cold.  Not
    scaled: no calibration kernel tracked it on the tuning machine."""
    text = json.dumps(wl.setup_slice(workload, inputs))
    return float(np.median([_spawn("setup", text)[0] for _ in range(SETUP_PROBES)]))


def measure_legendre_cold() -> float:
    return float(np.median([_spawn("legendre")[1]["legendre_cold_ms"] for _ in range(LEGENDRE_PROBES)]))


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = res.stdout.strip() or None
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# gate


def _same(a, b) -> bool:
    return a == b or repr(a) == repr(b)


def reference_mismatches(api, workload: str) -> list:
    ref = json.loads(REFERENCE.read_text())[workload]
    inputs = wl.reference_slice(workload, wl.generate(workload, wl.DEFAULT_SEED))
    _, _, outcomes = wl.run_pass(api, inputs, perf_counter)
    return wl.compare_reference(inputs, outcomes, ref)


def fail_labels(inputs, outcomes):
    mc = inputs["trace"] is not None
    calls = [p for _ in inputs["rows"] for p in inputs["protocols"]]
    return [wl.failure(p, out, mc) for p, out in zip(calls, outcomes)]


# ---------------------------------------------------------------------------
# runs


@dataclass(frozen=True)
class _KernelPoint:
    a: float
    b: float


def _kernel_term(p: _KernelPoint) -> float:
    return float(scipy.special.gammaincc(1.5, p.a)) * math.exp(-p.a) + math.sqrt(p.b)


def kernel_s(kind: str) -> float:
    """One timing of a calibration kernel; none touches coopoutage.  Each
    does the kind of work of one kind of call, because this machine's slow
    periods slow each kind by a different factor:

    * ``scalar``: small frozen dataclasses, Python calls, math and a scipy
      special function on floats, like the closed forms;
    * ``quadrature``: divisions, sqrt, max and exp over a 150k-node grid with
      temporaries, like the AF integrands;
    * ``trig``: cos and sin over a 65,536-sample chunk, like the
      sum-of-sinusoids trace generator of ``validate``.
    """
    t0 = perf_counter()
    if kind == "scalar":
        acc = 0.0
        for k in range(2_000):
            acc += _kernel_term(_KernelPoint(k * 1e-3, 1.0 + k))
    elif kind == "quadrature":
        x = _KERNEL_X
        for _ in range(2):
            y = x * 0.3 + 1.0
            (np.sqrt(np.maximum(x / (y * y) - 0.1, 0.0)) * np.exp(-1.0 / y)).sum()
    else:
        t, (a, b, acc) = _KERNEL_T, _KERNEL_BUF
        acc[:] = 0.0
        for w in (1.0, 3.7, 6.9):
            np.multiply(t, w, out=a)
            np.add(acc, np.cos(a, out=b), out=acc)
            np.add(acc, np.sin(a, out=b), out=acc)
    return perf_counter() - t0


def call_kinds(inputs) -> np.ndarray:
    """Kernel kind of every call of a pass: ``trig`` for a Monte Carlo
    validate, ``quadrature`` for AF, ``scalar`` for the closed forms."""
    per_row = ["trig" if inputs["trace"] else "quadrature" if p == "af" else "scalar"
               for p in inputs["protocols"]]
    return np.tile(per_row, len(inputs["rows"]))


def run_untraced(api, inputs, seconds, setup_s):
    """Warm passes for ``seconds`` (at least MIN_TIMED_PASSES).

    Every pass repeats the same deterministic work, so each call's latency
    is its median over the passes.

    This machine runs the same code up to 1.7x slower, or faster, for
    seconds to minutes at a time, and changes the speed of each kind of call
    by a different factor.  So after every CHUNK_S of work the run times the
    calibration kernel of each kind of call it makes (``kernel_s``), and
    each call's time is multiplied by KERNEL_REF_MS over its kind's local
    kernel time: the median of the KERNEL_WINDOW timings on either side of
    the call.  The results are seconds on the reference machine.  The
    kernels do not touch coopoutage, so a change to the program moves the
    scaled timings as much as the raw ones; the raw ones are printed too.

    ``wall_s`` is the sum of the scaled call medians (one warm pass); a
    row's latency is the sum of its calls'; the percentiles are over the
    rows and calls of a pass.  ``peak_rss_mb`` is read after the cold pass,
    before the per-call timings of a number of passes that depends on the
    machine's speed add to it.
    """
    _, _, first = wl.run_pass(api, inputs, perf_counter)  # cold pass, not timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kinds = call_kinds(inputs)
    kernels = {k: [] for k in sorted(set(kinds))}
    last = [0.0]
    timing_before = array("l")  # per call: index of the last kernel timing before it

    def sample():
        for k, ts in kernels.items():
            ts.append(kernel_s(k))
        last[0] = perf_counter()

    def after_call():
        timing_before.append(len(kernels[kinds[0]]) - 1)
        if perf_counter() - last[0] >= CHUNK_S:
            sample()

    sample()
    calls, nondet = [], 0
    t_start = perf_counter()
    while perf_counter() - t_start < seconds or len(calls) < MIN_TIMED_PASSES:
        _, call_s, outcomes = wl.run_pass(api, inputs, perf_counter, after_call)
        calls.append(call_s)
        nondet += sum(not _same(a, b) for a, b in zip(first, outcomes))
    sample()
    w = KERNEL_WINDOW
    scale = np.empty((len(calls), len(kinds)))
    before = np.asarray(timing_before).reshape(scale.shape)
    for k, ts in kernels.items():
        local = np.array([np.median(ts[max(i - w + 1, 0) : i + w + 1]) for i in range(len(ts))])
        mask = np.broadcast_to(kinds == k, scale.shape)
        scale[mask] = (KERNEL_REF_MS[k] * 1e-3 / local[before])[mask]
    kernel_ms = {k: float(np.median(ts)) * 1e3 for k, ts in kernels.items()}
    call_med = np.median(np.asarray(calls) * scale, axis=0)
    raw_med = np.median(np.asarray(calls), axis=0)
    row_med = call_med.reshape(len(inputs["rows"]), -1).sum(axis=1)
    n_fail = sum(label is not None for label in fail_labels(inputs, first))
    metrics = {
        "wall_s": float(call_med.sum()),
        "row_ms_p50": layers.percentile(row_med, 50) * 1e3,
        "row_ms_p95": layers.percentile(row_med, 95) * 1e3,
        "call_us_p50": layers.percentile(call_med, 50) * 1e6,
        "call_us_p99": layers.percentile(call_med, 99) * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "passes": len(calls),
        "rows": len(row_med),
        "calls": len(call_med),
        "kernel_ms_median": kernel_ms,
        "kernel_timings": len(kernels[kinds[0]]),
        "raw": {
            "wall_s": float(raw_med.sum()),
            "call_us_p50": layers.percentile(raw_med, 50) * 1e6,
            "call_us_p99": layers.percentile(raw_med, 99) * 1e6,
        },
    }
    return metrics, counts, len(calls) * len(first), len(calls) * n_fail, nondet


def run_traced(api, workload, inputs, edges, seconds, legendre_ms):
    _, _, first = wl.run_pass(api, inputs, perf_counter)  # cold pass, not traced
    spans = layers.Spans()
    plain, traced, untraced_calls = [], [], array("d")
    mismatches, labels = 0, None
    kernels = {k: [kernel_s(k) for _ in range(3)] for k in KERNEL_REF_MS}
    t_start = perf_counter()
    while perf_counter() - t_start < seconds or not traced:
        for k, times in kernels.items():
            times.append(kernel_s(k))
        t0 = perf_counter()
        _, call_s, _ = wl.run_pass(api, inputs, perf_counter)
        plain.append(perf_counter() - t0)
        untraced_calls += call_s
        wall, outcomes, pass_labels = layers.traced_pass(api, inputs, spans)
        traced.append(wall)
        labels = labels or pass_labels
        mismatches += sum(not _same(a, b) for a, b in zip(first, outcomes))

    pass_total = sum(traced)
    d = spans.dur
    mc_samples = inputs["trace"]["n_samples"] if inputs["trace"] else 0
    mc_share = sum(d["mc.gen"]) / pass_total
    af_share = (sum(d["op_af"]) + sum(d["aor_af"])) / pass_total
    self_s = [u - c for u, c in zip(untraced_calls, spans.children)]
    coverage = [c / u for u, c in zip(untraced_calls, spans.children)]

    layers.probe_missing(api, inputs, spans)
    if not d["mc.gen"]:
        mc_samples = layers.probe_mc(api, inputs, spans)
    lcr = layers.probe_lcr_u(api, inputs)
    gl_s, k1_s = layers.probe_numerics(api, wl.WORKLOADS.index(workload))
    derive_calls = layers.count_derive_calls(api, inputs)
    cli_s = layers.probe_cli(api)

    def p(name, q, scale):
        return layers.percentile(d[name], q) * scale

    def per_sample(name, links=1):
        return sum(d[name]) / (len(d[name]) * mc_samples * links) * 1e9

    call_us = layers.percentile(untraced_calls, 50) * 1e6
    m = {
        "channel.derive_us": p("derive", 50, 1e6),
        "channel.derive_calls_per_call": derive_calls,
        "channel.derive_share": p("derive", 50, 1e6) * derive_calls / call_us,
        "exact.aor_df_us_p99": p("aor_df", 99, 1e6),
        "exact.aor_sr_us_p99": p("aor_sr", 99, 1e6),
        "exact.lcr_u_us_p50": layers.percentile(lcr, 50) * 1e6,
        "exact.lcr_u_us_p99": layers.percentile(lcr, 99) * 1e6,
        "exact.op_af_ms_p50": p("op_af", 50, 1e3),
        "exact.op_af_ms_p95": p("op_af", 95, 1e3),
        "exact.aor_af_ms_p50": p("aor_af", 50, 1e3),
        "exact.aor_af_ms_p95": p("aor_af", 95, 1e3),
        "exact.af_share": af_share,
        "numerics.gauss_legendre_us": gl_s * 1e6,
        "numerics.bessel_k1_ns": k1_s * 1e9,
        "numerics.legendre_cold_ms": legendre_ms,
        "mc.gen_ns_per_sample_link": per_sample("mc.gen", links=3),
        "mc.count_ns_per_sample": per_sample("mc.count"),
        "mc.exact_ms": float(np.mean(d["mc.exact"])) * 1e3,
        "mc.gen_share": mc_share,
        "cli.sweep_overhead_ms": cli_s * 1e3,
        "trace.untraced_wall_s": float(np.median(plain)),
        "trace.traced_wall_s": float(np.median(traced)),
        "trace.overhead_frac": float(np.median(traced)) / float(np.median(plain)) - 1.0,
        "trace.coverage_p50": float(np.median(coverage)),
        "trace.self_us_p50": float(np.median(self_s)) * 1e6,
        "trace.mismatches": float(mismatches),
    }
    for k, times in kernels.items():
        m[f"env.kernel_{k}_ms"] = float(np.median(times)) * 1e3
    for q in ("direct", "df", "sr"):
        m[f"exact.op_{q}_us"] = p(f"op_{q}", 50, 1e6)
        m[f"exact.aor_{q}_us"] = p(f"aor_{q}", 50, 1e6)
    for q in wl.ALL_PROTOCOLS:
        m[f"asym.{q}_us"] = p(f"asym_{q}", 50, 1e6)
        m[f"mc.compose_ns_per_sample.{q}"] = per_sample(f"mc.compose.{q}")
    first_labels = fail_labels(inputs, first)
    n_fail = sum(label is not None for label in first_labels)
    m["fail_frac"] = n_fail / len(first)
    edge_labels = layers.traced_pass(api, edges, layers.Spans())[2] if edges else []
    m["fail.edge_frac"] = sum(x is not None for x in edge_labels) / max(len(edge_labels), 1)
    for name in layers.FAIL_METRICS:
        m[name] = 0.0
    for label in labels + edge_labels:
        if label is not None:
            m[f"fail.{label}"] += 1.0
    attempted = len(traced) * len(first)
    return m, {"passes": len(traced), "calls": len(untraced_calls)}, attempted, len(traced) * n_fail, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "legendre"), help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    if args.probe:
        _child_main(args.probe)
        return 0
    if args.write_reference:
        api = wl.Api(import_coopoutage())
        ref = {}
        for w in wl.WORKLOADS:
            inputs = wl.reference_slice(w, wl.generate(w, wl.DEFAULT_SEED))
            ref[w] = wl.reference_record(inputs, wl.run_pass(api, inputs, perf_counter)[2])
        body = ",\n".join(
            f"{json.dumps(w)}: [\n" + ",\n".join(json.dumps(c) for c in calls) + "\n]"
            for w, calls in ref.items()
        )
        REFERENCE.write_text("{\n" + body + "\n}\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    units = declared_units(args.trace)
    inputs = wl.generate(args.workload, args.seed)
    env = environment()
    co = import_coopoutage()
    api = wl.Api(co)
    if args.trace:
        import coopoutage.cli  # noqa: F401  (not imported by the package)

        legendre_ms = measure_legendre_cold()
        edges = wl.edge_inputs(args.workload, args.seed)
        metrics, counts, attempted, failed, bad = run_traced(
            api, args.workload, inputs, edges, args.seconds, legendre_ms
        )
        problems = [f"{bad} traced results differ from the untraced ones"] if bad else []
    else:
        setup_s = measure_setup(args.workload, inputs)
        metrics, counts, attempted, failed, bad = run_untraced(api, inputs, args.seconds, setup_s)
        problems = [f"{bad} results differ between passes"] if bad else []
    problems += reference_mismatches(api, args.workload)
    if args.workload == "mc_oracle" and failed:
        problems.append(f"{failed} Monte Carlo calls failed the sanity band or raised")

    if set(metrics) != set(units):
        raise GateError(
            f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    bad_values = [k for k, v in metrics.items() if not np.isfinite(v)]
    if bad_values:
        raise GateError(f"non-finite metrics: {bad_values}")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {json.dumps(counts)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in sorted(metrics.items()):
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for line in problems[:20]:
        print(f"# gate: {line}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

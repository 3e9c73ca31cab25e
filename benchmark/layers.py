"""Traced passes and layer probes: the per-layer half of the benchmark.

Every span is recorded here, in the benchmark's own code, around a call into
a public function of one coopoutage module.  A traced pass replaces each
top-level call by the public calls it is built from:

* ``metrics(sc, p)`` + ``asym(sc, p)`` = ``op_<p>`` + ``aor_<p>`` + ``asym``
* ``validate(sc, p, cfg)`` = ``op_<p>`` + ``aor_<p>`` + ``derive`` + per
  realization ``gen_link_traces`` -> ``equivalent_gain`` ->
  ``CrossingCounts.from_trace``

and reproduces the top-level result from them, so a decomposition that no
longer matches the library shows up as ``trace.mismatches``.  The parent's
self time is the untraced call time minus its children.

Functions a workload never calls (AF on ``domain_grid``, the trace generator
on the analytic workloads) are timed by a small probe on that workload's own
scenarios, so every per-layer metric is measured on every workload.
"""

import contextlib
import io
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import ALL_PROTOCOLS, failure

FAIL_FUNCTIONS = tuple(f"{k}_{p}" for p in ALL_PROTOCOLS for k in ("op", "aor")) + ("asym",)
FAIL_KINDS = ("ConvergenceError", "OverflowError", "ValueError", "range", "other")
VALIDATE_FAIL_KINDS = ("band", "range", "other")
FAIL_METRICS = tuple(f"fail.{f}.{k}" for f in FAIL_FUNCTIONS for k in FAIL_KINDS) + tuple(
    f"fail.validate.{k}" for k in VALIDATE_FAIL_KINDS
)
PROBE_CALLS = 8


class Spans:
    """Durations (s) per span name, plus the children total of each call."""

    def __init__(self):
        self.dur = defaultdict(list)
        self.children = []

    def timed(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.dur[name].append(perf_counter() - t0)


def _fail_label(fn, exc):
    kind = type(exc).__name__
    return f"{fn}.{kind if kind in FAIL_KINDS else 'other'}"


def traced_analytic(api, spans, sc, p):
    """op_<p> + aor_<p> + asym under spans; (outcome, fail label or None)."""
    co, proto = api.co, api.protocol[p]
    t0 = perf_counter()
    fn = f"op_{p}"
    try:
        op = spans.timed(fn, api.op[p], sc)
        fn = f"aor_{p}"
        aor = spans.timed(fn, api.aor[p], sc)
        fn = "asym"
        a = spans.timed(f"asym_{p}", co.asym, sc, proto)
    except Exception as exc:
        spans.children.append(perf_counter() - t0)
        return type(exc).__name__, _fail_label(fn, exc)
    spans.children.append(perf_counter() - t0)
    out = (op, aor, op / aor if aor > 0.0 else None, a.p_out, a.aor, a.aod)
    return out, failure(p, out, mc=False)


def traced_validate(api, spans, sc, p, cfg):
    """validate() rebuilt from its public parts, timed per part."""
    co, mc, proto = api.co, api.co.mc_sim, api.protocol[p]
    t0 = perf_counter()
    try:
        e0 = perf_counter()  # the metrics() call inside validate
        op = spans.timed(f"op_{p}", api.op[p], sc)
        aor = spans.timed(f"aor_{p}", api.aor[p], sc)
        spans.dur["mc.exact"].append(perf_counter() - e0)
        _, th = spans.timed("derive", co.derive, sc)
        level = th.x0 if proto is co.Protocol.DIRECT else th.g0
        counts = mc.CrossingCounts()
        for r in range(cfg.n_realizations):
            x, y, z = spans.timed("mc.gen", mc.gen_link_traces, sc, cfg, realization=r)
            g = spans.timed(f"mc.compose.{p}", co.equivalent_gain, proto, x.samples, y.samples, z.samples, th)
            c = spans.timed("mc.count", mc.CrossingCounts.from_trace, co.FadingTrace(x.dt, g), level)
            counts = counts.merge(c)
        emp = co.EmpiricalMetrics.from_counts(counts)
    except Exception as exc:
        spans.children.append(perf_counter() - t0)
        return type(exc).__name__, "validate.other"
    spans.children.append(perf_counter() - t0)
    out = (op, aor, op / aor if aor > 0.0 else None, emp.p_out, emp.aor, emp.aod)
    return out, failure(p, out, mc=True)


def traced_pass(api, inputs, spans):
    """One traced pass. Returns (wall_s, outcomes, fail labels)."""
    cfg = api.trace_config(inputs["trace"]) if inputs["trace"] else None
    outcomes, labels = [], []
    t0 = perf_counter()
    for row in inputs["rows"]:
        sc = api.scenario(row)
        if cfg is None:
            spans.timed("derive", api.co.derive, sc)
        for p in inputs["protocols"]:
            if cfg is None:
                out, label = traced_analytic(api, spans, sc, p)
            else:
                out, label = traced_validate(api, spans, sc, p, cfg)
            outcomes.append(out)
            labels.append(label)
    return perf_counter() - t0, outcomes, labels


# ---------------------------------------------------------------------------
# probes


def _median_of(fn, reps):
    return float(np.median([fn() for _ in range(reps)]))


def probe_missing(api, inputs, spans):
    """Time, on this workload's first scenarios, every exact/asym function
    the traced passes never called (e.g. AF on domain_grid)."""
    scenarios = [api.scenario(r) for r in inputs["rows"][:PROBE_CALLS]]
    scenarios *= -(-PROBE_CALLS // len(scenarios))
    for p in ALL_PROTOCOLS:
        for name, fn, args in (
            (f"op_{p}", api.op[p], ()),
            (f"aor_{p}", api.aor[p], ()),
            (f"asym_{p}", api.co.asym, (api.protocol[p],)),
        ):
            if spans.dur[name]:
                continue
            for sc in scenarios[:PROBE_CALLS]:
                with contextlib.suppress(Exception):
                    spans.timed(name, fn, sc, *args)


def _mobile_scenario(api, inputs):
    for row in inputs["rows"]:
        f_s, f_r, f_d = row[3]
        if min(f_s + f_d, f_s + f_r, f_r + f_d) > 0.0:
            return api.scenario(row)
    raise ValueError("workload has no scenario with every link mobile")


def probe_mc(api, inputs, spans, n_samples=1 << 16):
    """Trace generation, gain composition and counting on one scenario of an
    analytic workload (mc_oracle gets these spans from its own passes)."""
    co, mc = api.co, api.co.mc_sim
    sc = _mobile_scenario(api, inputs)
    cfg = co.TraceConfig(n_samples=n_samples)
    _, th = co.derive(sc)
    x, y, z = spans.timed("mc.gen", mc.gen_link_traces, sc, cfg)
    for p in ALL_PROTOCOLS:
        g = spans.timed(f"mc.compose.{p}", co.equivalent_gain, api.protocol[p], x.samples, y.samples, z.samples, th)
        spans.timed("mc.count", mc.CrossingCounts.from_trace, co.FadingTrace(x.dt, g), th.g0)
    e0 = perf_counter()
    for p in ALL_PROTOCOLS:
        with contextlib.suppress(Exception):
            api.op[p](sc)
            api.aor[p](sc)
    spans.dur["mc.exact"].append((perf_counter() - e0) / len(ALL_PROTOCOLS))
    return n_samples


def probe_lcr_u(api, inputs, limit=3000):
    """lcr_u called directly with the (g0, omega, sigma2) of each scenario."""
    co = api.co
    args = []
    for row in inputs["rows"][:limit]:
        sc = api.scenario(row)
        ld, th = co.derive(sc)
        g = sc.gains
        args.append((th.g0, g.omega_x, g.omega_z, ld.sigma2_x, ld.sigma2_z))
    args *= -(-200 // len(args))
    times = []
    for a in args:
        t0 = perf_counter()
        with contextlib.suppress(Exception):
            co.lcr_u(*a)
        times.append(perf_counter() - t0)
    return times


def probe_numerics(api, seed):
    """Warm Gauss-Legendre rules at the AF panel orders and K1 per element."""
    num = api.co.numerics
    rng = np.random.default_rng([99, seed])
    orders = (8, 16, 32, 64, 96)
    for m in orders:
        num.gauss_legendre(m, 0.0, 1.0)
    edges = np.sort(rng.uniform(0.0, 10.0, (200, 2)), axis=1)
    edges[:, 1] += 1e-3

    def legendre_batch():
        t0 = perf_counter()
        for i, (a, b) in enumerate(edges):
            num.gauss_legendre(orders[i % len(orders)], a, b)
        return (perf_counter() - t0) / len(edges)

    z = 10.0 ** rng.uniform(-3.0, 2.0, 100_000)

    def k1_batch():
        t0 = perf_counter()
        num.bessel_k1(z)
        return (perf_counter() - t0) / z.size

    return _median_of(legendre_batch, 7), _median_of(k1_batch, 7)


def probe_cli(api, reps=3):
    """`coopoutage sweep --snr-db-range 0:40:2` minus the library calls it makes."""
    co = api.co
    protos = sorted(api.protocol.values(), key=lambda p: p.value)

    def cli_run():
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = co.cli.main(["sweep", "--snr-db-range", "0:40:2"])
        if rc != 0:
            raise RuntimeError(f"coopoutage sweep exited with {rc}")
        return perf_counter() - t0

    def lib_run():
        t0 = perf_counter()
        for snr in range(0, 41, 2):
            sc = co.Scenario(gamma0=10.0 ** (snr / 10.0), r0=0.5)
            for p in protos:
                co.metrics(sc, p)
                co.asym(sc, p)
        return perf_counter() - t0

    return float(np.median([cli_run() - lib_run() for _ in range(reps)]))


def count_derive_calls(api, inputs, calls=60):
    """Calls of channel.derive per top-level call, counted (not timed) by
    wrapping every module global of coopoutage that is bound to it."""
    original = api.co.channel.derive
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    bound = [
        (mod, name)
        for key, mod in list(sys.modules.items())
        if key == "coopoutage" or key.startswith("coopoutage.")
        for name, value in vars(mod).items()
        if value is original
    ]
    cfg = None
    if inputs["trace"]:
        cfg = api.trace_config(dict(inputs["trace"], n_samples=4096, n_realizations=1))
    done = 0
    try:
        for mod, name in bound:
            setattr(mod, name, counting)
        for row in inputs["rows"]:
            sc = api.scenario(row)
            for p in inputs["protocols"]:
                with contextlib.suppress(Exception):
                    if cfg is None:
                        api.co.metrics(sc, api.protocol[p])
                        api.co.asym(sc, api.protocol[p])
                    else:
                        api.co.validate(sc, api.protocol[p], cfg)
                done += 1
                if done >= calls:
                    return count[0] / done
    finally:
        for mod, name in bound:
            setattr(mod, name, original)
    return count[0] / max(done, 1)


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else math.nan

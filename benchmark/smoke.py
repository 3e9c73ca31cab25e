#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 benchmark/smoke.py

Checks that the same seed generates identical workload inputs twice (and
another seed different ones), and runs every workload in both modes on a
few rows with one timed pass: the result line must be well formed, the
gate must pass, and every printed metric must be declared in BENCHMARK.json
with the unit it is printed with.
"""

import contextlib
import io
import json
import sys

import run
import workloads as wl

SMOKE_SEED = 7


def tiny(workload, inputs):
    """A few rows of the real inputs, so every code path still runs."""
    if workload == "snr_sweep":
        return dict(inputs, rows=inputs["rows"][::60])
    if workload == "domain_grid":
        return dict(inputs, rows=inputs["rows"][:30])
    return inputs


def check_inputs():
    for w in wl.WORKLOADS:
        a, b = wl.generate(w, SMOKE_SEED), wl.generate(w, SMOKE_SEED)
        assert a == b, f"{w}: the same seed gave different inputs"
        assert a != wl.generate(w, SMOKE_SEED + 1), f"{w}: the seed does not reach the inputs"
        json.dumps(a)  # plain data: set-up probes receive it as JSON


def check_run(workload, trace, declared):
    full = wl.generate

    def generate(w, seed):
        inputs = full(w, seed)
        return tiny(w, inputs) if seed == SMOKE_SEED else inputs

    out = io.StringIO()
    wl.generate, run.MIN_TIMED_PASSES, run.SETUP_PROBES, run.LEGENDRE_PROBES = generate, 1, 1, 1
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(
                ["--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "0", "--trace", str(trace)]
            )
    finally:
        wl.generate = full
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"], f"{workload}: gate failed:\n{out.getvalue()}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    want = declared["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload}: printed {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, _, unit = line.split()
            assert declared["all"].get(name) == unit, f"{name} {unit} is not declared"


def main():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    declared = {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}
    declared["all"] = {**declared["end_to_end"], **declared["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    check_inputs()
    for w in wl.WORKLOADS:
        for trace in (0, 1):
            check_run(w, trace, declared)
            print(f"ok {w} trace={trace}", flush=True)
    print("smoke ok")


if __name__ == "__main__":
    main()

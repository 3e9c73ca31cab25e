"""Command-line front end.

Subcommands: metrics (single-point table), sweep (CSV over an SNR range),
validate (Monte Carlo against the analytical values), slope (fitted
log-log decay exponents), and table1 (symmetric-network high-SNR closed
forms).  Options may come from a `key = value` config file; command-line
flags override the file.

SNR flags are in dB of transmit SNR; everything internal runs on linear
scale.  Rates and durations can be reported in absolute Hz/seconds, per
coherence time (normalised by the largest node Doppler f_m), or per coding
block given the block-to-Doppler product f_m * T.
"""

import argparse
import math
import sys

import numpy as np

from .asym_metrics import Table1System, asym, fit_loglog_slope, table1_symmetric
from .channel import LinkGains, MobilityError, NodeDopplers, Scenario
from .exact_metrics import Protocol, metrics
from .mc_sim import StaticLinkError, TraceConfig, validate
from .numerics import ConvergenceError


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {db:g} dB is out of range: its linear value overflows") from None


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{x:.9g}"


def _fmt_metrics(rate_f: float, dur_f: float, *results) -> list[str]:
    """p_out, aor, aod of each result (exact, asym or empirical), in the chosen units."""
    cells = []
    for r in results:
        aod = None if r.aod is None else r.aod * dur_f
        cells += [_fmt(r.p_out), _fmt(r.aor * rate_f), _fmt(aod)]
    return cells


def load_config(path: str) -> dict[str, str]:
    """Parse a line-oriented `key = value` file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not key or not value.strip():
                raise ValueError(f"{path}:{lineno}: empty key or value")
            values[key] = value.strip()
    return values


def _parse_triple(text: str, name: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{name} needs three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be A:B:STEP, got {text!r}")
    a, b, step = (float(p) for p in parts)
    if step <= 0.0 or b < a or not all(math.isfinite(v) for v in (a, b, step, (b - a) / step)):
        raise ValueError(f"range must be finite with A <= B and STEP > 0, got {text!r}")
    n = int(math.floor((b - a) / step + 1e-9))
    return [a + k * step for k in range(n + 1)]


def _parse_protocols(text: str) -> list[Protocol]:
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            out.append(Protocol(token))
        except ValueError:
            raise ValueError(f"unknown protocol {token!r}") from None
    if not out:
        raise ValueError("protocol list is empty")
    return out


_OPTION_SPEC: dict[str, tuple] = {
    # name: (parser, default)
    "snr_db": (float, None),
    "snr_db_range": (str, None),
    "rate": (float, 0.5),
    "omega": (str, "1,1,1"),
    "doppler": (str, "1,1,1"),
    "y0": (float, None),
    "protocols": (str, "direct,af,df,sr"),
    "normalize": (str, "hz"),
    "fm_t": (float, None),
    "seed": (int, 2024),
    "samples": (int, 2_000_000),
    "oversampling": (int, 64),
    "sinusoids": (int, 32),
    "realizations": (int, 1),
    "out": (str, "-"),
    "tol_op": (float, 0.05),
    "tol_aor": (float, 0.10),
    "tol_aod": (float, 0.10),
    "mc": (bool, False),
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value options file; flags override it")
    parser.add_argument("--snr-db", type=float, help="transmit SNR (dB), single point")
    parser.add_argument("--snr-db-range", help="transmit SNR sweep A:B:STEP (dB)")
    parser.add_argument("--rate", type=float, help="target spectral efficiency r0 (b/s/Hz)")
    parser.add_argument("--omega", help="mean squared gains X,Y,Z (S->D, S->R, R->D)")
    parser.add_argument("--doppler", help="node Dopplers S,R,D in Hz")
    parser.add_argument("--y0", type=float, help="explicit relay-activation threshold (default g0)")
    parser.add_argument("--protocols", help="comma list from direct,af,df,sr")
    parser.add_argument("--normalize", choices=["hz", "fm", "block"], help="rate/duration units")
    parser.add_argument("--fm-t", type=float, dest="fm_t", help="f_m * T for block normalisation")
    parser.add_argument("--seed", type=int, help="simulation seed")
    parser.add_argument("--samples", type=int, help="Monte Carlo samples per realization")
    parser.add_argument("--oversampling", type=int, help="samples per 1/f_max")
    parser.add_argument("--sinusoids", type=int, help="rays per quadrature component")
    parser.add_argument("--realizations", type=int, help="independent Monte Carlo realizations")
    parser.add_argument("--out", help="output path for CSV ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopoutage",
        description="Outage probability, rate, and duration of cooperative links with mobile nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="exact, asymptotic, and optional MC metrics at one SNR")
    _add_common(p_metrics)
    p_metrics.add_argument("--mc", action="store_true", default=None, help="append Monte Carlo columns")

    p_sweep = sub.add_parser("sweep", help="CSV of exact and asymptotic metrics over an SNR range")
    _add_common(p_sweep)

    p_validate = sub.add_parser("validate", help="Monte Carlo validation against the exact metrics")
    _add_common(p_validate)
    p_validate.add_argument("--tol-op", type=float, dest="tol_op", help="relative OP tolerance")
    p_validate.add_argument("--tol-aor", type=float, dest="tol_aor", help="relative AOR tolerance")
    p_validate.add_argument("--tol-aod", type=float, dest="tol_aod", help="relative AOD tolerance")

    p_slope = sub.add_parser("slope", help="fit log-log decay exponents over an SNR window")
    _add_common(p_slope)

    p_table1 = sub.add_parser("table1", help="symmetric-network high-SNR closed forms")
    _add_common(p_table1)

    return parser


class _Options:
    """Merged view: command line > config file > defaults."""

    def __init__(self, args: argparse.Namespace, parser: argparse.ArgumentParser):
        self._parser = parser
        config: dict[str, str] = {}
        if getattr(args, "config", None):
            try:
                config = load_config(args.config)
            except (OSError, ValueError) as exc:
                parser.error(str(exc))
        unknown = set(config) - set(_OPTION_SPEC)
        if unknown:
            parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name, (convert, default) in _OPTION_SPEC.items():
            value = getattr(args, name, None)
            if value is None and name in config:
                try:
                    raw = config[name]
                    value = raw.lower() in ("1", "true", "yes") if convert is bool else convert(raw)
                except ValueError as exc:
                    parser.error(f"config key {name}: {exc}")
            if value is None:
                value = default
            setattr(self, name, value)
        try:
            self.omega = _parse_triple(self.omega, "--omega")
            self.doppler = _parse_triple(self.doppler, "--doppler")
        except ValueError as exc:
            parser.error(str(exc))

    def scenario(self, snr_db: float) -> Scenario:
        try:
            return Scenario(
                gamma0=db_to_linear(snr_db),
                r0=self.rate,
                gains=LinkGains(*self.omega),
                dopplers=NodeDopplers(*self.doppler),
                y0=self.y0,
            )
        except ValueError as exc:
            self._parser.error(str(exc))

    def protocol_list(self) -> list[Protocol]:
        try:
            chosen = _parse_protocols(self.protocols)
        except ValueError as exc:
            self._parser.error(str(exc))
        return [p for p in Protocol if p in chosen]

    def snr_points(self, need_range: bool = False) -> list[float]:
        if self.snr_db_range is not None:
            try:
                return _parse_range(self.snr_db_range)
            except ValueError as exc:
                self._parser.error(str(exc))
        if need_range:
            self._parser.error("this command needs --snr-db-range A:B:STEP")
        if self.snr_db is None:
            self._parser.error("need --snr-db (or --snr-db-range)")
        return [self.snr_db]

    def f_norm(self) -> float:
        return max(self.doppler)

    def norm_factors(self) -> tuple[float, float]:
        """(rate_factor, duration_factor): multiply aor/aod to normalised units."""
        if self.normalize == "hz":
            return 1.0, 1.0
        f_m = self.f_norm()
        if f_m <= 0.0:
            self._parser.error("normalisation needs a nonzero node Doppler")
        if self.normalize == "fm":
            return 1.0 / f_m, f_m
        if self.fm_t is None or not 0.0 < self.fm_t < 1.0:
            self._parser.error("block normalisation needs --fm-t in (0, 1)")
        block = self.fm_t / f_m  # coding-block duration T in seconds
        return block, 1.0 / block

    def trace_config(self) -> TraceConfig:
        try:
            return TraceConfig(
                n_samples=self.samples,
                seed=self.seed,
                oversampling=self.oversampling,
                n_sinusoids=self.sinusoids,
                n_realizations=self.realizations,
            )
        except ValueError as exc:
            self._parser.error(str(exc))


def _cmd_metrics(opt: _Options) -> int:
    snr_db = opt.snr_points()[0]
    scenario = opt.scenario(snr_db)
    rate_f, dur_f = opt.norm_factors()
    cols = ["protocol", "p_out", "aor", "aod", "p_out_asym", "aor_asym", "aod_asym", "spacing"]
    if opt.mc:
        cols += ["p_out_mc", "aor_mc", "aod_mc"]
    rows = [cols]
    for protocol in opt.protocol_list():
        m = metrics(scenario, protocol)
        row = [
            protocol.value,
            *_fmt_metrics(rate_f, dur_f, m, asym(scenario, protocol)),
            _fmt(None if m.aor == 0.0 else 1.0 / (m.aor * rate_f)),
        ]
        if opt.mc:
            rep = validate(scenario, protocol, opt.trace_config())
            row += _fmt_metrics(rate_f, dur_f, rep.empirical)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    print(f"# snr_db={_fmt(snr_db)} rate={_fmt(opt.rate)} normalize={opt.normalize}")
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0


def _cmd_sweep(opt: _Options) -> int:
    points = opt.snr_points(need_range=True)
    protocols = opt.protocol_list()
    rate_f, dur_f = opt.norm_factors()
    lines = ["snr_db,protocol,p_out_exact,aor_exact,aod_exact,p_out_asym,aor_asym,aod_asym"]
    for snr_db in points:
        scenario = opt.scenario(snr_db)
        for protocol in sorted(protocols, key=lambda p: p.value):
            cells = _fmt_metrics(
                rate_f, dur_f, metrics(scenario, protocol), asym(scenario, protocol)
            )
            lines.append(",".join([_fmt(snr_db), protocol.value, *cells]))
    text = "\n".join(lines) + "\n"
    if opt.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(opt.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {opt.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_validate(opt: _Options) -> int:
    cfg = opt.trace_config()
    failed = False
    for snr_db in opt.snr_points():
        scenario = opt.scenario(snr_db)
        print(f"# snr_db={_fmt(snr_db)} samples={cfg.n_samples} realizations={cfg.n_realizations}")
        for protocol in opt.protocol_list():
            rep = validate(
                scenario, protocol, cfg, tol_op=opt.tol_op, tol_aor=opt.tol_aor, tol_aod=opt.tol_aod
            )
            print("\n".join(rep.lines()))
            failed |= not rep.passed
    return 1 if failed else 0


def _cmd_slope(opt: _Options) -> int:
    points = opt.snr_points(need_range=True)
    if points[-1] - points[0] < 6.0:
        opt._parser.error("slope window must span at least 6 dB")
    scenarios = [opt.scenario(s) for s in points]
    gammas = np.array([sc.gamma0 for sc in scenarios])
    print("protocol  metric  exponent  rms_residual  expected")
    for protocol in opt.protocol_list():
        ms = [metrics(sc, protocol) for sc in scenarios]
        law = asym(scenarios[0], protocol)
        for name, values, expected in [
            ("op", [m.p_out for m in ms], law.slope_op),
            ("aor", [m.aor for m in ms], law.slope_aor),
            ("aod", [m.aod for m in ms], law.slope_aod),
        ]:
            slope, rms = fit_loglog_slope(gammas, np.array(values))
            print(f"{protocol.value:8s}  {name:6s}  {slope:+.4f}  {rms:.2e}  {expected:+.2f}")
    return 0


def _cmd_table1(opt: _Options) -> int:
    snr_db = opt.snr_points()[0]
    scenario = opt.scenario(snr_db)  # refuses a bad SNR, rate, gain or Doppler as a usage error
    ox, oy, oz = opt.omega
    if not (ox == oy == oz):
        opt._parser.error("table1 assumes a symmetric network: --omega X,Y,Z must be equal")
    f_m = opt.f_norm()
    fs, fr, fd = opt.doppler
    if not (fs == fr == fd and f_m > 0.0):
        opt._parser.error("table1 assumes equal nonzero node Dopplers")
    gamma_bar = ox * scenario.gamma0
    rate_f, dur_f = opt.norm_factors()
    print(
        f"# gamma_bar_db={_fmt(10 * math.log10(gamma_bar))} (omega={_fmt(ox)}, snr_db={_fmt(snr_db)})"
        f" rate={_fmt(opt.rate)} normalize={opt.normalize}"
    )
    print("system    p_out         aor           aod")
    for system in Table1System:
        t = table1_symmetric(gamma_bar, opt.rate, f_m, system)
        print(
            f"{system.value:9s} {_fmt(t.p_out):13s} {_fmt(t.aor * rate_f):13s} {_fmt(t.aod * dur_f)}"
        )
    return 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "slope": _cmd_slope,
    "table1": _cmd_table1,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opt = _Options(args, parser)
    try:
        return _COMMANDS[args.command](opt)
    except (MobilityError, ConvergenceError, OverflowError, StaticLinkError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: metrics (single-point table), sweep (CSV over an SNR range),
validate (Monte Carlo against the analytical values), slope (fitted
log-log decay exponents), and table1 (symmetric-network high-SNR closed
forms).

Every option is declared once, in `_OPTIONS`: its parser, default, help
text and the commands that take it.  A value comes from the command-line
flag, else from the `key = value` config file given by --config, else
from the default, and whichever it is goes through the same parser.
Config keys are the flag names with `_` in place of `-` (`mc = true` or
`mc = false` for the --mc switch); a config file may carry keys that only
other commands take, which are checked but not used.  The SNR pair resolves as one unit: if --snr-db or
--snr-db-range is on the command line, the config's SNR keys are ignored,
and giving both flags, or both keys in one file, is refused.  --out is
taken by sweep only, --mc by metrics only, --tol-* by validate only, the
Monte Carlo trace options (--seed, --samples, --oversampling, --sinusoids,
--realizations) by metrics and validate, and --protocols and --y0 by every
command but table1.
Every usage or config error exits with status 2.

SNR flags are in dB of transmit SNR; everything internal runs on linear
scale.  Rates and durations can be reported in absolute Hz/seconds, per
coherence time (normalised by the largest node Doppler f_m), or per coding
block given the block-to-Doppler product f_m * T.
"""

import argparse
import math
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from .asym_metrics import Table1System, asym, fit_loglog_slope, table1_symmetric
from .channel import LinkGains, NodeDopplers, Scenario
from .exact_metrics import Protocol, metrics
from .mc_sim import TraceConfig, validate
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


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"needs three comma-separated values, got {text!r}")
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
    chosen = {Protocol(token.strip().lower()) for token in text.split(",")}
    return [p for p in Protocol if p in chosen]


def _parse_normalize(text: str) -> str:
    if text not in ("hz", "fm", "block"):
        raise ValueError(f"expected hz, fm or block, got {text!r}")
    return text


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected true or false, got {text!r}")
    return word in ("true", "yes", "1")


_ALL = ("metrics", "sweep", "validate", "slope", "table1")
_SCENARIO = ("metrics", "sweep", "validate", "slope")  # every command but table1
_TRACE = ("metrics", "validate")  # metrics for its --mc columns


class _Option(NamedTuple):
    parse: Callable[[str], Any]
    default: str | None
    help: str
    commands: tuple[str, ...] = _ALL


_OPTIONS = {
    "snr_db": _Option(float, None, "transmit SNR (dB), single point"),
    "snr_db_range": _Option(_parse_range, None, "transmit SNR sweep A:B:STEP (dB)"),
    "rate": _Option(float, "0.5", "target spectral efficiency r0 (b/s/Hz)"),
    "omega": _Option(_parse_triple, "1,1,1", "mean squared gains X,Y,Z (S->D, S->R, R->D)"),
    "doppler": _Option(_parse_triple, "1,1,1", "node Dopplers S,R,D in Hz"),
    "y0": _Option(float, None, "explicit relay-activation threshold (default g0)", _SCENARIO),
    "protocols": _Option(
        _parse_protocols, "direct,af,df,sr", "comma list from direct,af,df,sr", _SCENARIO
    ),
    "normalize": _Option(_parse_normalize, "hz", "rate/duration units: hz, fm or block"),
    "fm_t": _Option(float, None, "f_m * T for block normalisation"),
    "seed": _Option(int, "2024", "simulation seed", _TRACE),
    "samples": _Option(int, "2000000", "Monte Carlo samples per realization", _TRACE),
    "oversampling": _Option(int, "64", "samples per 1/f_max", _TRACE),
    "sinusoids": _Option(int, "32", "rays per quadrature component", _TRACE),
    "realizations": _Option(int, "1", "independent Monte Carlo realizations", _TRACE),
    "out": _Option(str, "-", "output path for CSV ('-' for stdout)", ("sweep",)),
    "tol_op": _Option(float, "0.05", "relative OP tolerance", ("validate",)),
    "tol_aor": _Option(float, "0.10", "relative AOR tolerance", ("validate",)),
    "tol_aod": _Option(float, "0.10", "relative AOD tolerance", ("validate",)),
    "mc": _Option(_parse_bool, "false", "append Monte Carlo columns", ("metrics",)),
}
_SNR_KEYS = ("snr_db", "snr_db_range")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its flags come from `_OPTIONS` and collect raw strings."""
    parser = argparse.ArgumentParser(
        prog="coopoutage",
        description="Outage probability, rate, and duration of cooperative links with mobile nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="key = value options file; flags override it")
        for key, option in _OPTIONS.items():
            if command in option.commands:
                switch = {"action": "store_const", "const": "true"} if option.parse is _parse_bool else {}
                p.add_argument(_flag(key), dest=key, help=option.help, **switch)
    return parser


def _resolve(args: argparse.Namespace) -> SimpleNamespace:
    """The command's options: flag, else config value, else default, then parsed.

    Options of other commands have no flag here, and their config values
    are checked all the same but left out of the result.
    """
    config = load_config(args.config) if args.config else {}
    unknown = set(config) - set(_OPTIONS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = {key: value for key, value in vars(args).items() if key in _OPTIONS and value is not None}
    if all(key in flags for key in _SNR_KEYS):
        raise ValueError("give --snr-db or --snr-db-range, not both")
    if all(key in config for key in _SNR_KEYS):
        raise ValueError(f"{args.config}: set snr_db or snr_db_range, not both")
    if any(key in flags for key in _SNR_KEYS):
        config = {key: value for key, value in config.items() if key not in _SNR_KEYS}
    opt = SimpleNamespace()
    for key, option in _OPTIONS.items():
        raw = flags.get(key, config.get(key, option.default))
        try:
            value = None if raw is None else option.parse(raw)
        except ValueError as exc:
            where = _flag(key) if key in flags else f"{args.config}: {key} = {raw}"
            raise ValueError(f"{where}: {exc}") from None
        if args.command in option.commands:
            setattr(opt, key, value)
    return opt


def _snr_points(opt: SimpleNamespace, need_range: bool = False) -> list[float]:
    if opt.snr_db_range is not None:
        return opt.snr_db_range
    if need_range:
        raise ValueError("this command needs --snr-db-range A:B:STEP")
    if opt.snr_db is None:
        raise ValueError("need --snr-db (or --snr-db-range)")
    return [opt.snr_db]


def _one_snr(opt: SimpleNamespace) -> float:
    points = _snr_points(opt)
    if len(points) > 1:
        raise ValueError(f"this command takes one SNR; --snr-db-range gives {len(points)} points")
    return points[0]


def _scenario(opt: SimpleNamespace, snr_db: float) -> Scenario:
    return Scenario(
        gamma0=db_to_linear(snr_db),
        r0=opt.rate,
        gains=LinkGains(*opt.omega),
        dopplers=NodeDopplers(*opt.doppler),
        y0=getattr(opt, "y0", None),  # table1 takes no y0
    )


def _norm_factors(opt: SimpleNamespace) -> tuple[float, float]:
    """(rate_factor, duration_factor): multiply aor/aod to normalised units."""
    if opt.normalize == "hz":
        return 1.0, 1.0
    f_m = max(opt.doppler)
    if f_m <= 0.0:
        raise ValueError("normalisation needs a nonzero node Doppler")
    if opt.normalize == "fm":
        return 1.0 / f_m, f_m
    if opt.fm_t is None or not 0.0 < opt.fm_t < 1.0:
        raise ValueError("block normalisation needs --fm-t in (0, 1)")
    block = opt.fm_t / f_m  # coding-block duration T in seconds
    return block, 1.0 / block


def _trace_config(opt: SimpleNamespace) -> TraceConfig:
    return TraceConfig(
        n_samples=opt.samples,
        seed=opt.seed,
        oversampling=opt.oversampling,
        n_sinusoids=opt.sinusoids,
        n_realizations=opt.realizations,
    )


def _cmd_metrics(opt: SimpleNamespace) -> int:
    """exact, asymptotic, and optional MC metrics at one SNR"""
    snr_db = _one_snr(opt)
    scenario = _scenario(opt, snr_db)
    rate_f, dur_f = _norm_factors(opt)
    cols = ["protocol", "p_out", "aor", "aod", "p_out_asym", "aor_asym", "aod_asym", "spacing"]
    if opt.mc:
        cols += ["p_out_mc", "aor_mc", "aod_mc"]
    rows = [cols]
    for protocol in opt.protocols:
        m = metrics(scenario, protocol)
        row = [
            protocol.value,
            *_fmt_metrics(rate_f, dur_f, m, asym(scenario, protocol)),
            _fmt(None if m.aor == 0.0 else 1.0 / (m.aor * rate_f)),
        ]
        if opt.mc:
            rep = validate(scenario, protocol, _trace_config(opt))
            row += _fmt_metrics(rate_f, dur_f, rep.empirical)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    print(f"# snr_db={_fmt(snr_db)} rate={_fmt(opt.rate)} normalize={opt.normalize}")
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0


def _cmd_sweep(opt: SimpleNamespace) -> int:
    """CSV of exact and asymptotic metrics over an SNR range"""
    points = _snr_points(opt, need_range=True)
    rate_f, dur_f = _norm_factors(opt)
    lines = ["snr_db,protocol,p_out_exact,aor_exact,aod_exact,p_out_asym,aor_asym,aod_asym"]
    for snr_db in points:
        scenario = _scenario(opt, snr_db)
        for protocol in sorted(opt.protocols, key=lambda p: p.value):
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


def _cmd_validate(opt: SimpleNamespace) -> int:
    """Monte Carlo validation against the exact metrics"""
    cfg = _trace_config(opt)
    failed = False
    for snr_db in _snr_points(opt):
        scenario = _scenario(opt, snr_db)
        print(f"# snr_db={_fmt(snr_db)} samples={cfg.n_samples} realizations={cfg.n_realizations}")
        for protocol in opt.protocols:
            rep = validate(
                scenario, protocol, cfg, tol_op=opt.tol_op, tol_aor=opt.tol_aor, tol_aod=opt.tol_aod
            )
            print("\n".join(rep.lines()))
            failed |= not rep.passed
    return 1 if failed else 0


def _cmd_slope(opt: SimpleNamespace) -> int:
    """fit log-log decay exponents over an SNR window"""
    points = _snr_points(opt, need_range=True)
    if points[-1] - points[0] < 6.0:
        raise ValueError("slope window must span at least 6 dB")
    scenarios = [_scenario(opt, s) for s in points]
    gammas = np.array([sc.gamma0 for sc in scenarios])
    print("protocol  metric  exponent  rms_residual  expected")
    for protocol in opt.protocols:
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


def _cmd_table1(opt: SimpleNamespace) -> int:
    """symmetric-network high-SNR closed forms"""
    snr_db = _one_snr(opt)
    scenario = _scenario(opt, snr_db)  # refuses a bad SNR, rate, gain or Doppler as a usage error
    ox, oy, oz = opt.omega
    if not (ox == oy == oz):
        raise ValueError("table1 assumes a symmetric network: --omega X,Y,Z must be equal")
    f_m = max(opt.doppler)
    fs, fr, fd = opt.doppler
    if not (fs == fr == fd and f_m > 0.0):
        raise ValueError("table1 assumes equal nonzero node Dopplers")
    gamma_bar = ox * scenario.gamma0
    rate_f, dur_f = _norm_factors(opt)
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
    """Run one command; a usage, config or domain error exits with status 2.

    ValueError covers MobilityError and StaticLinkError, which subclass it.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_resolve(args))
    except (ValueError, ConvergenceError, OverflowError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

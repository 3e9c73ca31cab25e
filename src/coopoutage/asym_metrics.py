"""High-SNR closed forms for outage probability, rate, and duration.

As the transmit SNR grows the outage threshold of every protocol tends to
zero and the exact expressions collapse to simple power laws: the outage
probability decays with log-log slope -d (d the protocol's diversity
gain), the outage rate with slope -(d - 1/2), and the outage duration with
slope -1/2 regardless of d.  This module evaluates those closed forms, the
symmetric-network table of coefficients (including a 1x2 SIMO maximum
ratio combining baseline), and the rate/duration versus outage-probability
power laws obtained by eliminating the SNR.  d and the outage level (x0 or
g0) come from the Protocol member, each protocol's coefficients from
_coefficients, each Table 1 row's coefficients from its Table1System
member, and _power_law builds the metrics and slopes of both asym and the
Table 1 rows.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import Scenario
from .exact_metrics import Protocol, _require_mobility

__all__ = [
    "AsymMetrics",
    "Table1System",
    "asym",
    "table1_symmetric",
    "op_to_aor",
    "op_to_aod",
    "fit_loglog_slope",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AsymMetrics:
    """High-SNR approximations plus the log-log decay slopes they obey."""

    p_out: float
    aor: float
    aod: float
    slope_op: float
    slope_aor: float
    slope_aod: float

    def __init__(self, p_out, aor, aod, slope_op, slope_aor, slope_aod):
        # fills __dict__ directly, not by object.__setattr__: see the channel docstring
        d = self.__dict__
        d["p_out"] = p_out
        d["aor"] = aor
        d["aod"] = aod
        d["slope_op"] = slope_op
        d["slope_aor"] = slope_aor
        d["slope_aod"] = slope_aod


class Table1System(Enum):
    """Systems covered by the symmetric-network coefficient table.

    Each member is built from (token, p, n), its Table 1 row: with
    rho = c/gamma_bar, OP = p * rho^d and AOR = n * sqrt(pi) * f_m *
    rho^(d - 1/2), where c = 2^r0 - 1 for the single-hop direct row and
    2^(2 r0) - 1 otherwise.  token is the member's value; diversity_gain d
    is read from Protocol, and only the 1x2 SIMO baseline, which is not a
    protocol, states its own (2).
    """

    DIRECT = ("direct", 1.0, 2.0)
    SIMO_1X2 = ("simo-1x2", 0.5, 2.0)
    AF = ("af", 1.0, 4.0)
    DF = ("df", 1.0, 2.0)
    SR = ("sr", 1.0, 3.0 + math.sqrt(2.0))

    def __new__(cls, token: str, p: float, n: float):
        member = object.__new__(cls)
        member._value_ = token
        member.p = p
        member.n = n
        return member

    @property
    def diversity_gain(self) -> int:
        return 2 if self is Table1System.SIMO_1X2 else Protocol(self.value).diversity_gain


def _ratio3(u: float, v: float) -> float:
    """(u^3 - v^3) / (u^2 - v^2) in factored form; limit 3u/2 at u == v."""
    return (u * u + u * v + v * v) / (u + v)


def _power_law(p: float, n: float, level: float, d: int) -> AsymMetrics:
    """The diversity-d power law OP = p*level^(2d), AOR = n*level^(2d - 1) and its slopes.

    aod is nan when aor == 0.
    """
    p_out = p * level ** (2 * d)
    aor = n * level ** (2 * d - 1)
    return AsymMetrics(p_out, aor, p_out / aor if aor > 0.0 else math.nan, -float(d), -(d - 0.5), -0.5)


def _coefficients(scenario: Scenario, protocol: Protocol) -> tuple[float, float, float]:
    """(p, n, thr) with OP ~ p * thr^(2d) and AOR ~ n * thr^(2d - 1).

    thr is the protocol's outage level, so both coefficients depend only on
    the gains and Dopplers.  Direct and DF take one square root each;
    only AF and SR need the square roots of all three derivative variances.
    """
    _require_mobility(scenario)
    g = scenario.gains
    ld, th = scenario.derived
    ox, oy, oz = g.omega_x, g.omega_y, g.omega_z
    token = protocol.token
    if token == "direct":
        p, n = 1.0 / ox, math.sqrt(2.0 * ld.sigma2_x / math.pi) / ox
    elif token == "df":
        p, n = 1.0 / oy, math.sqrt(2.0 * ld.sigma2_y / math.pi) / oy
    else:  # AF and SR, the second-order protocols
        p = (oy + oz) / (2.0 * ox * oy * oz)
        sx = math.sqrt(ld.sigma2_x)
        sy = math.sqrt(ld.sigma2_y)
        sz = math.sqrt(ld.sigma2_z)
        if token == "af":
            n = 4.0 / (3.0 * _SQRT_2PI) * (_ratio3(sx, sz) / (ox * oz) + _ratio3(sx, sy) / (ox * oy))
        else:
            n = ((sx + sy / math.sqrt(2.0)) / (ox * oy) + 2.0 * math.sqrt(2.0) / 3.0 * _ratio3(sz, sx) / (ox * oz)) / _SQRT_PI
    return p, n, protocol.level(th)


def asym(scenario: Scenario, protocol: Protocol) -> AsymMetrics:
    """High-SNR OP/AOR/AOD approximations for one protocol.

    Selection relaying is approximated under the usual relay-activation
    policy y0 = g0; an explicit fixed y0 changes the high-SNR behaviour
    and is not covered by these closed forms.
    """
    return _power_law(*_coefficients(scenario, protocol), protocol.diversity_gain)


def table1_symmetric(gamma_bar: float, r0: float, f_m: float, system: Table1System) -> AsymMetrics:
    """Symmetric-network high-SNR closed forms versus the received SNR.

    All three links share the mean square gain, every node moves with the
    same maximum Doppler f_m, and gamma_bar is the average received SNR
    (mean square gain times transmit SNR).  The direct-transmission row
    uses the single-hop spectral efficiency (2^r0 - 1, full-time channel
    use); the cooperative rows use the half-duplex 2^(2 r0) - 1.  Each
    row is the power law of its member's (p, n) at level sqrt(rho),
    rho = c/gamma_bar.  NaN and infinite arguments raise ValueError, and
    so does an r0 whose 2^(2 r0) overflows a float (r0 >= 512).
    """
    if not (math.isfinite(gamma_bar) and gamma_bar > 0.0):
        raise ValueError("gamma_bar must be finite and positive")
    if not (math.isfinite(f_m) and f_m > 0.0):
        raise ValueError("f_m must be finite and positive")
    if not (math.isfinite(r0) and r0 >= 0.0):
        raise ValueError("r0 must be finite and nonnegative")
    # refused for every row, the direct one (2^r0) included, so that a
    # table fails before it prints any row
    if r0 >= 512.0:
        raise ValueError(f"r0 = {r0:g} b/s/Hz is out of range: 2^(2 r0) overflows a float")
    c = 2.0 ** (r0 if system is Table1System.DIRECT else 2.0 * r0) - 1.0
    return _power_law(system.p, system.n * _SQRT_PI * f_m, math.sqrt(c / gamma_bar), system.diversity_gain)


def op_to_aor(p_out: float, scenario: Scenario, protocol: Protocol) -> float:
    """High-SNR outage rate implied by an outage probability.

    Eliminating the level between _power_law's OP = p*level^(2d) and
    AOR = n*level^(2d - 1) gives AOR = n * (P_out/p)^((2d - 1)/(2d)), with
    p and n functions of the gains and Dopplers only.
    """
    if not 0.0 < p_out < 1.0:
        raise ValueError("p_out must lie in (0, 1)")
    p_coef, n_coef, _ = _coefficients(scenario, protocol)
    d = protocol.diversity_gain
    return n_coef * (p_out / p_coef) ** ((2 * d - 1) / (2 * d))


def op_to_aod(p_out: float, scenario: Scenario, protocol: Protocol) -> float:
    """High-SNR outage duration implied by an outage probability.

    The companion law AOD = P_out/AOR = (p^((2d - 1)/(2d))/n) *
    P_out^(1/(2d)); the product with op_to_aor reproduces p_out exactly.
    """
    return p_out / op_to_aor(p_out, scenario, protocol)


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log10(y) versus log10(x) and its RMS residual."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit a slope")
    coef, res = np.polynomial.polynomial.polyfit(lx, ly, 1, full=True)
    rms = math.sqrt(res[0][0] / lx.size) if len(res[0]) else 0.0
    return float(coef[1]), rms

"""System and channel model for three-node cooperative links.

A source S talks to a destination D directly (link gain X) and through a
relay R (S->R gain Y, R->D gain Z).  All three links fade independently
with Rayleigh envelopes; node mobility makes the gains time varying with
mobile-to-mobile (product-J0) autocorrelation, so each link's gain
derivative is zero-mean Gaussian with variance pi^2 * omega * f_m^2 built
from the two terminal Dopplers of that link.

derive(scenario) turns an operating point into those link quantities and
the outage thresholds.  A function decorated with scenario_term is a
per-operating-point term: computed once per Scenario instance, on first
use, and kept in its __dict__.  A Scenario's ``derived`` attribute is
such a term, derive(self), read through a lock-free non-data descriptor,
and every metric reads that kept value.

The result records (LinkDerived, Thresholds, and the metrics records of
exact_metrics and asym_metrics) are frozen dataclasses with a hand-written
__init__ that fills the instance __dict__ directly: the generated frozen
__init__ pays one object.__setattr__ per field and takes about twice as
long, and every scalar closed-form call builds such records (README,
"Performance").
"""

import math
import sys
from dataclasses import dataclass
from functools import wraps

__all__ = [
    "MobilityError",
    "NodeDopplers",
    "LinkGains",
    "LinkDerived",
    "Scenario",
    "Thresholds",
    "derive",
    "rayleigh_cdf",
    "rayleigh_lcr",
]


# the smallest normal float; e^{-c} is a normal float for c up to -log of it, 708.396...
_TINY = sys.float_info.min
_EXP_NORMAL = -math.log(_TINY)


class MobilityError(ValueError):
    """All node Dopplers are zero: outage rate and duration are degenerate."""


@dataclass(frozen=True)
class NodeDopplers:
    """Maximum Doppler rate (Hz) introduced by each node's mobility.

    An all-static triple is allowed at construction so that outage
    probability studies remain possible; rate/duration computations reject
    it with MobilityError.
    """

    f_s: float
    f_r: float
    f_d: float

    def __post_init__(self):
        if not all(math.isfinite(f) and f >= 0.0 for f in (self.f_s, self.f_r, self.f_d)):
            raise ValueError("node Dopplers must be finite and nonnegative")

    @property
    def all_static(self) -> bool:
        return self.f_s == 0.0 and self.f_r == 0.0 and self.f_d == 0.0


@dataclass(frozen=True)
class LinkGains:
    """Mean squared channel gains of the S->D, S->R and R->D links."""

    omega_x: float = 1.0
    omega_y: float = 1.0
    omega_z: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(o) and o > 0.0 for o in (self.omega_x, self.omega_y, self.omega_z)):
            raise ValueError("mean squared gains must be finite and strictly positive")


@dataclass(frozen=True)
class LinkDerived:
    """Per-link composite Dopplers (Hz) and gain-derivative variances.

    Each link combines the Dopplers of its two terminals in quadrature;
    sigma2 = pi^2 * omega * f_link^2 is exact for 2-D isotropic scattering.
    """

    f_x: float
    f_y: float
    f_z: float
    sigma2_x: float
    sigma2_y: float
    sigma2_z: float

    def __init__(self, f_x, f_y, f_z, sigma2_x, sigma2_y, sigma2_z):
        d = self.__dict__
        d["f_x"] = f_x
        d["f_y"] = f_y
        d["f_z"] = f_z
        d["sigma2_x"] = sigma2_x
        d["sigma2_y"] = sigma2_y
        d["sigma2_z"] = sigma2_z


def scenario_term(fn):
    """Decorator: fn(scenario) computed once per Scenario instance, on first use.

    The value is kept in the instance __dict__ under fn's name, where
    Scenario.derived is kept too: not a field, so equality, hashing, repr
    and dataclasses.replace ignore it, and a replaced scenario computes it
    afresh.  A call of fn that raises keeps nothing, so the next access
    raises again.  None marks a value not yet computed, so fn must not
    return it.  No lock guards the first computation: two threads may
    both compute a term, and as fn is a pure function of the scenario
    both keep equal values.
    """
    key = fn.__name__

    @wraps(fn)
    def term(scenario: "Scenario"):
        # .get and a None test, not try/except KeyError: raising on every
        # first access made loops of scalar closed-form calls measurably slower
        terms = scenario.__dict__
        value = terms.get(key)
        if value is None:
            value = terms[key] = fn(scenario)
        return value

    return term


class _TermAttribute:
    """A scenario_term read as a Scenario attribute of the term's own name.

    A non-data descriptor: the first read calls the term, which keeps its
    value in the instance __dict__, and every later read finds it there
    without calling __get__.  Unlike functools.cached_property before
    Python 3.12, it takes no lock on the first read.
    """

    def __init__(self, term):
        self.term = term
        self.__doc__ = term.__doc__

    def __get__(self, scenario, owner=None):
        return self if scenario is None else self.term(scenario)


@dataclass(frozen=True)
class Scenario:
    """One operating point of the cooperative system.

    gamma0 is the transmit SNR (linear), r0 the target spectral efficiency
    in b/s/Hz; an r0 whose outage threshold g0^2 = (2^(2 r0) - 1)/gamma0
    leaves the float range is refused with ValueError.  y0 is the
    relay-activation threshold of selection relaying; None selects the
    usual choice y0 = g0.

    ``derived`` is derive(self), computed once on first use and kept on the
    instance, a scenario_term read as an attribute.  It is not a field, so
    equality, hashing, repr and dataclasses.replace ignore it, and a
    replaced scenario derives afresh.  Two threads racing on the first
    read may both derive; derive is pure, so both keep equal values.
    """

    gamma0: float
    r0: float
    gains: LinkGains = LinkGains()
    dopplers: NodeDopplers = NodeDopplers(1.0, 1.0, 1.0)
    y0: float | None = None

    def __post_init__(self):
        # NaN fails every comparison and inf overflows the thresholds, so both
        # are refused here rather than deep inside a metric
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0.0):
            raise ValueError("gamma0 must be a finite positive linear SNR")
        if not (math.isfinite(self.r0) and self.r0 >= 0.0):
            raise ValueError("r0 must be finite and nonnegative")
        # derive's g0^2 = (2^(2 r0) - 1)/gamma0; 2.0**x raises OverflowError from x = 1024
        if self.r0 >= 512.0 or math.isinf((2.0 ** (2.0 * self.r0) - 1.0) / self.gamma0):
            raise ValueError(
                f"r0 = {self.r0:g} b/s/Hz at gamma0 = {self.gamma0:g} puts the outage threshold "
                "(2^(2 r0) - 1)/gamma0 beyond the float range"
            )
        if self.y0 is not None and not (math.isfinite(self.y0) and self.y0 > 0.0):
            raise ValueError("explicit y0 must be finite and strictly positive")
        # build the instance __dict__ here, in the constructing thread.  CPython
        # 3.11 builds it on first access; a collection started by that
        # allocation can run a finaliser that hands the GIL to another thread
        # making the same first access, and the two dicts then share one
        # values array, on which the collector later crashes
        self.__dict__

    @_TermAttribute
    @scenario_term
    def derived(self) -> "tuple[LinkDerived, Thresholds]":
        """(link quantities, thresholds) of this scenario: derive(self), once."""
        return derive(self)


@dataclass(frozen=True)
class Thresholds:
    """Outage thresholds and the AF gain constant for one scenario.

    g0 applies to the relayed protocols (equivalent gain below g0 means the
    half-duplex mutual information drops under r0), x0 to direct
    transmission, c1 = 1/gamma0 normalises the variable AF relay gain, and
    y0 is the resolved relay-activation level of selection relaying.
    """

    g0: float
    x0: float
    c1: float
    y0: float

    def __init__(self, g0, x0, c1, y0):
        d = self.__dict__
        d["g0"] = g0
        d["x0"] = x0
        d["c1"] = c1
        d["y0"] = y0


def derive(scenario: Scenario) -> tuple[LinkDerived, Thresholds]:
    """Composite Dopplers, derivative variances and outage thresholds."""
    d, g = scenario.dopplers, scenario.gains
    f_x = math.hypot(d.f_s, d.f_d)
    f_y = math.hypot(d.f_s, d.f_r)
    f_z = math.hypot(d.f_r, d.f_d)
    pi2 = math.pi**2
    derived = LinkDerived(
        f_x, f_y, f_z, pi2 * g.omega_x * f_x**2, pi2 * g.omega_y * f_y**2, pi2 * g.omega_z * f_z**2
    )
    g0 = math.sqrt((2.0 ** (2.0 * scenario.r0) - 1.0) / scenario.gamma0)
    x0 = math.sqrt((2.0**scenario.r0 - 1.0) / scenario.gamma0)
    thresholds = Thresholds(g0, x0, 1.0 / scenario.gamma0, scenario.y0 if scenario.y0 is not None else g0)
    return derived, thresholds


def _domain_error(**args: float) -> ValueError:
    """The ValueError of a failed domain test, naming its first bad argument.

    For a caller whose one chained comparison over args failed: every
    argument must be finite, a mean square gain (a name starting with
    "omega") positive and every other one nonnegative.
    """
    for name, value in args.items():
        kind = "positive" if name.startswith("omega") else "nonnegative"
        if not ((value > 0.0 or value == 0.0 and kind == "nonnegative") and value < math.inf):
            break
    return ValueError(f"{name} must be finite and {kind}, got {value!r}")


def rayleigh_cdf(x: float, omega: float) -> float:
    """CDF of a Rayleigh envelope with mean square omega, Pr{gain <= x}.

    x^2 / omega is taken as (x / omega) x, as rayleigh_lcr takes it, so a
    subnormal x^2 is never formed.  A NaN or infinite argument, x < 0 or
    omega <= 0 raise ValueError.
    """
    if not (0.0 <= x < math.inf and 0.0 < omega < math.inf):
        raise _domain_error(x=x, omega=omega)
    return -math.expm1(-(x / omega) * x)


def rayleigh_lcr(level: float, omega: float, sigma2: float) -> float:
    """Downward level-crossing rate (Hz) of a Rayleigh envelope.

    Rice's formula for an envelope with mean square omega whose underlying
    quadratures have derivative variance sigma2:
        sqrt(2 * sigma2 / pi) * (level / omega) * exp(-level^2 / omega).
    Where exp(-level^2 / omega) or a nonzero level / omega is not a normal
    float, the three factors meet as one exp of the sum of their logs, so
    level / omega > 1 lifts the result without losing digits, an
    overflowing level / omega gives 0, not inf * 0, and a large sigma2
    lifts a subnormal level / omega without losing digits.  A nonzero
    subnormal sigma2 takes sqrt(sigma2) sqrt(2 / pi), and in the log form
    log(sigma2) + log(2 / pi), as 2 sigma2 / pi would round to a subnormal
    with few digits.
    level^2 / omega is taken as (level / omega) level, as lcr_u takes its
    c, so a subnormal level^2 is never formed.  A NaN or infinite argument,
    level or sigma2 < 0, or omega <= 0 raise ValueError.
    """
    if not (0.0 <= level < math.inf and 0.0 < omega < math.inf and 0.0 <= sigma2 < math.inf):
        raise _domain_error(level=level, omega=omega, sigma2=sigma2)
    f = level / omega
    c = f * level
    if c <= _EXP_NORMAL and (f >= _TINY or level == 0.0):
        if sigma2 >= _TINY:
            return math.sqrt(2.0 * sigma2 / math.pi) * f * math.exp(-c)
        return math.sqrt(sigma2) * math.sqrt(2.0 / math.pi) * f * math.exp(-c)
    if sigma2 == 0.0:
        return 0.0
    if sigma2 >= _TINY:
        log_scale = 0.5 * math.log(sigma2 * (2.0 / math.pi))
    else:
        log_scale = 0.5 * (math.log(sigma2) + math.log(2.0 / math.pi))
    return math.exp(log_scale + math.log(level) - math.log(omega) - c)

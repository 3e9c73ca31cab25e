"""Stochastic trace-level oracle for the analytical outage expressions.

Generates time-correlated mobile-to-mobile Rayleigh link gains by sum of
sinusoids, composes the protocol's equivalent end-to-end gain sample by
sample, and estimates outage probability, rate, and duration empirically
from threshold dwell fractions and downward-crossing counts.  Every count
is taken on one below-level mask, below = g < level, with the outage
entries below[1:] & ~below[:-1] (CrossingCounts.from_mask); a NaN sample
is not below.

Each ray of the sum carries a random transmit-side angle, receive-side
angle, and phase, so the quadrature autocorrelation is exactly the product
of the two terminal J0 Doppler factors.  Random streams are counter-based
(Philox) keyed by (seed, realization, link): links and realizations are
independent and reproducible regardless of chunking or execution order.

The sum of sinusoids is evaluated in blocks of B samples, t = t_b + tau
with t_b = bB dt and tau = j dt.  An even ray count N gives an antipodal
ray set (see _coprime_stride): ray k + N/2 runs at exactly -w_k.  With
s = e^{i w_k t_b}, E = e^{i w_k tau} and the rays' coefficients c =
amp e^{i phi_k} and c' = amp e^{i phi_{k+N/2}}, each pair is one cosine
and one sine: h = sum_{k<N/2} Re(s) U_k(tau) + Im(s) V_k(tau) with
U = cE + c' conj(E) and V = i(cE - c' conj(E)).  So each product of at
most 2^20 samples is one real matrix product, the (n/B x N) block-start
factor [Re s_k, Im s_k] times the (N x 2B) in-block factor, the complex
rows U_k, V_k viewed as float64, written straight into the float64 view
of the complex trace: half the flops of the complex product of the
(n/B x N) block-start phasors and the (N x B) in-block phasors.  An odd
count has no partners and goes through the same product with all N
frequencies and c' = 0 (U = cE, V = icE), at a complex product's flops.
Each phasor comes from two small tables: with j = 16 j_hi + j_lo, the
in-block phasor is e^{i w_k 16 j_hi dt} * e^{i w_k j_lo dt}, and a block
start is the product's first-sample phasor e^{i w_k b0 B dt} times the
same split of its row index.  Every entry is a product of two or three
phasors computed directly from the sample index, never by repeated
phasor multiplication, so rounding error stays at the level of a few
phase evaluations wherever the sample sits in the trace.

A link envelope is the modulus of a complex gain from one generator
core, _complex_gains, which draws a link for any number R of realizations
in one call.  Each realization keeps its own keyed Philox stream
(_link_rng: key (seed, realization, link)) and draws from it in the same
order as alone.  The ray frequencies, the coefficients, both phasor
tables and the in-block factor are built once for all R, with one
realization's arithmetic elementwise along a leading axis.  Each
realization then runs its own real matrix products into one reused
complex scratch.  So a realization's gain is bit for bit the same whether
it is drawn alone or with others, and the batch pays the many small-array
operations once instead of R times (README "Performance").
gen_complex_gain is the core's one-realization case.
gen_m2m_rayleigh draws one envelope from the link's own parameters,
gen_link_traces draws the three links of a Scenario for one realization
(_link_gains), and validate's trace store draws each link for every
realization in one call, writing each modulus straight into its row.

The traces depend on the gains, the Dopplers and the TraceConfig, not on
the protocol or the SNR.  validate therefore draws each link once per
Scenario instance, for every realization at once, and keeps it on the
instance in a trace store (_trace_store), so validating every protocol of
one scenario composes the same samples: common random numbers across
protocols, with every value bit-identical to a fresh draw.  A store holds
one TraceConfig's envelopes in one read-only float64 array of shape
(n_realizations, 3, n_samples), allocated with the store; each draw writes
its rows in place, and direct-only validation draws link 0 only.  One
allocation per store instead of one per draw also spares the memory
system: on glibc, freeing it raises malloc's dynamic mmap and trim
thresholds to its size, so scenario after scenario reuses the heap's pages
(a warm pass of the benchmark's mc_oracle workload, 4 x 65,536 samples,
took 2,016 minor page faults with one array per draw and takes none).
gen_link_traces draws afresh on each call.
DF and SR both test U = sqrt(x^2 + z^2) < g0 on the same samples, so that
mask is computed once per realization and kept in the store.  It
is decided on squares (_hypot_below): x*x + z*z against g0*g0 wherever
the two differ by more than a band of relative half-width 2^-48, and by
np.hypot only for the samples inside the band and NaN samples, or for
the whole realization when g0 lies outside [2^-500, 2^500], where the
squares would overflow or lose relative accuracy.  The mask is exactly
np.hypot(x, z) < g0, sample by sample.
validate builds each protocol's below-level mask from the stored arrays
(_outage_mask): direct, DF and SR test their envelopes directly, and
every other protocol (AF) composes its float gain through
equivalent_gain.
"""

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import Scenario, Thresholds, _domain_error
from .exact_metrics import OutageMetrics, Protocol, metrics

__all__ = [
    "StaticLinkError",
    "TraceConfig",
    "FadingTrace",
    "EmpiricalMetrics",
    "CrossingCounts",
    "ValidationEntry",
    "ValidationReport",
    "gen_complex_gain",
    "gen_m2m_rayleigh",
    "gen_link_traces",
    "equivalent_gain",
    "count_down_crossings",
    "classify_sr_crossings",
    "estimate",
    "validate",
    "write_trace",
    "read_trace",
]

_TRACE_MAGIC = b"FTRC"
_BLOCK = 256  # samples per row of the phasor product
_BLOCK_ROWS = (1 << 20) // _BLOCK  # rows per product: bounds scratch at 2^20 samples
_SPLIT = 16  # low-table length of a phasor table (see _phasor_factors)
_HYPOT_BAND = 2.0**-48  # relative half-width of _hypot_below's undecided band, 32 unit roundoffs
_HYPOT_LEVELS = (2.0**-500, 2.0**500)  # levels whose square is decided on squares


class StaticLinkError(ValueError):
    """Both terminals of a link are static; no fading process exists."""


@dataclass(frozen=True)
class TraceConfig:
    """Simulation knobs for trace generation.

    oversampling counts samples per reciprocal of the fastest link's total
    Doppler spread; n_sinusoids is the number of rays per quadrature
    component of each link.
    """

    n_samples: int
    seed: int = 2024
    oversampling: int = 64
    n_sinusoids: int = 32
    n_realizations: int = 1

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.oversampling < 16:
            raise ValueError("oversampling must be >= 16")
        if self.n_sinusoids < 16:
            raise ValueError("n_sinusoids must be >= 16")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


@dataclass(frozen=True)
class FadingTrace:
    """Uniformly sampled nonnegative envelope (or equivalent-gain) series."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")

    @property
    def duration(self) -> float:
        return self.dt * len(self.samples)


def _link_rng(seed: int, realization: int, link: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed), (np.uint64(realization) << np.uint64(32)) | np.uint64(link)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _coprime_stride(n: int) -> int:
    """Smallest stride r with gcd(r, n) = 1 and r != +-1 (mod n).

    An even n forces an odd r, so r * n/2 = n/2 (mod n): ray k + n/2 then
    has both angles of ray k turned by pi, and its Doppler is -w_k.  The
    ray set is antipodal, which gen_complex_gain folds into pairs.
    """
    for r in range(2, n):
        if np.gcd(r, n) == 1 and (r - 1) % n != 0 and (r + 1) % n != 0:
            return r
    raise ValueError(f"no usable stride for n_sinusoids={n}")


def _phasor_factors(omega_ray: np.ndarray, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two small tables of the phasor table e^{i w_k j step}, j < n, of each row of omega_ray (... x K).

    With j = _SPLIT*j_hi + j_lo, entry j is hi[j_hi] * lo[j_lo]: hi (... x
    ceil(n/_SPLIT) x K) holds e^{i w_k _SPLIT j_hi step} and lo (... x
    _SPLIT x K) holds e^{i w_k j_lo step}.  That is ceil(n/_SPLIT) + _SPLIT
    complex exponentials per ray instead of n, and every entry is still a
    product of phasors taken straight from its index, with no recurrence.
    """
    w = omega_ray[..., None, :]
    hi = np.exp(1j * ((np.arange(-(-n // _SPLIT)) * (_SPLIT * step))[:, None] * w))
    lo = np.exp(1j * ((np.arange(_SPLIT) * step)[:, None] * w))
    return hi, lo


def _in_block(omega_ray: np.ndarray, coef: np.ndarray, dt: float) -> np.ndarray:
    """In-block factors (R x 2K x 2*_BLOCK float64) of R ray sets: row 2k is U_k, row 2k+1 is V_k.

    U_k = c E + c' conj(E) and V_k = i c E - i c' conj(E) over tau = j dt,
    j < _BLOCK, viewed as float64; a ray with no partner (k >= N - K, every
    k for an odd count) has c' = 0.  The result takes R K 8 KiB; while it
    is built, E and one product take R K 4 KiB each.  They are freed on
    return, before _complex_gains allocates its scratch, where a local of
    the generator would live until its last realization.
    """
    n_real, n_tab = omega_ray.shape
    hi, lo = _phasor_factors(omega_ray, dt, _BLOCK)
    # e[r, k, j] = E_k(j dt), one contiguous row per ray, as the rows of uv
    e = np.empty((n_real, n_tab, hi.shape[1], _SPLIT), dtype=np.complex128)
    np.multiply(hi.swapaxes(1, 2)[..., None], lo.swapaxes(1, 2)[..., None, :], out=e)
    e = e.reshape(n_real, n_tab, -1)[..., :_BLOCK]
    uv = (coef[:, :n_tab, None] * [1.0, 1j])[..., None] * e[:, :, None, :]
    n_pairs = coef.shape[1] - n_tab  # no partners for an odd count
    partner = (coef[:, n_tab:, None] * [1.0, -1j])[..., None]  # c', -i c'
    conj_e = np.conj(e[:, :n_pairs], out=e[:, :n_pairs])  # E is spent: conj(E) takes its place
    uv[:, :n_pairs, 0] += partner[:, :, 0] * conj_e
    uv[:, :n_pairs, 1] += np.multiply(partner[:, :, 1], conj_e, out=conj_e)  # last use of conj(E)
    return uv.reshape(n_real, 2 * n_tab, _BLOCK).view(np.float64)


def _complex_gains(
    omega: float,
    f_tx: float,
    f_rx: float,
    n_samples: int,
    dt: float,
    rngs,
    n_sinusoids: int,
):
    """Complex gains of one link, one realization per stream of rngs, yielded in turn.

    The batched core of gen_complex_gain, which is its one-stream case.
    Each stream draws (u_alpha, u_beta) and then the N phases.  The ray
    frequencies (R x N/2, or R x N for an odd count), the coefficients
    (R x N), the in-block factor [U; V] (_in_block) and the block-start
    factor of every product are each built once for all R streams, with
    one stream's arithmetic elementwise along a leading axis, so every
    gain is bit-identical to a one-stream draw.  Then each realization
    runs its real matrix products, one per product of at most _BLOCK_ROWS
    blocks, into one complex scratch array, and each yielded gain is a
    view of that scratch, which the next realization overwrites.  Beyond
    the one trace of scratch, the tables take R K 8 KiB for [U; V] and
    R K n/16 bytes for the block starts (K rays in the tables, n samples
    rounded up to whole products): at 32 rays and 65,536 samples, 128 KiB
    and 64 KiB per realization against the 1 MiB scratch.
    """
    n_real = len(rngs)
    u = np.empty((n_real, 2))
    phi = np.empty((n_real, n_sinusoids))
    for r, rng in enumerate(rngs):
        u[r] = rng.uniform(0.0, 1.0, 2)
        phi[r] = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    n_tab = n_sinusoids // 2 if n_sinusoids % 2 == 0 else n_sinusoids  # rays in the tables
    idx = np.arange(n_tab)
    stride = _coprime_stride(n_sinusoids)
    alpha = 2.0 * np.pi * (idx + u[:, :1]) / n_sinusoids
    beta = 2.0 * np.pi * ((stride * idx) % n_sinusoids + u[:, 1:]) / n_sinusoids
    omega_ray = 2.0 * np.pi * (f_tx * np.cos(alpha) + f_rx * np.cos(beta))
    coef = np.sqrt(omega / n_sinusoids) * np.exp(1j * phi)  # c_k, then c'_k of the partners
    in_block = _in_block(omega_ray, coef, dt)
    n_blocks = -(-n_samples // _BLOCK)
    b0s = range(0, n_blocks, _BLOCK_ROWS)
    # block starts: product c's first-sample phasor times the split table of its row index
    start = np.exp(1j * (omega_ray[:, None, :] * (np.asarray(b0s) * _BLOCK * dt)[:, None]))
    hi, lo = _phasor_factors(omega_ray, _BLOCK * dt, min(_BLOCK_ROWS, n_blocks))
    lo = start[:, :, None, :] * lo[:, None]
    block_start = (hi[:, None, :, None, :] * lo[:, :, None]).reshape(n_real, len(b0s), -1, n_tab)
    out = np.empty(n_blocks * _BLOCK, dtype=np.complex128)
    rows = out.view(np.float64).reshape(n_blocks, 2 * _BLOCK)
    for r in range(n_real):
        for c, b0 in enumerate(b0s):
            b1 = min(b0 + _BLOCK_ROWS, n_blocks)
            # columns Re(s_k), Im(s_k) interleaved, as the rows of in_block
            np.matmul(block_start[r, c, : b1 - b0].view(np.float64), in_block[r], out=rows[b0:b1])
        yield out[:n_samples]


def gen_complex_gain(
    omega: float,
    f_tx: float,
    f_rx: float,
    n_samples: int,
    dt: float,
    rng: np.random.Generator,
    n_sinusoids: int = 32,
) -> np.ndarray:
    """Complex baseband gain of one mobile-to-mobile Rayleigh link.

    Ray n has Doppler f_tx*cos(alpha_n) + f_rx*cos(beta_n) and phase phi_n;
    every angle is marginally uniform on [0, 2*pi), amplitudes are equal
    and normalised so E[|h|^2] = omega, which gives each quadrature the
    autocorrelation (omega/2) * J0(2*pi*f_tx*tau) * J0(2*pi*f_rx*tau).

    This is the one-realization case of the batched core _complex_gains,
    which draws the same gain, bit for bit, when it draws rng's
    realization together with others.

    The transmit and receive angle sets are equi-spaced grids with
    independent random rotations, paired through a coprime stride.  The grid
    kills the ray-sampling noise of the per-realization gain-derivative
    variance (sum of cos^2 over the grid is exactly n/2, and the stride
    makes the cross term vanish), so crossing rates of a single realization
    track the analytical ones already at moderate ray counts; independent
    angles would leave the effective Doppler spread of one realization
    randomly offset by O(1/sqrt(n_sinusoids)).

    With an even ray count the set is antipodal (see _coprime_stride):
    w_k is computed for k < N/2 only and ray k + N/2 runs at exactly -w_k.
    Evaluation is blocked and folds each such pair (see the module
    docstring) into one real matrix product at half the flops of a complex
    one.  An odd count has no partners: the same product with c' = 0 does
    a complex product's flops.  The block-start and in-block phasors are
    products of entries of two small tables (_phasor_factors), each taken
    straight from the sample index, so the deviation from a per-ray cos/sin
    sum with antipodal frequencies is the rounding of a few phase arguments
    (within 2.4e-12 at 65,537 samples and 3.4e-11 at 1.05e6 samples, 16 to
    64 rays), not an accumulation.  A partner's frequency differs from the unfolded one by
    one rounding, about 1e-16 relative; against the unfolded frequencies
    the deviation is within 3.2e-12 and 5.9e-11.
    """
    return next(_complex_gains(omega, f_tx, f_rx, n_samples, dt, (rng,), n_sinusoids))


def gen_m2m_rayleigh(
    omega: float,
    f_tx: float,
    f_rx: float,
    cfg: TraceConfig,
    *,
    dt: float | None = None,
    realization: int = 0,
    link: int = 0,
    static_fallback: bool = False,
) -> FadingTrace:
    """Envelope trace of one link; see gen_complex_gain for the ray model.

    dt defaults to 1 / (oversampling * (f_tx + f_rx)), the reciprocal of
    the link's total Doppler spread; pass a shared dt when several links of
    different spreads are composed.  A link with both terminals static has
    no Doppler process: StaticLinkError is raised unless static_fallback
    requests a constant-envelope draw (good for outage-probability-only
    studies; its dt defaults to 1).  A NaN or infinite omega, f_tx or f_rx,
    a negative Doppler or omega <= 0 raise ValueError, and so does a dt
    that is not positive and finite.
    """
    if not (0.0 < omega < math.inf and 0.0 <= f_tx < math.inf and 0.0 <= f_rx < math.inf):
        raise _domain_error(omega=omega, f_tx=f_tx, f_rx=f_rx)
    rng = _link_rng(cfg.seed, realization, link)
    if f_tx + f_rx <= 0.0:
        if not static_fallback:
            raise StaticLinkError("both terminal Dopplers are zero")
        level = rng.rayleigh(np.sqrt(omega / 2.0))
        return FadingTrace(dt=1.0 if dt is None else dt, samples=np.full(cfg.n_samples, level))
    if dt is None:
        dt = 1.0 / (cfg.oversampling * (f_tx + f_rx))
    h = gen_complex_gain(omega, f_tx, f_rx, cfg.n_samples, dt, rng, cfg.n_sinusoids)
    return FadingTrace(dt=dt, samples=np.abs(h))


def scenario_dt(scenario: Scenario, cfg: TraceConfig) -> float:
    """Shared sampling interval: oversample the fastest link's Doppler spread."""
    d = scenario.dopplers
    spread = max(d.f_s + d.f_d, d.f_s + d.f_r, d.f_r + d.f_d)
    if spread <= 0.0:
        raise StaticLinkError("all node Dopplers are zero")
    return 1.0 / (cfg.oversampling * spread)


def _link_gains(scenario: Scenario, cfg: TraceConfig, dt: float, link: int, realizations):
    """Complex gains of link 0 (S->D), 1 (S->R) or 2 (R->D) in each realization, yielded in turn.

    Each realization draws on its own keyed stream (_link_rng), all of them
    through one batched call (_complex_gains), so the envelope of each is
    the samples of gen_m2m_rayleigh(..., dt=dt, realization=r, link=link)
    for that link.  A static link raises StaticLinkError before any draw.
    """
    d, g = scenario.dopplers, scenario.gains
    omega = (g.omega_x, g.omega_y, g.omega_z)[link]
    f_tx, f_rx = ((d.f_s, d.f_d), (d.f_s, d.f_r), (d.f_r, d.f_d))[link]
    if f_tx + f_rx <= 0.0:
        raise StaticLinkError("both terminal Dopplers are zero")
    rngs = [_link_rng(cfg.seed, r, link) for r in realizations]
    return _complex_gains(omega, f_tx, f_rx, cfg.n_samples, dt, rngs, cfg.n_sinusoids)


def gen_link_traces(
    scenario: Scenario, cfg: TraceConfig, realization: int = 0
) -> tuple[FadingTrace, FadingTrace, FadingTrace]:
    """The three link envelopes (S->D, S->R, R->D) on a common time base.

    Draws them afresh on every call; validate reads the same samples from
    the scenario's trace store (_trace_store).  An all-static scenario
    raises StaticLinkError.
    """
    dt = scenario_dt(scenario, cfg)
    return tuple(
        FadingTrace(dt=dt, samples=np.abs(next(_link_gains(scenario, cfg, dt, link, (realization,)))))
        for link in range(3)
    )


@dataclass
class _TraceStore:
    """validate's traces of one Scenario under one cfg.

    envelopes is one read-only float64 array of shape (n_realizations, 3,
    n_samples), allocated with the store since cfg fixes its size; links
    counts the links drawn into it so far, link 0 first, each for every
    realization.  u_below holds one read-only mask U < g0 per realization,
    None until DF or SR asks (_outage_mask).
    """

    cfg: TraceConfig
    envelopes: np.ndarray
    links: int = 0
    u_below: tuple[np.ndarray, ...] | None = None


def _trace_store(scenario: Scenario, cfg: TraceConfig, dt: float, links: int) -> _TraceStore:
    """The scenario's trace store for cfg, with its first links links drawn.

    Kept in the instance __dict__ under "_traces", like the terms of
    channel.scenario_term: not a field, so equality, hashing, repr and
    dataclasses.replace ignore it.  A different cfg replaces the whole
    store, envelope array included, so a scenario holds at most one
    (3 * n_realizations * n_samples float64, 6.3 MB at 4 x 65,536; see the
    module docstring for why it is one array).  Each missing link is drawn
    for every realization in one call into the generator core
    (_link_gains), and the modulus of each realization's gain is written
    straight into its row.  The array is
    writeable only while a call draws, so readers, which every protocol
    shares, see it read-only, also after a draw that raises; such a draw,
    as that of a static link, leaves its link undrawn.
    """
    store = scenario.__dict__.get("_traces")
    if store is None or store.cfg != cfg:
        store = scenario.__dict__["_traces"] = _TraceStore(cfg, np.empty((cfg.n_realizations, 3, cfg.n_samples)))
    if store.links < links:
        store.envelopes.setflags(write=True)
        try:
            for link in range(store.links, links):
                gains = _link_gains(scenario, cfg, dt, link, range(cfg.n_realizations))
                for row in store.envelopes[:, link]:  # no loop variable keeps a gain's scratch past its link
                    np.abs(next(gains), out=row)
                store.links = link + 1
        finally:
            store.envelopes.setflags(write=False)
    return store


def _hypot_below(x: np.ndarray, z: np.ndarray, level: float) -> np.ndarray:
    """np.hypot(x, z) < level for every sample, decided on squares where that is safe.

    With s = fl(x*x + z*z) and t = fl(level*level), a sample with
    s < fl(t (1 - b)) is below and one with s > fl(t (1 + b)) is not,
    b = _HYPOT_BAND = 2^-48 = 32u (unit roundoff u = 2^-53).  Why b
    suffices (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sections 2-3): s = (x^2 + z^2)(1 + e) with |e| <= 2u + u^2,
    t and the two band edges each add a relative rounding of at most u,
    and a k-ulp hypot h = sqrt(x^2 + z^2)(1 + d) has |d| <= 2ku.  Outside
    the band, h^2 is therefore on the same side of level^2 as s is of t
    whenever b > (4 + 4k)u to first order: 8u for the 1 ulp that libm's
    hypot keeps, and b = 32u covers up to 7 ulps.  These bounds need
    relative rounding, which the squares keep only for levels in
    _HYPOT_LEVELS = [2^-500, 2^500]: there t lies in [2^-1000, 2^1000], an
    underflowed x*x or z*z is off by 2^-1075 absolute, far below u*t, and
    an overflowed s is inf, far above the upper edge.  The samples inside
    the band, and NaN samples (both comparisons fail, and hypot(inf, nan)
    is inf), go to np.hypot; a level outside that range, negative or NaN
    sends the whole array.  The result is a fresh array, and a square
    that overflows raises no warning.
    """
    lo, hi = _HYPOT_LEVELS
    if not lo <= level <= hi:
        return np.hypot(x, z) < level
    t = level * level
    with np.errstate(over="ignore"):  # an inf square is decided: far above the band
        s = x * x
        s += z * z
    below = s < t * (1.0 - _HYPOT_BAND)
    decided = s > t * (1.0 + _HYPOT_BAND)
    decided |= below
    if not decided.all():
        near = np.flatnonzero(~decided)
        below[near] = np.hypot(x[near], z[near]) < level
    return below


def _outage_mask(protocol: Protocol, store: _TraceStore, r: int, th: Thresholds) -> np.ndarray:
    """equivalent_gain(protocol, x, y, z, th) < protocol.level(th), on the stored traces of realization r.

    Direct, DF and SR take mask shortcuts, each the same test sample by
    sample: direct tests x < x0, DF tests min(y, U) < g0 as y < g0 or
    U < g0, and SR selects between sqrt(2)*x < g0 and U < g0 on y <= y0,
    with U = hypot(x, z).  SR's selection is (off & sqrt(2)*x < g0) |
    (U < g0 & ~off) with off = y <= y0, so a NaN y is not off and takes
    U < g0, as np.where would; on boolean arrays np.where costs about 20
    times these three logical operations (380 against 17 us per 65,536
    samples, 2-vCPU VM).  DF and SR read one mask U < g0 per realization,
    _hypot_below(x, z, g0): np.hypot(x, z) < g0 bit for bit, decided on
    squares outside a band of relative half-width 2^-48 and by hypot
    inside it.  The first of them to ask computes it for every realization
    and keeps it read-only in the store's u_below, one byte per sample; g0
    is fixed by the scenario, so the store needs no key for it.  Every
    other protocol (AF) composes its float gain through equivalent_gain,
    which raises on a protocol it does not know.
    """
    x, y, z = store.envelopes[r]
    level = protocol.level(th)
    if protocol is Protocol.DIRECT:
        return x < level
    if protocol is Protocol.DF or protocol is Protocol.SR:
        if store.u_below is None:
            store.u_below = tuple(_hypot_below(xr, zr, level) for xr, _, zr in store.envelopes)
            for mask in store.u_below:
                mask.setflags(write=False)
        if protocol is Protocol.DF:
            return (y < level) | store.u_below[r]
        off = y <= th.y0
        return (off & (np.sqrt(2.0) * x < level)) | (store.u_below[r] & ~off)
    return equivalent_gain(protocol, x, y, z, th) < level


def equivalent_gain(protocol: Protocol, x, y, z, thresholds: Thresholds):
    """Equivalent end-to-end gain whose crossing of g0 defines an outage.

    Accepts scalars or arrays.  AF divides the relayed-path power by
    y^2 + z^2 + c1 (the variable relay gain), DF takes the minimum of the
    relay-decodable gain and the combined direct/relayed gain, selection
    relaying switches between sqrt(2)*x (relay silent, two direct copies)
    and sqrt(x^2 + z^2) on the relay-activation threshold y0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if protocol is Protocol.DIRECT:
        return x.copy()
    if protocol is Protocol.AF:
        # sqrt(x*x + y2*z2 / (y2 + z2 + c1)) in three buffers: x*x goes into
        # den once den is spent, where their shapes agree (a 0-d den is a
        # numpy scalar, no buffer)
        y2 = y * y
        z2 = z * z
        den = y2 + z2
        den += thresholds.c1
        y2 *= z2
        y2 /= den
        g = np.multiply(x, x, out=den if den.ndim and den.shape == x.shape else None)
        g += y2
        return np.sqrt(g, out=g) if g.ndim else np.sqrt(g)
    if protocol is Protocol.DF:
        return np.minimum(y, np.hypot(x, z))
    if protocol is Protocol.SR:
        return np.where(y <= thresholds.y0, np.sqrt(2.0) * x, np.hypot(x, z))
    raise ValueError(f"unknown protocol {protocol}")


def _entries(below: np.ndarray) -> np.ndarray:
    """Outage entries of a below-level mask: sample k not below, sample k+1 below."""
    return below[1:] & ~below[:-1]


def count_down_crossings(samples: np.ndarray, level: float) -> int:
    """Downward crossings: sample k not below the level, sample k+1 below.

    Counted on the mask samples < level, the one test every count of this
    module uses (CrossingCounts.from_mask), so a NaN sample is not below
    the level: a step from NaN to below it is a crossing.
    """
    return int(np.count_nonzero(_entries(np.asarray(samples) < level)))


def classify_sr_crossings(
    g: np.ndarray, y: np.ndarray, g0: float, y0: float
) -> tuple[int, int]:
    """Split selection-relaying downward crossings of g0 into mechanisms.

    Returns (envelope_driven, switch_driven): crossings where the relay
    state y <= y0 was unchanged across the step versus crossings caused by
    the relay switching on or off.  The two counts partition the total of
    count_down_crossings(g, g0), taken on the same mask.
    """
    down = _entries(np.asarray(g) < g0)
    switched = (y[:-1] <= y0) != (y[1:] <= y0)
    n_switch = int(np.count_nonzero(down & switched))
    return int(np.count_nonzero(down)) - n_switch, n_switch


@dataclass(frozen=True)
class CrossingCounts:
    """Merge-friendly sufficient statistics of one or more traces."""

    n_samples: int = 0
    n_below: int = 0
    n_crossings: int = 0
    window: float = 0.0

    def merge(self, other: "CrossingCounts") -> "CrossingCounts":
        return CrossingCounts(
            self.n_samples + other.n_samples,
            self.n_below + other.n_below,
            self.n_crossings + other.n_crossings,
            self.window + other.window,
        )

    @staticmethod
    def from_mask(below: np.ndarray, dt: float) -> "CrossingCounts":
        """Counts of a below-level mask sampled every dt: samples below, and entries."""
        return CrossingCounts(
            n_samples=len(below),
            n_below=int(np.count_nonzero(below)),
            n_crossings=int(np.count_nonzero(_entries(below))),
            window=dt * len(below),
        )

    @staticmethod
    def from_trace(trace: FadingTrace, g0: float) -> "CrossingCounts":
        """Counts of trace.samples < g0; a NaN sample is not below, as in count_down_crossings."""
        return CrossingCounts.from_mask(trace.samples < g0, trace.dt)


@dataclass(frozen=True)
class EmpiricalMetrics:
    """Monte Carlo estimates of outage probability, rate, and duration.

    aod = time_below / crossings and aor = crossings / window, so
    aod * aor == p_out by construction.  Standard errors treat outage
    events as roughly independent (Poisson crossing counts); they are
    order-of-magnitude guides, not rigorous confidence intervals.
    """

    p_out: float
    n_down_crossings: int
    window: float
    aor: float
    aod: float | None
    se_p_out: float
    se_aor: float
    se_aod: float

    @staticmethod
    def from_counts(c: CrossingCounts) -> "EmpiricalMetrics":
        p = c.n_below / c.n_samples
        aor = c.n_crossings / c.window
        aod = p * c.window / c.n_crossings if c.n_crossings > 0 else None
        root_l = math.sqrt(c.n_crossings) if c.n_crossings > 0 else math.inf
        return EmpiricalMetrics(
            p_out=p,
            n_down_crossings=c.n_crossings,
            window=c.window,
            aor=aor,
            aod=aod,
            se_p_out=p * math.sqrt(2.0) / root_l,
            se_aor=aor / root_l if c.n_crossings > 0 else 0.0,
            se_aod=(aod or 0.0) * math.sqrt(2.0) / root_l,
        )


def estimate(trace: FadingTrace, g0: float) -> EmpiricalMetrics:
    """Empirical outage metrics of one equivalent-gain trace at threshold g0."""
    if len(trace.samples) == 0:
        raise ValueError("trace is empty")
    if not 0.0 <= g0 < math.inf:
        raise ValueError("g0 must be finite and nonnegative")
    return EmpiricalMetrics.from_counts(CrossingCounts.from_trace(trace, g0))


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    exact: float
    estimate: float
    rel_dev: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    protocol: Protocol
    exact: OutageMetrics
    empirical: EmpiricalMetrics
    entries: tuple[ValidationEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            out.append(
                f"{self.protocol.value:6s} {e.name:5s} exact={e.exact:.6e} "
                f"mc={e.estimate:.6e} dev={e.rel_dev * 100:+.2f}% tol={e.tol * 100:.0f}% {status}"
            )
        return out


def validate(
    scenario: Scenario,
    protocol: Protocol,
    cfg: TraceConfig,
    tol_op: float = 0.05,
    tol_aor: float = 0.10,
    tol_aod: float = 0.10,
    zero_c1: bool = False,
) -> ValidationReport:
    """Simulate the protocol and compare empirical metrics with the exact ones.

    Reads n_realizations independent triples of link traces, masks the
    samples where the equivalent gain is below the protocol's level
    (_outage_mask: sample by sample the same test as equivalent_gain(...)
    < level), merges the counts of each mask (CrossingCounts.from_mask),
    and reports relative deviations against the analytical values.  Each
    link is drawn on first use, for every realization in one batched
    generator call (bit-identical to drawing them one by one), and kept on
    the scenario for later calls under the same cfg (_trace_store), so
    every protocol of one scenario composes the same samples as
    gen_link_traces would draw; DF and SR also share one kept mask U < g0
    per realization, exactly np.hypot(x, z) < g0, decided on squares
    outside a band of relative half-width 2^-48 and by hypot inside it
    (_hypot_below).  Direct transmission reads only the S->D trace (its
    equivalent gain), so it needs no moving relay; AF, DF and SR add the
    S->R and R->D traces.  The kept arrays cost one (n_realizations, 3,
    n_samples) float64 array, allocated on the first call under a cfg even
    where only direct transmission (link 0) is drawn, plus n_realizations *
    n_samples bytes once DF or SR ran, until the scenario is dropped or
    validated under another cfg, which replaces them.  zero_c1 drops the AF
    relay gain constant to its high-SNR limit (the trace side only), which
    checks the idealised relayed-path composition; the masks read only g0,
    x0 and y0, which zero_c1 leaves as they are.
    """
    exact = metrics(scenario, protocol)
    _, th = scenario.derived
    th_mc = replace(th, c1=0.0) if zero_c1 else th
    dt = scenario_dt(scenario, cfg)
    store = _trace_store(scenario, cfg, dt, 1 if protocol is Protocol.DIRECT else 3)
    counts = CrossingCounts()
    for r in range(cfg.n_realizations):
        counts = counts.merge(CrossingCounts.from_mask(_outage_mask(protocol, store, r, th_mc), dt))
    emp = EmpiricalMetrics.from_counts(counts)

    def entry(name, ex, est, tol):
        if ex != 0.0:
            dev = (est - ex) / ex
        else:
            dev = 0.0 if est == 0.0 else np.inf
        return ValidationEntry(name, ex, est, dev, tol, abs(dev) <= tol)

    entries = [
        entry("op", exact.p_out, emp.p_out, tol_op),
        entry("aor", exact.aor, emp.aor, tol_aor),
    ]
    if exact.aod is not None and emp.aod is not None:
        entries.append(entry("aod", exact.aod, emp.aod, tol_aod))
    return ValidationReport(protocol=protocol, exact=exact, empirical=emp, entries=tuple(entries))


def write_trace(path: str | Path, trace: FadingTrace) -> None:
    """Dump a trace: 16-byte header (magic, dt, count), then float64 LE samples."""
    samples = np.ascontiguousarray(trace.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sdI", _TRACE_MAGIC, trace.dt, len(samples)))
        fh.write(samples.tobytes())


def read_trace(path: str | Path) -> FadingTrace:
    """Read a trace written by write_trace."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        magic, dt, count = struct.unpack("<4sdI", header)
        if magic != _TRACE_MAGIC:
            raise ValueError(f"not a trace file (magic {magic!r})")
        samples = np.frombuffer(fh.read(8 * count), dtype="<f8")
        if len(samples) != count:
            raise ValueError("trace file truncated")
    return FadingTrace(dt=dt, samples=samples.astype(np.float64))

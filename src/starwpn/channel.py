"""Fading primitives and the distribution of the combined reflected channel.

A surface with N elements produces the co-phased sum G = sum_i h_i * g_i of
products of two independent Nakagami-m envelopes.  Moment matching fits a
Gamma distribution to a single product term; the sum is then Gamma with the
shape scaled by N, and the received power after energy harvesting enters the
SNR through G**4.  This module owns the fitted law of G**4: its CDF,
survival, interval mass, tail quantiles and density, all written in the one
Gamma argument theta * x^(1/4).  Everything downstream (outage, throughput,
AoI) consumes the law through these functions.

Each fit keeps its support (GammaApprox.support, the TAIL_MASS quantiles the
closed forms integrate over) and two tables, each built on first use and
kept on the fit: cubic Hermite interpolants on knots uniform in ln x, from
the TAIL_MASS lower quantile x_lo, with the exact slopes of the log.  The
survival table (GammaApprox.survival_table) holds ln Q, Q(x) = Pr[G^4 > x],
with slope d ln Q / d ln x = -x f / Q, up to where Q = SF_TABLE_FLOOR.  The
CDF table (GammaApprox.cdf_table) holds ln F, F(x) = Pr[G^4 <= x], with
slope x f / F, up to the mode x_mode = (N k / theta)^4 of the Gamma
argument, where F is about one half.  One routine builds both: it checks
the table against quartic_gain_sf or quartic_gain_cdf at every segment
midpoint, to 1e-12 relative where the law is >= 1e-30 and 1e-10 below,
and doubles the segments from 4,096 up to 2^18 until that holds, keeping
every knot and midpoint it has evaluated.  A law that misses the bound
gets a table that calls scipy.  Past its top each table calls scipy; below
x_lo the survival table returns 1.0 exactly and the CDF table calls scipy.
The decodable-first kernel reads the survival table.  The SIC windows read
both through quartic_gain_table_mass, which splits at x_mode as
quartic_gain_mass does: F(w2) - F(w1) below it, with F = 1 - Q past x_mode,
and Q(w1) - Q(w2) above it.  quartic_gain_cdf, quartic_gain_sf,
quartic_gain_mass and the quantiles stay exact: they are the tables'
reference, and CDF + survival = 1 to 1e-14, which no interpolant meets.

ChannelLaw (N and the three fading laws) makes and keeps the two users'
fits, one when both users' fades share a law, so that every config given
the same law object shares them and their tables.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special

TAIL_MASS = 1e-28  # density mass left out in each tail of the quartic gain's support
SF_TABLE_FLOOR = 1e-300  # the survival table covers Pr[G^4 > x] down to this
_TABLE_SEGMENTS = (2**12, 2**18)  # the first and the largest segment count of a table
_TABLE_REL = 1e-12  # a table's relative error bound where its law >= _TABLE_DEEP ...
_TABLE_REL_DEEP = 1e-10  # ... and below it, where the rounding of ln x times the slope sets the floor
_TABLE_DEEP = 1e-30


@dataclass(frozen=True)
class NakagamiParams:
    """Nakagami-m envelope parameters.

    m      shape (finite, >= 0.5), integer values give the usual multipath model
    omega  spread E[X^2] (finite, > 0)
    """

    m: float
    omega: float

    def __post_init__(self):
        if not (0.5 <= self.m < np.inf):
            raise ValueError(f"Nakagami shape m must be finite and >= 0.5, got {self.m}")
        if not (0 < self.omega < np.inf):
            raise ValueError(f"Nakagami spread omega must be finite and > 0, got {self.omega}")


@dataclass(frozen=True)
class GammaApprox:
    """Gamma fit for one product term h*g of the cascaded channel.

    k           shape of the single-term fit (> 0)
    theta       rate of the fit, i.e. the density is ~ x^(k-1) e^(-theta x)
    n_elements  number of surface elements N; the co-phased sum has shape N*k
    """

    k: float
    theta: float
    n_elements: int

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"fitted shape k must be positive and finite, got {self.k}")
        if not (self.theta > 0 and np.isfinite(self.theta)):
            raise ValueError(f"fitted rate theta must be positive and finite, got {self.theta}")
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")

    @property
    def sum_shape(self) -> float:
        """Continuous shape N*k of the co-phased sum."""
        return self.n_elements * self.k

    @cached_property
    def support(self) -> tuple:
        """(x_lo, x_hi), the TAIL_MASS quantiles of G^4 that the closed forms integrate over, kept on this fit."""
        return quartic_gain_quantiles(self)

    @cached_property
    def survival_table(self) -> "LawTable":
        """The checked table of Pr[G^4 > x], built on the first read and kept on this fit."""
        return _build_survival_table(self)

    @cached_property
    def cdf_table(self) -> "LawTable":
        """The checked table of Pr[G^4 <= x] up to the mode, built on the first read and kept on this fit."""
        return _build_cdf_table(self)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule (weight e^(-x^2) on R)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def cascade_moment(n: float, link1: NakagamiParams, link2: NakagamiParams) -> float:
    """E[(h*g)^n] for independent Nakagami envelopes h and g.

    Each envelope has E[X^n] = Gamma(m + n/2) / Gamma(m) * (omega/m)^(n/2);
    the product moment factorizes.  Evaluated in log space so large n and
    large m stay finite.
    """
    lam = np.sqrt(link1.m * link2.m / (link1.omega * link2.omega))
    log_mom = (
        special.gammaln(link1.m + n / 2.0)
        - special.gammaln(link1.m)
        + special.gammaln(link2.m + n / 2.0)
        - special.gammaln(link2.m)
    )
    return float(np.exp(log_mom - n * np.log(lam)))


def gamma_fit(link1: NakagamiParams, link2: NakagamiParams, n_elements: int) -> GammaApprox:
    """Moment-match a Gamma(k, rate theta) to one product term h*g.

    k and theta are chosen so the first two moments of the fit equal the
    exact cascade moments.  A degenerate (zero variance) cascade cannot be
    matched and is rejected.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    mu1 = cascade_moment(1.0, link1, link2)
    mu2 = cascade_moment(2.0, link1, link2)
    var = mu2 - mu1 * mu1
    if var <= 0:
        raise ValueError("cascade has nonpositive variance, moment match impossible")
    k = mu1 * mu1 / var
    theta = mu1 / var
    return GammaApprox(k=k, theta=theta, n_elements=n_elements)


@dataclass(frozen=True)
class ChannelLaw:
    """The law of both users' combined gains: N and the three Nakagami fading laws.

    Its Gamma fits are made on first read and kept, fit_r being fit_t when
    both users' fades share one law, so that the fit's tables are built
    once.  Equal laws compare and hash equal, so a run can keep one law
    object per distinct law and hand it to every system.SystemConfig that
    has it.
    """

    n_elements: int
    fading_ris: NakagamiParams
    fading_t: NakagamiParams
    fading_r: NakagamiParams

    @cached_property
    def fit_t(self) -> GammaApprox:
        return gamma_fit(self.fading_ris, self.fading_t, self.n_elements)

    @cached_property
    def fit_r(self) -> GammaApprox:
        if self.fading_r == self.fading_t:
            return self.fit_t
        return gamma_fit(self.fading_ris, self.fading_r, self.n_elements)


def _quartic_arg(fit: GammaApprox, x) -> np.ndarray:
    """The Gamma argument theta * x^(1/4) of the quartic gain at x; negative x maps to 0."""
    return fit.theta * np.power(np.maximum(np.asarray(x, dtype=float), 0.0), 0.25)


def quartic_gain_cdf(fit: GammaApprox, x) -> np.ndarray:
    """CDF of G^4 where G is the co-phased sum, continuous-shape form.

    Pr[G^4 <= x] = P(N*k, theta * x^(1/4)) with P the regularized lower
    incomplete gamma function.  Vectorized in x; negative x maps to 0.
    """
    return special.gammainc(fit.sum_shape, _quartic_arg(fit, x))


def quartic_gain_sf(fit: GammaApprox, x) -> np.ndarray:
    """Survival Pr[G^4 > x], formed directly, so it stays positive where 1 - CDF underflows."""
    return special.gammaincc(fit.sum_shape, _quartic_arg(fit, x))


def quartic_gain_mass(fit: GammaApprox, w1, w2) -> np.ndarray:
    """Pr[w1 < G^4 <= w2] = F(w2) - F(w1), stable in both tails.

    Deep in the right tail both CDFs are 1 up to roundoff, so the difference
    is formed from survivals there, and only there.  F(w1) = 0 for w1 <= 0
    and is not evaluated; empty intervals (w1 >= w2) and roundoff negatives
    clamp to 0.
    """
    z1, z2 = np.broadcast_arrays(_quartic_arg(fit, w1), _quartic_arg(fit, w2))
    nk = fit.sum_shape
    right = np.minimum(z1, z2) > nk
    left = ~right
    lower = left & (z1 > 0.0)
    out = np.empty(z1.shape)
    out[right] = special.gammaincc(nk, z1[right]) - special.gammaincc(nk, z2[right])
    out[left] = special.gammainc(nk, z2[left])
    out[lower] -= special.gammainc(nk, z1[lower])
    return np.maximum(out, 0.0)


def quartic_gain_table_mass(fit: GammaApprox, w1, w2) -> np.ndarray:
    """Pr[w1 < G^4 <= w2] from the fit's two tables, split where quartic_gain_mass splits it.

    Past the mode x_mode = (N k / theta)^4, the top of the CDF table, the
    mass is Q(w1) - Q(w2) from the survival table.  Below it, it is
    F(w2) - F(w1), with F from the CDF table up to x_mode and 1 - Q past
    it, and F(w1) = 0 for w1 <= 0, which is not evaluated.  So scipy is
    called only for ends below the lower quantile x_lo or past the survival
    table's top (and for a law whose table missed its bound).  Empty
    intervals (w1 >= w2) and roundoff negatives give 0.
    """
    w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
    cdf, sf = fit.cdf_table, fit.survival_table
    out = np.zeros(w1.shape)
    live = w1 < w2
    right = live & (w1 > cdf.x_top)
    if right.any():
        out[right] = sf(w1[right]) - sf(w2[right])
    left = live & ~right
    if left.any():
        a, b = w1[left], w2[left]
        past = b > cdf.x_top
        mass = np.empty(b.shape)
        mass[past] = 1.0 - sf(b[past])
        mass[~past] = cdf(b[~past])
        above = a > 0.0
        mass[above] -= cdf(a[above])
        out[left] = mass
    return np.maximum(out, 0.0, out=out)


def quartic_gain_quantiles(fit: GammaApprox, mass: float = TAIL_MASS):
    """(x_lo, x_hi) with Pr[G^4 < x_lo] = Pr[G^4 > x_hi] = mass; by default the support the closed forms use."""
    with np.errstate(over="ignore", under="ignore"):  # an extreme fit maps to 0 or inf, which callers reject
        x_lo = (special.gammaincinv(fit.sum_shape, mass) / fit.theta) ** 4
        return float(x_lo), float(quartic_gain_isf(fit, mass))


def quartic_gain_isf(fit: GammaApprox, mass) -> np.ndarray:
    """x with Pr[G^4 > x] = mass, vectorized; mass 0 maps to inf."""
    return (special.gammainccinv(fit.sum_shape, mass) / fit.theta) ** 4


def quartic_gain_pdf(fit: GammaApprox, x) -> np.ndarray:
    """Density of G^4, the derivative of quartic_gain_cdf.

    f(x) = theta^nk / (4 Gamma(nk)) * x^((nk-4)/4) * e^(-theta x^(1/4)) with
    nk = N*k the continuous shape: the change of variables of a
    Gamma(nk, theta) density under t -> t^4.
    """
    return np.exp(log_quartic_gain_pdf(fit, x))


def log_quartic_gain_pdf(fit: GammaApprox, x) -> np.ndarray:
    """Log of quartic_gain_pdf, safe for extreme arguments (x > 0)."""
    x = np.asarray(x, dtype=float)
    nk = fit.sum_shape
    xs = np.maximum(x, 1e-300)
    return (
        nk * np.log(fit.theta)
        - _quartic_arg(fit, xs)
        + (nk - 4.0) / 4.0 * np.log(xs)
        - np.log(4.0)
        - special.gammaln(nk)
    )


@dataclass(frozen=True, eq=False)
class LawTable:
    """One law of G^4, Pr[G^4 > x] or Pr[G^4 <= x], from a checked cubic Hermite table of its log over u = ln x.

    law is the exact reference, quartic_gain_sf or quartic_gain_cdf.  Knot j
    sits at u = u0 + j * step, u0 = ln x_lo with x_lo the TAIL_MASS lower
    quantile, up to x_top.  Segment j holds the Horner coefficients
    coef[:, j] of ln law in t = (u - u0) / step - j, from the knot values and
    the exact slopes d ln law / d ln x, -x f / Q for the survival Q and
    x f / F for the CDF F.  Past x_top, below x_lo
    when exact_below (the CDF table), and everywhere when coef is None (a
    law whose table missed its bound), it calls law; below x_lo otherwise
    (the survival table) it returns its value there, 1.0 exactly, as
    quartic_gain_sf does.
    """

    fit: GammaApprox
    law: Callable
    x_lo: float
    x_top: float
    u0: float
    step: float
    coef: np.ndarray  # (4, segments), or None
    exact_below: bool

    def __call__(self, x) -> np.ndarray:
        """The law at every element of the array x."""
        if self.coef is None:
            return self.law(self.fit, x)
        x = np.asarray(x, dtype=float)
        s = (np.log(np.clip(x, self.x_lo, self.x_top)) - self.u0) / self.step
        j = s.astype(np.intp)
        np.minimum(j, self.coef.shape[1] - 1, out=j)
        s -= j
        c0, c1, c2, c3 = self.coef
        out = np.take(c3, j)
        out *= s
        out += np.take(c2, j)
        out *= s
        out += np.take(c1, j)
        out *= s
        out += np.take(c0, j)
        np.exp(out, out=out)
        exact = x > self.x_top
        if self.exact_below:
            exact |= x < self.x_lo
        if exact.any():
            out[exact] = self.law(self.fit, x[exact])
        return out


def _build_survival_table(fit: GammaApprox) -> LawTable:
    """The survival table of a fit, from x_lo up to where Pr[G^4 > x] = SF_TABLE_FLOOR (_build_table)."""
    with np.errstate(over="ignore"):
        x_top = float(quartic_gain_isf(fit, SF_TABLE_FLOOR))
    return _build_table(fit, quartic_gain_sf, -1.0, x_top, exact_below=False)


def _build_cdf_table(fit: GammaApprox) -> LawTable:
    """The CDF table of a fit, from x_lo up to the mode (N k / theta)^4 of the Gamma argument (_build_table)."""
    with np.errstate(over="ignore"):
        x_mode = float(np.power(fit.sum_shape / fit.theta, 4.0))
    return _build_table(fit, quartic_gain_cdf, 1.0, x_mode, exact_below=True)


def _build_table(fit: GammaApprox, law, sign: float, x_top: float, exact_below: bool) -> LawTable:
    """The table of law (sign -1 for a survival, +1 for a CDF) on [x_lo, x_top], checked at every segment midpoint.

    The relative error against law must stay within _TABLE_REL where the
    law is >= _TABLE_DEEP and within _TABLE_REL_DEEP below; the segment
    count doubles from 4,096 up to 2^18 until it does.  A doubling keeps
    every value it has: the old knots are the new even knots and the old
    midpoints the new odd ones, bit for bit (u0 + (h/2)(2j + 1) rounds as
    u0 + h(j + 1/2) does), so only the density at the old midpoints and the
    law at the new ones are evaluated.  A law that never meets the bound,
    or whose range is not finite, gets a table without coefficients, which
    calls law.
    """
    x_lo = fit.support[0]
    fallback = LawTable(fit, law, x_lo, x_top, 0.0, 0.0, None, exact_below)
    if not 0.0 < x_lo < x_top < np.inf:
        return fallback
    u0 = float(np.log(x_lo))
    span = float(np.log(x_top)) - u0
    segments = _TABLE_SEGMENTS[0]
    u = u0 + (span / segments) * np.arange(segments + 1)  # the lookup's own grid, not a linspace
    x = np.exp(u)
    log_v, slope = _log_law_and_slope(fit, u, x, law(fit, x))
    while True:
        step = span / segments
        d = sign * step * slope  # d ln law / dt
        dv = np.diff(log_v)
        coef = np.stack((log_v[:-1], d[:-1], 3.0 * dv - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * dv))
        table = LawTable(fit, law, x_lo, x_top, u0, step, coef, exact_below)
        u_mid = u0 + step * (np.arange(segments) + 0.5)
        mid = np.exp(u_mid)
        v = law(fit, mid)
        if np.all(np.abs(table(mid) / v - 1.0) <= np.where(v >= _TABLE_DEEP, _TABLE_REL, _TABLE_REL_DEEP)):
            return table
        if segments == _TABLE_SEGMENTS[1]:
            return fallback
        mid_log_v, mid_slope = _log_law_and_slope(fit, u_mid, mid, v)  # the doubled grid's odd knots
        log_v, slope = _interleave(log_v, mid_log_v), _interleave(slope, mid_slope)
        segments *= 2


def _log_law_and_slope(fit: GammaApprox, u: np.ndarray, x: np.ndarray, v: np.ndarray):
    """ln v and x f / v at x = e^u, given the law's value v there; |d ln v / d ln x| for a CDF or a survival."""
    log_v = np.log(v)
    return log_v, np.exp(u + log_quartic_gain_pdf(fit, x) - log_v)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The values of a doubled grid from those at its even and at its odd points."""
    out = np.empty(even.size + odd.size)
    out[0::2], out[1::2] = even, odd
    return out


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite nodes/weights of the given order (1 <= order <= 200)."""
    if not (1 <= order <= 200):
        raise ValueError(f"Gauss-Hermite order must be in [1, 200], got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def combined_gain_sample(
    link1: NakagamiParams,
    link2: NakagamiParams,
    n_elements: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Draw `count` realizations of the co-phased sum G = sum_i h_i g_i.

    Exact simulation of the cascade (no Gamma approximation); used to
    validate the fitted distribution.  Independent of the Monte Carlo
    oracle's sampler, so it can check it.  Works in place, so memory peaks
    at two (count, n_elements) arrays.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shape = (count, n_elements)
    h = np.sqrt(rng.gamma(link1.m, link1.omega / link1.m, size=shape))
    g = rng.gamma(link2.m, link2.omega / link2.m, size=shape)
    h *= np.sqrt(g, out=g)
    del g
    return h.sum(axis=1)

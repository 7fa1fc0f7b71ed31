"""Fading primitives and the distribution of the combined reflected channel.

A surface with N elements produces the co-phased sum G = sum_i h_i * g_i of
products of two independent Nakagami-m envelopes.  Moment matching fits a
Gamma distribution to a single product term; the sum is then Gamma with the
shape scaled by N, and the received power after energy harvesting enters the
SNR through G**4.  This module owns the fitted law of G**4, and the law is
one object: a GammaApprox and its methods, all written in the one Gamma
argument theta * x^(1/4).  cdf, sf, mass (of an interval), quantiles, isf
and log_pdf are exact; table_mass reads the fit's tables.  Everything
downstream (outage, throughput, AoI) consumes the law through these methods
and never reads the fit's parameters.

Each fit keeps its support (GammaApprox.support, the TAIL_MASS quantiles the
closed forms integrate over) and two tables, each built on first use and
kept on the fit: cubic Hermite interpolants on knots uniform in ln x, from
the TAIL_MASS lower quantile x_lo, with the exact slopes of the log.  The
survival table (GammaApprox.survival_table) holds ln Q, Q(x) = Pr[G^4 > x],
with slope d ln Q / d ln x = -x f / Q, up to where Q = SF_TABLE_FLOOR.  The
CDF table (GammaApprox.cdf_table) holds ln F, F(x) = Pr[G^4 <= x], with
slope x f / F, up to the mode x_mode = (N k / theta)^4 of the Gamma
argument, where F is about one half.  One routine, _build_table, builds
both: it checks the table against the fit's sf or cdf at every segment
midpoint, to 1e-12 relative where the law is >= 1e-30 and 1e-10 below,
and doubles the segments from 4,096 up to 2^18 until that holds, keeping
every knot and midpoint it has evaluated.  A law that misses the bound
gets a table that calls the exact law.  Past its top each table calls the
exact law; below x_lo the survival table returns 1.0 exactly and the CDF
table calls the exact law.  The decodable-first kernel reads the survival
table, and so does the layout of its integrals: the survival at a tail's
start, and the tail's top by inverting the table's cubic on its segment
(GammaApprox.table_isf).  The SIC windows read both tables through
table_mass, which splits at x_mode as mass does: F(w2) - F(w1) below it,
with F = 1 - Q past x_mode, and Q(w1) - Q(w2) above it.  cdf, sf, mass,
isf and the quantiles stay exact: they are the tables' reference, and
CDF + survival = 1 to 1e-14, which no interpolant meets.

The exact law is the regularized incomplete gamma function of shape N k,
P(N k, z) and Q(N k, z) and their inverses, evaluated by this module's own
numpy routines (_IncGamma, at its end): a power series, a continued
fraction and, for N k >= 20 near z = N k, Temme's uniform expansion, so no
module of the package imports scipy and `run` and `optimize` never load it.
Against 40-digit values (tests/gamma_reference.json, from mpmath) the
smaller tail is within 1e-14 relative for N k up to 200 and within 4e-14 up
to 800, from the 1e-300 lower to the 1e-300 upper quantile.  Large shapes
are where scipy's gammaincc is least accurate (off by up to 1.2e-12 near
N k = 700, where it used to keep some laws from building a table).  So the
tables' values carry their build bound, 1e-12 relative where the law is at
least 1e-30 and 1e-10 below, plus the routines' 4e-14 at most.

ChannelLaw (N and the three fading laws) makes and keeps the two users'
fits, one when both users' fades share a law, so that every config given
the same law object shares them and their tables.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

TAIL_MASS = 1e-28  # density mass left out in each tail of the quartic gain's support
SF_TABLE_FLOOR = 1e-300  # the survival table covers Pr[G^4 > x] down to this
_TABLE_SEGMENTS = (2**12, 2**18)  # the first and the largest segment count of a table
_TABLE_REL = 1e-12  # a table's relative error bound where its law >= _TABLE_DEEP ...
_TABLE_REL_DEEP = 1e-10  # ... and below it, where the rounding of ln x times the slope sets the floor
_TABLE_DEEP = 1e-30


def _require_int(name: str, value) -> None:
    """Raise ValueError unless value is an integer (numbers.Integral, numpy's included); a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
    """Gamma fit for one product term h*g of the cascaded channel, and the law of G^4 it gives.

    k           shape of the single-term fit (> 0)
    theta       rate of the fit, i.e. the density is ~ x^(k-1) e^(-theta x)
    n_elements  number of surface elements N, an integer >= 1; the co-phased sum has shape N*k
    """

    k: float
    theta: float
    n_elements: int

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"fitted shape k must be positive and finite, got {self.k}")
        if not (self.theta > 0 and np.isfinite(self.theta)):
            raise ValueError(f"fitted rate theta must be positive and finite, got {self.theta}")
        _require_int("n_elements", self.n_elements)
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")

    @property
    def sum_shape(self) -> float:
        """Continuous shape N*k of the co-phased sum."""
        return self.n_elements * self.k

    @cached_property
    def support(self) -> tuple:
        """(x_lo, x_hi), the TAIL_MASS quantiles of G^4 that the closed forms integrate over, kept on this fit."""
        return self.quantiles()

    @cached_property
    def survival_table(self) -> "LawTable":
        """The checked table of Pr[G^4 > x] from x_lo up to where it is SF_TABLE_FLOOR, built on first read and kept."""
        with np.errstate(over="ignore"):
            x_top = float(self.isf(SF_TABLE_FLOOR))
        return _build_table(self, self.sf, -1.0, x_top, exact_below=False)

    @cached_property
    def cdf_table(self) -> "LawTable":
        """The checked table of Pr[G^4 <= x] from x_lo up to the mode (N k / theta)^4, built on first read and kept."""
        with np.errstate(over="ignore"):
            x_mode = float(np.power(self.sum_shape / self.theta, 4.0))
        return _build_table(self, self.cdf, 1.0, x_mode, exact_below=True)

    def _arg(self, x) -> np.ndarray:
        """The Gamma argument theta * x^(1/4) of the quartic gain at x; negative x maps to 0."""
        return self.theta * np.power(np.maximum(np.asarray(x, dtype=float), 0.0), 0.25)

    @cached_property
    def _gamma(self) -> "_IncGamma":
        """The incomplete gamma functions of shape N*k, with their per-shape constants, kept on this fit."""
        return _IncGamma(self.sum_shape)

    def cdf(self, x) -> np.ndarray:
        """CDF of G^4 where G is the co-phased sum, continuous-shape form.

        Pr[G^4 <= x] = P(N*k, theta * x^(1/4)) with P the regularized lower
        incomplete gamma function.  Vectorized in x; negative x maps to 0.
        """
        return self._gamma.tails(self._arg(x))[0]

    def sf(self, x) -> np.ndarray:
        """Survival Pr[G^4 > x], formed directly, so it stays positive where 1 - CDF underflows."""
        return self._gamma.tails(self._arg(x))[1]

    def mass(self, w1, w2) -> np.ndarray:
        """Pr[w1 < G^4 <= w2] = F(w2) - F(w1), stable in both tails.

        Deep in the right tail both CDFs are 1 up to roundoff, so the difference
        is formed from survivals there, and only there.  F(w1) = 0 for w1 <= 0
        and is not evaluated; empty intervals (w1 >= w2) and roundoff negatives
        clamp to 0.
        """
        z1, z2 = np.broadcast_arrays(self._arg(w1), self._arg(w2))
        (p1, q1), (p2, q2) = self._gamma.tails(z1), self._gamma.tails(z2)
        return np.maximum(np.where(np.minimum(z1, z2) > self.sum_shape, q1 - q2, p2 - p1), 0.0)

    def table_mass(self, w1, w2) -> np.ndarray:
        """Pr[w1 < G^4 <= w2] from the two tables, split where mass splits it.

        Past the mode x_mode = (N k / theta)^4, the top of the CDF table, the
        mass is Q(w1) - Q(w2) from the survival table.  Below it, it is
        F(w2) - F(w1), with F from the CDF table up to x_mode and 1 - Q past
        it, and F(w1) = 0 for w1 <= 0, which is not evaluated.  So the exact
        law is called only for ends below the lower quantile x_lo or past the
        survival table's top (and for a law whose table missed its bound), in
        one call per table.  Empty intervals (w1 >= w2) and roundoff negatives
        give 0.
        """
        w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
        cdf, sf = self.cdf_table, self.survival_table
        out = np.zeros(w1.shape)
        live = w1 < w2
        right = live & (w1 > cdf.x_top)
        left = live & ~right
        a, b = w1[left], w2[left]
        past, above = b > cdf.x_top, a > 0.0
        # one call of each table, so that the ends they hand to the exact law go in one call too
        ends = np.concatenate((w1[right], w2[right], b[past]))
        q = sf(ends) if ends.size else ends
        ends = np.concatenate((b[~past], a[above]))
        p = cdf(ends) if ends.size else ends
        n, m = np.count_nonzero(right), b.size - np.count_nonzero(past)
        out[right] = q[:n] - q[n : 2 * n]
        mass = np.empty(b.shape)
        mass[past] = 1.0 - q[2 * n :]
        mass[~past] = p[:m]
        mass[above] -= p[m:]
        out[left] = mass
        return np.maximum(out, 0.0, out=out)

    def table_isf(self, mass) -> np.ndarray:
        """x with Pr[G^4 > x] = mass by the survival table, its cubic inverted on the segment; isf past its range."""
        return self.survival_table.inverse(mass, self.isf)

    def quantiles(self, mass: float = TAIL_MASS):
        """(x_lo, x_hi) with Pr[G^4 < x_lo] = Pr[G^4 > x_hi] = mass; by default the support the closed forms use."""
        with np.errstate(over="ignore", under="ignore"):  # an extreme fit maps to 0 or inf, which callers reject
            x_lo = (self._gamma.inverse(mass, upper=False) / self.theta) ** 4
            return float(x_lo), float(self.isf(mass))

    def isf(self, mass) -> np.ndarray:
        """x with Pr[G^4 > x] = mass, vectorized; mass 0 maps to inf."""
        return (self._gamma.inverse(mass, upper=True) / self.theta) ** 4

    def log_pdf(self, x) -> np.ndarray:
        """Log of the density of G^4, the derivative of cdf; safe for extreme arguments (x > 0).

        f(x) = theta^nk / (4 Gamma(nk)) * x^((nk-4)/4) * e^(-theta x^(1/4)) with
        nk = N*k the continuous shape: the change of variables of a
        Gamma(nk, theta) density under t -> t^4.
        """
        nk = self.sum_shape
        u = np.log(np.maximum(np.asarray(x, dtype=float), 1e-300))
        out = np.exp(0.25 * u)  # x^(1/4), from the log the power term needs anyway
        out *= -self.theta
        out += (nk - 4.0) / 4.0 * u
        out += nk * math.log(self.theta) - math.log(4.0) - math.lgamma(nk)
        return out


def cascade_moment(n: float, link1: NakagamiParams, link2: NakagamiParams) -> float:
    """E[(h*g)^n] for independent Nakagami envelopes h and g.

    Each envelope has E[X^n] = Gamma(m + n/2) / Gamma(m) * (omega/m)^(n/2);
    the product moment factorizes.  Evaluated in log space so large n and
    large m stay finite.
    """
    lam = np.sqrt(link1.m * link2.m / (link1.omega * link2.omega))
    log_mom = (
        math.lgamma(link1.m + n / 2.0)
        - math.lgamma(link1.m)
        + math.lgamma(link2.m + n / 2.0)
        - math.lgamma(link2.m)
    )
    return float(np.exp(log_mom - n * np.log(lam)))


def gamma_fit(link1: NakagamiParams, link2: NakagamiParams, n_elements: int) -> GammaApprox:
    """Moment-match a Gamma(k, rate theta) to one product term h*g.

    k and theta are chosen so the first two moments of the fit equal the
    exact cascade moments.  A degenerate (zero variance) cascade cannot be
    matched and is rejected.
    """
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
    once.  Equal laws compare and hash equal.  Every system.SystemConfig
    holds its law as `config.law`, and configs derived from one by
    dataclasses.replace share it while N and the fading laws stay; both
    engines group cells by it and read the fits and fading laws from it.
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


@dataclass(frozen=True, eq=False)
class LawTable:
    """One law of G^4, Pr[G^4 > x] or Pr[G^4 <= x], from a checked cubic Hermite table of its log over u = ln x.

    law is the exact reference, the fit's method sf or cdf, which the
    module's incomplete gamma routines evaluate.  Knot j sits at
    u = u0 + j * step, u0 = ln x_lo with x_lo the TAIL_MASS lower quantile,
    up to x_top.  Segment j holds the Horner coefficients coef[:, j] of
    ln law in t = (u - u0) / step - j, from the knot values and the exact
    slopes d ln law / d ln x, -x f / Q for the survival Q and x f / F for
    the CDF F; a lookup forms t as (u - (u0 + j step)) / step, the knot as
    the build formed it, so that t's rounding does not grow with j.  levels
    holds -ln law at the knots.  Past x_top, below x_lo when exact_below (the
    CDF table), and everywhere when coef is None (a law whose table missed
    its bound), it calls law; below x_lo otherwise (the survival table) it
    returns its value there, 1.0 exactly, as sf does.  Its values are within
    the build bound of law, which is within 4e-14 of the true law (module
    docstring).
    """

    law: Callable
    x_lo: float
    x_top: float
    u0: float
    step: float
    coef: np.ndarray  # (4, segments), or None
    exact_below: bool
    levels: np.ndarray = None  # -ln law at the segments + 1 knots, ascending for a survival

    def __call__(self, x) -> np.ndarray:
        """The law at every element of the array x."""
        if self.coef is None:
            return self.law(x)
        x = np.asarray(x, dtype=float)
        s = np.log(np.clip(x, self.x_lo, self.x_top))
        j = ((s - self.u0) / self.step).astype(np.intp)
        np.minimum(j, self.coef.shape[1] - 1, out=j)
        knot = j * self.step  # the knot's u0 + j step, as the build formed it, so that s - knot is exact
        knot += self.u0
        s -= knot
        s /= self.step
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
            out[exact] = self.law(x[exact])
        return out

    def inverse(self, v, exact: Callable) -> np.ndarray:
        """x where a survival table equals v, elementwise: the cubic of v's segment inverted by three Newton steps.

        The segment is found by searchsorted on the knots' levels, and the
        steps start from the line between its two knots.  Where v lies
        outside the knots' range, or the table has no coefficients, exact(v)
        is returned, the law's exact inverse.
        """
        v = np.asarray(v, dtype=float)
        if self.coef is None:
            return exact(v)
        with np.errstate(divide="ignore"):
            level = -np.log(v)
        levels = self.levels
        inside = (level > levels[0]) & (level <= levels[-1])
        if inside.all():
            return self._invert(level)
        out = exact(v)  # the exact inverse for every element, then the table's where it reaches
        out[inside] = self._invert(level[inside])
        return out

    def _invert(self, level):
        """x where -ln law = level, levels[0] < level <= levels[-1], so that level lies in segment j's (lo, hi]."""
        j = np.searchsorted(self.levels, level)
        j -= 1
        lo, hi = self.levels[j], self.levels[j + 1]
        t = (level - lo) / (hi - lo)
        c0, c1, c2, c3 = np.take(self.coef, j, axis=1)
        c0 += level  # the root of c0 + c1 t + c2 t^2 + c3 t^3 = -level
        for _ in range(3):
            t -= (((c3 * t + c2) * t + c1) * t + c0) / ((3.0 * c3 * t + 2.0 * c2) * t + c1)
        t += j
        t *= self.step
        t += self.u0
        return np.exp(t, out=t)


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
    fallback = LawTable(law, x_lo, x_top, 0.0, 0.0, None, exact_below)
    if not 0.0 < x_lo < x_top < np.inf:
        return fallback
    u0 = float(np.log(x_lo))
    span = float(np.log(x_top)) - u0
    segments = _TABLE_SEGMENTS[0]
    u = u0 + (span / segments) * np.arange(segments + 1)  # the lookup's own grid, not a linspace
    x = np.exp(u)
    log_v, slope = _log_law_and_slope(fit, u, x, law(x))
    while True:
        step = span / segments
        d = sign * step * slope  # d ln law / dt
        dv = np.diff(log_v)
        coef = np.stack((log_v[:-1], d[:-1], 3.0 * dv - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * dv))
        table = LawTable(law, x_lo, x_top, u0, step, coef, exact_below, -log_v)
        u_mid = u0 + step * (np.arange(segments) + 0.5)
        mid = np.exp(u_mid)
        v = law(mid)
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
    return log_v, np.exp(u + fit.log_pdf(x) - log_v)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The values of a doubled grid from those at its even and at its odd points."""
    out = np.empty(even.size + odd.size)
    out[0::2], out[1::2] = even, odd
    return out


def gauss_hermite_rule(order: int) -> tuple:
    """Gauss-Hermite (nodes, weights) of the given order (1 <= order <= 200), weight e^(-x^2) on R.

    No closed form reads one.  Only cli's check of [quadrature] gh_order and
    perfbench/worker.py's set-up step, which skips its config timing without
    it, build one; all three go together (ROADMAP item 8).
    """
    if not (1 <= order <= 200):
        raise ValueError(f"Gauss-Hermite order must be in [1, 200], got {order}")
    return np.polynomial.hermite.hermgauss(order)


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


# ----------------------------------------------------------------------
# the regularized incomplete gamma function P(a, x), Q(a, x) and its inverses
# ----------------------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for exact products
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # ln 2 = hi + lo, hi with 32 bits
_ATANH = 1.0 / np.arange(19.0, 2.0, -2.0)  # 1/19 ... 1/3, for Horner: atanh(s) / s - 1 = s^2 (1/3 + s^2/5 + ...)
_EPS = 2.0**-53
_X_MAX = 1e290  # Q(a, x) = 0 from here on, and Dekker's split would overflow
_TEMME_A = 20.0  # Temme's expansion serves a >= this, for x / a inside _TEMME_WINDOW
_TEMME_WINDOW = (0.7, 1.3)
_TERMS = 256  # the most terms of a series or continued fraction, whatever a is
_BANDS = 8  # bands of x / top, halving, each with the series degree its top needs
_NEWTON = 12  # the most Newton steps of an inverse
_NEWTON_TOL = 1e-11  # an inverse's last relative step
_ERFCX_K = 3.75  # _ERFCX is the Chebyshev series of (K + z) erfcx(z) in t = (z - K) / (z + K)
# Taylor coefficients in eta of Temme's C_k(eta), k = 0..11, from tests/make_gamma_reference.py
_TEMME = np.array((
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073, 0.0003527336860670194,
     -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
     -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
     1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
     -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
     1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06,
     6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10,
     -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847,
     6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06,
     -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
     -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09,
     3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
     -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237,
     -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05,
     5.7876949497350525e-06, 4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
     -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
     0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05, 4.557909867922708e-09,
     -1.0595271125805195e-05, 6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
     3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328, -0.0006401475260262758,
     0.00027750107634328704, 1.819700838046515e-07, -8.479507117068503e-05, 6.105192082501531e-05,
     -2.1073920183404862e-05, -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
     8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07),
    (0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07,
     -0.0005087450129309319, 0.00042735056665392886, -0.00016858853767910798, -8.1301893922785e-09,
     4.5284402370562144e-05, -3.127053674781734e-05, 1.044986828530338e-05, 4.8435226265680926e-11,
     -2.148256587345626e-06, 1.329369701097492e-06, -4.029569309210103e-07),
    (0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276, 0.00213896861856891,
     -0.0010108559391263003, -3.99127055299192e-07, 0.0003623502508476469, -0.00028143901463712157,
     0.00010449513336495887, 2.12114184918303e-09, -2.5779417251947842e-05, 1.7281818956040464e-05,
     -5.641377387290428e-06, -1.1024320105775655e-11, 1.1223224418895174e-06),
))
# Chebyshev coefficients of (K + z) erfcx(z) in t = (z - K) / (z + K), from tests/make_gamma_reference.py
_ERFCX = np.array((
    1.5802719754089016, -1.4155291636062, 0.5310168126584589, -0.16770511573096467, 0.044234890018353,
    -0.009506139167741073, 0.0015696224296742666, -0.0001678661262168746, 1.971677029425334e-06,
    3.086971620657423e-06, -4.936920694378021e-07, -9.53473146659699e-09, 1.355826598349273e-08,
    -1.0830423386818938e-09, -2.9040184105173024e-10, 5.307787477918412e-11, 5.780745301094449e-12,
    -1.993785314415682e-12, -1.1724828156626574e-13, 7.242772425819852e-14, 2.8807292328713077e-15,
    -2.704740368320276e-15, -1.0963030130900087e-16, 1.0501564927720586e-16, 6.164032198401936e-18,
))


class ConvergenceError(ArithmeticError):
    """A series, continued fraction or Newton iteration of the incomplete gamma function missed its tolerance."""


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _horner(coef, t):
    """The polynomial with coefficients coef, highest degree first, at t."""
    out = np.full_like(t, coef[0])
    for c in coef[1:]:
        out *= t
        out += c
    return out


def _log_dd(x):
    """ln x as a double-double (hi, lo) for finite x > 0, to about 1e-16 absolute: x = 2^k m, ln m = log1p(m - 1)."""
    m, k = np.frexp(x)
    low = m < 0.7071067811865476
    m[low] *= 2.0
    k -= low
    hi, lo = _two_sum(k * _LN2_HI, np.log1p(m - 1.0))
    lo += k * _LN2_LO
    return hi, lo


def _log1pmx(mu):
    """ln(1 + mu) - mu for |mu| <= 1/2 to a few ulp: -mu^2 / (2 + mu) + 2 s^3 (1/3 + s^2/5 + ...), s = mu / (2 + mu)."""
    s = mu / (2.0 + mu)
    w = s * s
    return 2.0 * s * w * _horner(_ATANH, w) - mu * mu / (2.0 + mu)


def _erfcx(z):
    """e^(z^2) erfc(z) for z >= 0, by Clenshaw's sum of the Chebyshev series _ERFCX."""
    t = (z - _ERFCX_K) / (z + _ERFCX_K)
    t2 = 2.0 * t
    b1, b2 = np.zeros_like(t), np.zeros_like(t)
    for c in _ERFCX[:0:-1]:
        b1, b2 = t2 * b1 - b2 + c, b1
    return (t * b1 - b2 + _ERFCX[0]) / (_ERFCX_K + z)


def _continued_fraction(a, x):
    """Legendre's continued fraction 1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)) by modified Lentz, x >= a + 1.

    An element stops at the first even step whose factor is within 2^-52
    of 1, so its value does not depend on the other elements.
    """
    out = np.empty_like(x)
    if not x.size:
        return out
    index = np.arange(x.size)
    b = x + 1.0 - a
    d = 1.0 / b
    h, c = d.copy(), np.full_like(x, np.inf)
    for i in range(1, _TERMS):
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.reciprocal(d, out=d)
        c = an / c
        c += b
        delta = c * d
        h *= delta
        if i % 2:
            continue
        delta -= 1.0
        done = np.abs(delta, out=delta) <= 2.0 * _EPS
        if done.any():
            out[index[done]] = h[done]
            more = ~done
            index, b, c, d, h = index[more], b[more], c[more], d[more], h[more]
            if not index.size:
                return out
    raise ConvergenceError(f"incomplete gamma continued fraction at a = {a!r} missed its tolerance")


def _log_gamma_star(a: float) -> float:
    """ln Gamma*(a), where Gamma(a) = sqrt(2 pi) a^(a - 1/2) e^-a Gamma*(a): Stirling's series from a = 10."""
    if a >= 10.0:
        w = 1.0 / (a * a)
        series = -1 / 1680 + w * (1 / 1188 + w * (-691 / 360360 + w / 156))
        return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * series))) / a
    return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)


def _where(x, lo, hi):
    """lo <= x <= hi for the array x, as True or False where every element agrees, which its extremes tell."""
    if not x.size:
        return False
    least, most = x.min(), x.max()
    if lo <= least and most <= hi:
        return True
    if most < lo or least > hi:
        return False
    return (x >= lo) & (x <= hi)


def _others(mask):
    """The elements a mask of _where leaves out, as a mask of the same kind."""
    return not mask if isinstance(mask, bool) else ~mask


def _fill(mask, fn, x, *outs):
    """outs[i][mask] = fn(x[mask])[i]; mask True or False stands for every element or none."""
    if mask is True:
        for out, value in zip(outs, fn(x)):
            out[...] = value
    elif mask is not False and mask.any():
        for out, value in zip(outs, fn(x[mask])):
            out[mask] = value


class _IncGamma:
    """The regularized incomplete gamma functions P(a, x) and Q(a, x) of one shape a, and their inverses.

    Every element is evaluated on its smaller tail, Q for x >= a and P
    below, as k e^e f with k = x^a e^-x / (a^a e^-a):
    - x < a + 1 for a < 20, x < 0.7 a from a = 20: the power series of P
      (f its sum over sqrt(2 pi a) Gamma*(a)); for a < 20 and x >= a,
      Q = 1 - P;
    - x >= a + 1 for a < 20, x > 1.3 a from a = 20: Legendre's continued
      fraction of Q;
    - 0.7 a <= x <= 1.3 a from a = 20: Temme's uniform expansion, Q =
      erfc(z) / 2 + e^(-z^2) S(eta) / sqrt(2 pi a) with z = eta sqrt(a / 2),
      -a eta^2 / 2 = ln k and S the sum of C_k(eta) a^-k (DiDonato and
      Morris 1986; Gil, Segura and Temme 2012).
    ln k is a ln x - x - (a ln a - a) in double-double arithmetic outside
    Temme's window, so that its rounding stays near 1e-16 absolute where it
    reaches -700, and a ln(1 + mu) - a mu with mu = (x - a) / a inside it.
    No loop's length grows with a: past a = 20 the series and the continued
    fraction run only where x / a is at least 0.3 from 1.  Every element's
    value depends on it alone, not on the others evaluated with it.
    """

    def __init__(self, a: float):
        a = float(a)
        self.a = a
        hi, lo = _log_dd(np.array([a]))
        ph, pl = _two_prod(a, hi)
        chi, clo = _two_sum(ph, -a)
        self._c = (float(chi[0]), float((clo + pl + a * lo)[0]))  # a ln a - a as a double-double
        self._norm = math.exp(-_log_gamma_star(a)) / math.sqrt(2.0 * math.pi * a)  # 1 / (sqrt(2 pi a) Gamma*(a))
        self._top = _TEMME_WINDOW[0] * a if a >= _TEMME_A else a + 1.0  # the series serves x below this
        # the series' coefficients in x / a, prod_k a / (a + k), and the degree each band of x needs: the first
        # at which the rest of the sum at the band's top is below 2^-53 of it
        k = np.arange(1.0, _TERMS)
        self._coef = np.cumprod(a / (a + k))
        ratio = self._top * 2.0 ** -np.arange(_BANDS)[:, None] / (a + k)
        done = (ratio < 1.0) & (np.cumprod(ratio, axis=1) < _EPS * (1.0 - ratio))
        if not done[0].any():
            raise ConvergenceError(f"incomplete gamma series at a = {a!r} needs more than {_TERMS} terms")
        self._degree = np.argmax(done, axis=1) + 1
        if a >= _TEMME_A:
            self._temme = (a ** -np.arange(_TEMME.shape[0]) @ _TEMME)[::-1] / math.sqrt(2.0 * math.pi * a)

    def _series(self, x):
        """sum_n x^n / ((a + 1) ... (a + n)) for 0 < x < top, by Horner's rule in x / a.

        Each element runs to the degree of its band of x / top, (2^-(j+1),
        2^-j], so its value does not depend on the other elements.  With the
        elements in falling degree, one pass serves all: the elements of
        degree n or more are a prefix, and an element's sum starts at its
        own degree from 0 t + c_n = c_n.
        """
        band = np.minimum(-np.frexp(x / self._top)[1], _BANDS - 1)
        order = np.argsort(band, kind="stable")
        degree = self._degree[band[order]]
        t = x[order] / self.a
        counts = np.searchsorted(-degree, -np.arange(degree[0], 0, -1), side="right")
        acc = np.zeros_like(t)
        for n, m in zip(range(degree[0], 0, -1), counts.tolist()):
            head = acc[:m]
            head *= t[:m]
            head += self._coef[n - 1]
        acc *= t
        acc += 1.0
        out = np.empty_like(x)
        out[order] = acc
        return out

    def _temme_part(self, x):
        """(ln k, f) inside Temme's window: Q = erfc(z) / 2 + e^(-z^2) S / sqrt(2 pi a), -z^2 = ln k = -a eta^2 / 2."""
        a = self.a
        mu = (x - a) / a
        e = a * _log1pmx(mu)
        eta = np.copysign(np.sqrt(-2.0 * e / a), mu)
        s = _horner(self._temme, eta)
        return e, 0.5 * _erfcx(np.abs(eta) * math.sqrt(0.5 * a)) + np.where(mu >= 0.0, s, -s)

    def _outer_part(self, x):
        """(e_hi, e_lo, f) outside Temme's window: ln k = a ln x - x - (a ln a - a) in double-double, f the sum."""
        a = self.a
        lh, ll = _log_dd(x)
        ph, pl = _two_prod(a, lh)
        s1, r1 = _two_sum(ph, -x)
        s2, r2 = _two_sum(s1, -self._c[0])
        lo = r1 + r2 + pl + a * ll - self._c[1]
        hi = s2 + lo
        lo -= hi - s2
        f = np.empty_like(x)
        if a >= _TEMME_A:
            series = _where(x / a, 0.0, np.nextafter(_TEMME_WINDOW[0], 0.0))
        else:
            series = _where(x, 0.0, np.nextafter(self._top, 0.0))
        _fill(series, lambda xs: (self._norm * self._series(xs),), x, f)
        _fill(_others(series), lambda xs: (a * self._norm * _continued_fraction(a, xs),), x, f)
        if a < _TEMME_A and series is not False:  # a <= x < a + 1: the series gives P, and Q = 1 - P
            flip = series & (x >= a)
            if flip.any():
                k = np.exp(hi[flip]) * (1.0 + lo[flip])
                f[flip] = (1.0 - k * f[flip]) / k
        return hi, lo, f

    def _smaller(self, x):
        """(upper, e_hi, e_lo, f) at 0 < x < _X_MAX: the smaller tail is e^e_hi (1 + e_lo) f, Q where upper, else P."""
        temme = _where(x / self.a, *_TEMME_WINDOW) if self.a >= _TEMME_A else False
        if temme is False:
            e_hi, e_lo, f = self._outer_part(x)
        elif temme is True:
            e_hi, f = self._temme_part(x)
            e_lo = np.zeros_like(x)
        else:
            e_hi, e_lo, f = np.empty_like(x), np.zeros_like(x), np.empty_like(x)
            _fill(temme, self._temme_part, x, e_hi, f)
            _fill(_others(temme), self._outer_part, x, e_hi, e_lo, f)
        return x >= self.a, e_hi, e_lo, f

    def _small_tail(self, x):
        """(the smaller tail,) at 0 < x < _X_MAX."""
        _, e_hi, e_lo, f = self._smaller(x)
        return (np.exp(e_hi) * (1.0 + e_lo) * f,)

    def tails(self, x):
        """(P(a, x), Q(a, x)) at every element of x; x <= 0 gives (0, 1), inf (1, 0) and nan (nan, nan)."""
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        small = np.where(np.isnan(x), np.nan, 0.0)
        if x.size:
            with np.errstate(under="ignore"):
                _fill(_where(x, np.nextafter(0.0, 1.0), _X_MAX), self._small_tail, x, small)
        upper = x >= self.a
        p, q = np.where(upper, 1.0 - small, small), np.where(upper, small, 1.0 - small)
        return p.reshape(shape)[()], q.reshape(shape)[()]

    def inverse(self, mass, upper: bool):
        """x with Q(a, x) = mass where upper, else P(a, x) = mass, elementwise.

        Mass 0 gives inf (upper) or 0, mass 1 the other end, and a mass
        outside [0, 1] nan.  Each element is solved on its smaller tail.
        """
        mass = np.asarray(mass, dtype=float)
        flip = mass > 0.5
        t = np.where(flip, 1.0 - mass, mass)
        q_side = flip != upper  # the tail solved for is Q
        out = np.where(q_side, np.inf, 0.0)
        bad = ~((mass >= 0.0) & (mass <= 1.0))
        out[bad] = np.nan
        live = (t > 0.0) & ~bad
        if live.any():
            with np.errstate(under="ignore", over="ignore"):
                out[live] = self._invert(t[live], q_side[live])
        return out[()]

    def _invert(self, t, upper):
        """x with Q(a, x) = t where upper, else P(a, x) = t, for 0 < t <= 1/2, by Newton steps on ln of the tail.

        Steps are in x for Q and in ln x for P, from a start that Newton's
        method reaches in a few steps whatever a is: Wilson and Hilferty's
        cube with Abramowitz and Stegun's normal quantile 26.2.23, or the
        tail's leading term where that is larger (x^a / Gamma(a + 1) for P,
        x^(a-1) e^-x / Gamma(a) for Q, the latter below a = 20 only).  An
        element stops at a relative step below _NEWTON_TOL.
        """
        a = self.a
        log_t = np.log(t)
        s = np.sqrt(-2.0 * log_t)
        w = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
        x = a * np.maximum(1.0 - 1.0 / (9.0 * a) + np.where(upper, w, -w) / (3.0 * math.sqrt(a)), 0.0) ** 3
        x = np.where(upper, x, np.maximum(x, np.exp((log_t + math.lgamma(a + 1.0)) / a)))
        if a < _TEMME_A:
            y = np.maximum(-log_t, a)
            for _ in range(3):
                y = -log_t - math.lgamma(a) + (a - 1.0) * np.log(y)
            x = np.where(upper, np.maximum(x, y), x)
        out = x.copy()
        live = np.flatnonzero(x > 0.0)  # a start of 0 is a root of P below the smallest double
        x = x[live]
        for _ in range(_NEWTON):
            if not live.size:
                return out
            side, e_hi, e_lo, f = self._smaller(x)
            log_tail = e_hi + e_lo + np.log(f)
            h = a * self._norm / f  # x pdf / tail
            up = upper[live]
            wrong = side != up  # past the median: the tail sought is 1 - the smaller one
            if wrong.any():
                k = np.exp(e_hi[wrong]) * (1.0 + e_lo[wrong])
                tail = 1.0 - k * f[wrong]
                log_tail[wrong] = np.log(tail)
                h[wrong] = a * self._norm * k / tail
            step = (log_tail - log_t[live]) / h
            x = np.where(up, x * np.maximum(1.0 + step, 0.125), x * np.exp(-step))
            out[live] = x
            more = np.abs(step) > _NEWTON_TOL
            live, x = live[more], x[more]
        if not live.size:
            return out
        raise ConvergenceError(f"inverse incomplete gamma at a = {a!r} missed its tolerance")

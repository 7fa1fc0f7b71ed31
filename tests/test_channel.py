"""Channel statistics: sampling, moments, Gamma fit, quartic-gain distribution."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from starwpn import channel
from starwpn.channel import (
    SF_TABLE_FLOOR,
    GammaApprox,
    NakagamiParams,
    cascade_moment,
    combined_gain_sample,
    gamma_fit,
    gauss_hermite_rule,
)

NAK2 = NakagamiParams(m=2.0, omega=1.0)

# frozen fit for m=2, omega=1 on both links (independent high-precision evaluation)
K_REF = 3.5599870039763264
THETA_REF = 4.029081095294145


def ks_distance(samples, cdf):
    """Exact KS statistic of a sorted sample against a callable CDF."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return max(np.max(hi - f), np.max(f - lo))


def test_nakagami_params_validation():
    with pytest.raises(ValueError):
        NakagamiParams(m=0.4, omega=1.0)
    with pytest.raises(ValueError):
        NakagamiParams(m=2.0, omega=0.0)
    with pytest.raises(ValueError):
        NakagamiParams(m=2.0, omega=-1.0)
    for m, omega in ((np.inf, 1.0), (2.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            NakagamiParams(m=m, omega=omega)


def test_cascade_moment_zeroth_is_one():
    for m1, o1, m2, o2 in [(2, 1, 2, 1), (0.5, 3, 4, 0.2), (1.5, 0.7, 2.5, 2.0)]:
        mu0 = cascade_moment(0.0, NakagamiParams(m1, o1), NakagamiParams(m2, o2))
        assert abs(mu0 - 1.0) < 1e-14


def test_cascade_moment_second_is_product_of_spreads():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1, m2 = rng.uniform(0.5, 6, size=2)
        o1, o2 = rng.uniform(0.1, 5, size=2)
        mu2 = cascade_moment(2.0, NakagamiParams(m1, o1), NakagamiParams(m2, o2))
        assert abs(mu2 - o1 * o2) < 1e-12 * o1 * o2


def test_cascade_moment_first_m2():
    mu1 = cascade_moment(1.0, NAK2, NAK2)
    exact = special.gamma(2.5) ** 2 / (special.gamma(2.0) ** 2 * 2.0)
    assert abs(mu1 - exact) < 1e-14
    assert abs(mu1 - 0.88357) < 5e-6


def test_cascade_moment_against_samples():
    # one element: the co-phased sum is the single product h*g
    prod = combined_gain_sample(
        NakagamiParams(1.5, 0.8), NakagamiParams(3.0, 2.0), 1, 2 * 10**6, seed=11
    )
    mu1 = cascade_moment(1.0, NakagamiParams(1.5, 0.8), NakagamiParams(3.0, 2.0))
    mu2 = cascade_moment(2.0, NakagamiParams(1.5, 0.8), NakagamiParams(3.0, 2.0))
    assert abs(np.mean(prod) - mu1) < 0.01 * mu1
    assert abs(np.mean(prod**2) - mu2) < 0.01 * mu2


def test_gamma_fit_frozen_values():
    fit = gamma_fit(NAK2, NAK2, 30)
    assert abs(fit.k - K_REF) < 1e-13
    assert abs(fit.theta - THETA_REF) < 1e-13
    assert abs(fit.sum_shape - 30 * K_REF) < 1e-10


def test_gamma_fit_moment_exact():
    # fitted Gamma(k, rate theta) must reproduce mu1 and the variance exactly
    rng = np.random.default_rng(4)
    for _ in range(10):
        l1 = NakagamiParams(rng.uniform(0.5, 5), rng.uniform(0.2, 3))
        l2 = NakagamiParams(rng.uniform(0.5, 5), rng.uniform(0.2, 3))
        mu1 = cascade_moment(1.0, l1, l2)
        mu2 = cascade_moment(2.0, l1, l2)
        fit = gamma_fit(l1, l2, 10)
        assert abs(fit.k / fit.theta - mu1) < 1e-12 * mu1
        assert abs(fit.k / fit.theta**2 - (mu2 - mu1**2)) < 1e-12 * mu2


def test_gamma_fit_scale_property():
    base = gamma_fit(NAK2, NAK2, 30)
    c = 4.0
    scaled = gamma_fit(NakagamiParams(2.0, c), NAK2, 30)
    assert abs(scaled.k - base.k) < 1e-12
    assert abs(scaled.theta - base.theta / math.sqrt(c)) < 1e-12


def test_gamma_fit_rejects_degenerate():
    with pytest.raises(ValueError):
        gamma_fit(NAK2, NAK2, 0)
    with pytest.raises(ValueError):
        # zero-variance stand-in: force k/theta invariants to fail
        GammaApprox(k=-1.0, theta=1.0, n_elements=1)
    with pytest.raises(ValueError):
        GammaApprox(k=1.0, theta=0.0, n_elements=1)


def test_quartic_cdf_limits_and_monotone():
    fit = gamma_fit(NAK2, NAK2, 30)
    assert fit.cdf(0.0) == 0.0
    assert fit.cdf(1e12) >= 1.0 - 1e-9
    grid = np.logspace(-6, 9, 100)
    vals = fit.cdf(grid)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_quartic_cdf_median_of_samples():
    fit = gamma_fit(NAK2, NAK2, 30)
    med = np.median(combined_gain_sample(NAK2, NAK2, 30, 10**6, seed=21) ** 4)
    assert abs(fit.cdf(med) - 0.50) < 0.02


def test_quartic_cdf_ks_against_exact_cascade():
    # the Gamma fit must track the true cascade-sum distribution
    for n in (1, 2, 5, 10, 30):
        fit = gamma_fit(NAK2, NAK2, n)
        w = combined_gain_sample(NAK2, NAK2, n, 10**6, seed=30 + n) ** 4
        d = ks_distance(w, lambda x: fit.cdf(x))
        assert d < 0.02, f"N={n}: KS {d:.4f}"


def test_quartic_pdf_normalizes_and_matches_samples():
    fit = gamma_fit(NAK2, NAK2, 30)
    upper = (special.gammainccinv(fit.sum_shape, 1e-12) / fit.theta) ** 4
    total, err = integrate.quad(
        lambda x: np.exp(fit.log_pdf(x)), 0.0, upper, limit=400,
        points=[(fit.sum_shape / fit.theta) ** 4],
    )
    assert abs(total - 1.0) < 1e-6
    w = combined_gain_sample(NAK2, NAK2, 30, 10**6, seed=77) ** 4
    d = ks_distance(w, lambda x: fit.cdf(x))
    assert d < 0.01


def test_quartic_pdf_is_cdf_derivative():
    fit = gamma_fit(NAK2, NAK2, 30)
    # median-scale point; the CDF and pdf share the continuous shape N*k
    x0 = float(special.gammaincinv(fit.sum_shape, 0.5) / fit.theta) ** 4
    h = 3e-6 * x0
    deriv = (fit.cdf(x0 + h) - fit.cdf(x0 - h)) / (2 * h)
    pdf = np.exp(fit.log_pdf(x0))
    assert abs(deriv - pdf) < 1e-6 * pdf


def test_log_pdf_extreme_arguments_finite():
    fit = gamma_fit(NAK2, NAK2, 30)
    vals = fit.log_pdf(np.array([1e-280, 1e-12, 1.0, 1e12, 1e280]))
    assert np.all(np.isfinite(vals))
    assert np.exp(vals[0]) == 0.0 or vals[0] < -500  # deep left tail underflows cleanly


@pytest.mark.parametrize("n", [1, 30])
def test_survival_and_mass_in_both_tails(n):
    fit = gamma_fit(NAK2, NAK2, n)
    x_lo, x_hi = fit.quantiles(1e-28)
    x = np.geomspace(x_lo / 1e3, x_hi * 16.0, 300)
    cdf, sf = fit.cdf(x), fit.sf(x)
    assert np.all(np.abs(cdf + sf - 1.0) < 1e-14)
    beyond = x > x_hi  # 1 - cdf underflows to 0 there, the survival does not
    assert np.all(1.0 - cdf[beyond] == 0.0) and np.all(sf[beyond] > 0.0)

    switch = (fit.sum_shape / fit.theta) ** 4  # the mass is formed from survivals above this
    head, tail = x[x < switch], x[x > switch]
    np.testing.assert_allclose(fit.mass(head[:-1], head[1:]),
                               fit.cdf(head[1:]) - fit.cdf(head[:-1]), rtol=1e-12)
    mass = fit.mass(tail[:-1], tail[1:])
    np.testing.assert_allclose(mass, fit.sf(tail[:-1]) - fit.sf(tail[1:]), rtol=1e-12)
    assert np.all(mass[tail[:-1] > x_hi] > 0.0)

    assert np.all(fit.mass(x, x) == 0.0)
    assert np.all(fit.mass(x[1:], x[:-1]) == 0.0)
    for w1 in (0.0, -1.0):
        assert np.array_equal(fit.mass(w1, x), cdf)

    for tail_mass in (1e-28, 1e-6, 0.25):
        q_lo, q_hi = fit.quantiles(tail_mass)
        assert q_lo < q_hi
        assert fit.cdf(q_lo) == pytest.approx(tail_mass, rel=1e-10)
        assert fit.sf(q_hi) == pytest.approx(tail_mass, rel=1e-10)
        assert fit.mass(q_lo, q_hi) == pytest.approx(1.0 - 2.0 * tail_mass, rel=1e-10)


@pytest.mark.parametrize("m, n", [(2.0, 1), (2.0, 5), (2.0, 30), (4.0, 40), (0.5, 1)])
def test_survival_table_matches_scipy(m, n):
    # the decodable-first kernel reads Pr[G^4 > x] from this table; it must
    # meet its bound (1e-12 relative where Q >= 1e-30, 1e-10 down to
    # SF_TABLE_FLOOR) at every segment midpoint and in between, return 1.0
    # below the lower quantile, and hand the range past its top to scipy.
    # m = 0.5, N = 1 spans 405 in ln x and needs more than 4,096 segments.
    link = NakagamiParams(m=m, omega=1.0)
    fit = gamma_fit(link, link, n)
    table = fit.survival_table
    assert table.coef is not None  # the bound was met, no fallback to scipy
    segments = table.coef.shape[1]
    assert segments >= 4096 and (segments > 4096 or m != 0.5)
    assert table.x_lo == fit.quantiles()[0]
    assert fit.sf(table.x_top) == pytest.approx(SF_TABLE_FLOOR, rel=1e-10)

    def check(x):
        exact, approx = fit.sf(x), table(x)
        inside = (x >= table.x_lo) & (x <= table.x_top)
        rel = np.abs(approx[inside] / exact[inside] - 1.0)
        assert np.all(rel <= np.where(exact[inside] >= 1e-30, 1e-12, 1e-10))
        assert np.all(approx[x < table.x_lo] == 1.0)
        assert np.array_equal(approx[x > table.x_top], exact[x > table.x_top])
        return inside

    check(np.exp(table.u0 + table.step * (np.arange(segments) + 0.5)))
    rng = np.random.default_rng(16)
    x = np.exp(rng.uniform(np.log(table.x_lo / 10.0), np.log(table.x_top * 10.0), 10**5))
    inside = check(x)
    assert inside.sum() > x.size // 2 and (x < table.x_lo).any() and (x > table.x_top).any()


@pytest.mark.parametrize("m, n", [(2.0, 1), (2.0, 5), (2.0, 30), (0.5, 1)])
def test_survival_table_doubling_reuses_every_value(monkeypatch, m, n):
    # each doubling keeps the previous knots as its even knots and the
    # previous midpoints as its odd knots, so a build evaluates the survival
    # only at the kept table's knots and midpoints and the density only at its
    # knots, and its coefficients equal those built from scratch at its
    # segment count, bit for bit
    link = NakagamiParams(m=m, omega=1.0)
    fit = gamma_fit(link, link, n)
    points = {"sf": 0, "pdf": 0}

    def counted(name, law):
        def spy(fit, x):
            points[name] += np.size(x)
            return law(fit, x)
        return spy

    monkeypatch.setattr(GammaApprox, "sf", counted("sf", GammaApprox.sf))
    monkeypatch.setattr(GammaApprox, "log_pdf", counted("pdf", GammaApprox.log_pdf))
    table = fit.survival_table
    monkeypatch.undo()
    segments = table.coef.shape[1]
    assert segments > 4096  # at least one doubling
    assert points == {"sf": 2 * segments + 1, "pdf": segments + 1}

    step = (float(np.log(table.x_top)) - table.u0) / segments
    assert table.step == step
    u = table.u0 + step * np.arange(segments + 1)
    x = np.exp(u)
    log_q = np.log(fit.sf(x))
    d = -step * np.exp(u + fit.log_pdf(x) - log_q)
    dq = np.diff(log_q)
    coef = np.stack((log_q[:-1], d[:-1], 3.0 * dq - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * dq))
    assert np.array_equal(table.coef, coef)


@pytest.mark.parametrize("m, n", [(2.0, 1), (2.0, 5), (2.0, 30), (4.0, 40), (0.5, 1)])
def test_cdf_table_matches_scipy(m, n):
    # the SIC windows read Pr[G^4 <= x] from this table up to the mode
    # (N k / theta)^4; it must meet 1e-12 relative at every segment midpoint
    # and in between, and hand the ranges below its lower quantile and past
    # the mode to scipy
    link = NakagamiParams(m=m, omega=1.0)
    fit = gamma_fit(link, link, n)
    table = fit.cdf_table
    assert table.coef is not None  # the bound was met, no fallback to scipy
    segments = table.coef.shape[1]
    assert segments >= 4096
    assert table.x_lo == fit.quantiles()[0]
    assert table.x_top == pytest.approx((fit.sum_shape / fit.theta) ** 4, rel=1e-15)

    def check(x):
        exact, approx = fit.cdf(x), table(x)
        inside = (x >= table.x_lo) & (x <= table.x_top)
        assert np.all(np.abs(approx[inside] / exact[inside] - 1.0) <= 1e-12)
        assert np.array_equal(approx[~inside], exact[~inside])
        return inside

    check(np.exp(table.u0 + table.step * (np.arange(segments) + 0.5)))
    rng = np.random.default_rng(23)
    x = np.exp(rng.uniform(np.log(table.x_lo / 10.0), np.log(table.x_top * 10.0), 10**5))
    inside = check(x)
    assert inside.sum() > x.size // 4 and (x < table.x_lo).any() and (x > table.x_top).any()


@pytest.mark.parametrize("m, n", [(2.0, 1), (2.0, 30), (0.5, 1)])
def test_table_mass_matches_exact_mass(m, n):
    # the windows' mass from the two tables against the exact mass: windows
    # left of the mode, right of it and across it, with ends below the lower
    # quantile, at or below 0 and past the survival table's top, and empty ones
    link = NakagamiParams(m=m, omega=1.0)
    fit = gamma_fit(link, link, n)
    x_lo, x_mode, x_top = fit.cdf_table.x_lo, fit.cdf_table.x_top, fit.survival_table.x_top
    rng = np.random.default_rng(7)

    def between(lo, hi, size=400):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    left = np.sort(between(x_lo, x_mode, (2, 400)), axis=0)
    right = np.sort(between(x_mode, x_top, (2, 400)), axis=0)
    top = between(x_top, 10.0 * x_top)
    blocks = (  # (w1, w2, both ends outside the tables' ranges, so scipy alone)
        (left[0], left[1], False),  # left of the mode
        (right[0], right[1], False),  # right of it
        (between(x_lo, x_mode), between(x_mode, x_top), False),  # across it
        (between(x_lo / 1e6, x_lo), between(x_lo, x_mode), False),  # from below x_lo
        (between(x_lo / 1e6, x_lo), between(x_lo / 1e6, x_lo), True),  # below x_lo
        (np.zeros(3), between(x_lo, x_mode, 3), False),  # from 0 ...
        (-between(1e-3, 1e3, 3), between(x_mode, x_top, 3), False),  # ... and from below it
        (between(x_mode, x_top), top, False),  # to past the survival table's top
        (top, 10.0 * top + 1.0, True),  # past it
    )
    w1, w2 = (np.concatenate([block[i] for block in blocks]) for i in (0, 1))
    scipy_only = np.concatenate([np.full(w.size, only) for w, _, only in blocks])
    exact, table = fit.mass(w1, w2), fit.table_mass(w1, w2)
    # the tables' relative error on each term of the difference: 1e-12, and
    # 1e-10 where the survival is below 1e-30
    terms = np.where(w1 > x_mode, fit.sf(w1), fit.cdf(w2))
    assert np.all(np.abs(table - exact) <= np.where(terms >= 1e-30, 2e-12, 2e-10) * terms)
    assert np.all(table >= 0.0) and np.all(exact[(w1 < w2) & ~scipy_only] > 0.0)
    assert np.array_equal(table[scipy_only], exact[scipy_only])
    for a, b in ((w1, w1), (np.maximum(w1, w2), np.minimum(w1, w2))):  # empty windows
        assert np.all(fit.table_mass(a, b) == 0.0)
    assert np.array_equal(fit.table_mass(0.0, left[1]), fit.cdf_table(left[1]))


def test_gauss_hermite_rule_basics():
    nodes, weights = gauss_hermite_rule(1)
    assert nodes.shape == (1,) and abs(nodes[0]) < 1e-15
    assert abs(weights[0] - math.sqrt(math.pi)) < 1e-14
    nodes, weights = gauss_hermite_rule(2)
    assert np.allclose(np.sort(nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    assert np.allclose(weights, math.sqrt(math.pi) / 2, atol=1e-14)
    for w in (1, 2, 5, 30, 200):
        nodes, weights = gauss_hermite_rule(w)
        assert nodes.shape == weights.shape == (w,)
        assert abs(np.sum(weights) - math.sqrt(math.pi)) < 1e-12 * math.sqrt(math.pi)
        assert np.allclose(nodes, -nodes[::-1], atol=1e-12)


def test_gauss_hermite_polynomial_exactness():
    # degree <= 2W-1 exact; odd degrees vanish by symmetry
    nodes, weights = gauss_hermite_rule(5)
    for deg in range(10):
        approx = np.sum(weights * nodes**deg)
        if deg % 2 == 1:
            exact = 0.0
        else:
            exact = special.gamma((deg + 1) / 2.0)
        assert abs(approx - exact) < 1e-10, f"degree {deg}"


def test_gauss_hermite_order_validation():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        gauss_hermite_rule(201)


def test_combined_gain_sample_moments():
    g = combined_gain_sample(NAK2, NAK2, 30, 10**5, seed=5)
    mu1 = cascade_moment(1.0, NAK2, NAK2)
    var1 = cascade_moment(2.0, NAK2, NAK2) - mu1**2
    assert abs(np.mean(g) - 30 * mu1) < 0.005 * 30 * mu1
    assert abs(np.var(g) - 30 * var1) < 0.05 * 30 * var1


@pytest.mark.parametrize("link1, link2, n, seed", [(NAK2, NAK2, 30, 8), (NakagamiParams(1.5, 0.7), NAK2, 5, 9)])
def test_combined_gain_sample_matches_three_array_form(link1, link2, n, seed):
    # the in-place form draws and multiplies exactly as the plain expression
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h = np.sqrt(rng.gamma(link1.m, link1.omega / link1.m, size=(5000, n)))
    g = np.sqrt(rng.gamma(link2.m, link2.omega / link2.m, size=(5000, n)))
    assert np.array_equal(combined_gain_sample(link1, link2, n, 5000, seed), (h * g).sum(axis=1))

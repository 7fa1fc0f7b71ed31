"""Closed forms: outage, throughput, success probability, AoI, quadrature."""

import dataclasses
import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, special

from starwpn import analytics, channel, optimizer, system
from starwpn.analytics import (
    PerfReport,
    QuadratureError,
    average_aoi,
    clamp_stats,
    noma_metrics_batch,
    outage,
    perf_report,
    success_prob,
    sum_throughput,
    user_throughput,
)
from starwpn.channel import NakagamiParams, gamma_fit, gauss_hermite_rule, quartic_gain_pdf, quartic_gain_quantiles

NAK2 = NakagamiParams(m=2.0, omega=1.0)
QUAD = gauss_hermite_rule(30)

TEP = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
EEP = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
TDMA = system.TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.25, alpha_ap_r=0.25)


def make_config(snr_db=40.0, rate=1.0, n=30, **over):
    base = dict(
        p_ap=1.0, n0=10.0 ** (-snr_db / 10.0), d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=n,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=rate,
    )
    base.update(over)
    return system.SystemConfig(**base)


def quad_expect(fit, kern, lo, hi, interior=(), epsabs=1e-16):
    """Integral of kern(y) against the quartic-gain density over [lo, hi], by QUADPACK.

    With y = u^4 the density is the Gamma(N*k, theta) density of u.  The
    range is cut where u's upper tail holds 1e-30 of the mass above lo, so
    that a range starting far in the tail keeps its relative accuracy; a
    range with no mass in double precision, or an empty one, gives 0.  The
    amplitude's bulk is always a breakpoint.
    """
    nk, theta = fit.sum_shape, fit.theta
    log_norm = nk * math.log(theta) - special.gammaln(nk)
    a = lo ** 0.25
    above = 1e-30 * special.gammaincc(nk, theta * a)
    b = min(hi ** 0.25, special.gammainccinv(nk, above) / theta) if above > 0.0 else a
    if not a < b:
        return 0.0
    bulk = [special.gammaincinv(nk, q) / theta for q in (1e-6, 0.5, 1.0 - 1e-6)]
    pts = sorted(u for u in bulk + [y ** 0.25 for y in interior] if a < u < b)

    def f(u):
        if u <= 0.0:
            return 0.0
        return kern(u**4) * math.exp(log_norm + (nk - 1.0) * math.log(u) - theta * u)

    args = dict(limit=400, epsabs=epsabs, epsrel=1e-11)
    return sum(integrate.quad(f, u0, u1, **args)[0] for u0, u1 in zip([a] + pts, pts + [b]))


def quad_oracle_noma(config, c_t, c_r):
    """Adaptive-quadrature re-evaluation of the SIC outage decomposition.

    Same probabilistic decomposition, entirely different numerics: QUADPACK
    on the Gamma (amplitude) axis u = y^(1/4), instead of Gauss-Kronrod
    panels on the quartic-gain axis.

    Blind spot: the deadlock is integrated over the reflected user's gain y
    with breakpoints at g/(2 c_r), g/c_r and around the trapped-window bump.
    Just above g/c_r the window is a sliver of the transmitted user's gain,
    so where c_t is tiny the tail piece misses it and p_out_r collapses to
    1 - Q_r(g/c_r).  At criterion 9's EEP draw with N = 5, R = 1.5757,
    c_t = 1.394e-8 and c_r = 2.193e-3 this gives 0.8122915 where an
    integral of 1 - Pr[r decodable first] over the transmitted user's gain
    gives 0.8123002 (test_direct_deadlock_blind_spot).  The kernel forms the
    deadlock by inclusion-exclusion above _DEADLOCK_SWITCH, so it does not
    share this blind spot there.
    """
    g = config.snr_threshold
    fit_t = gamma_fit(config.fading_ris, config.fading_t, config.n_elements)
    fit_r = gamma_fit(config.fading_ris, config.fading_r, config.n_elements)

    def cdf(fit, x):
        return special.gammainc(fit.sum_shape, fit.theta * max(x, 0.0) ** 0.25)

    def surv(fit, x):
        return special.gammaincc(fit.sum_shape, fit.theta * max(x, 0.0) ** 0.25)

    def deadlock_kern(y):
        hi = cdf(fit_t, g * (c_r * y + 1.0) / c_t)
        lo = cdf(fit_t, max(c_r * y - g, 0.0) / (g * c_t))
        return hi - lo

    # the trapped-window bump sits near y* where the window crosses the
    # other user's bulk; pass it explicitly so the panels resolve it
    y_star = g * c_t * (fit_t.sum_shape / fit_t.theta) ** 4 / c_r
    deadlock = quad_expect(fit_r, deadlock_kern, 0.0, g / c_r, [g / (2 * c_r)]) + quad_expect(
        fit_r, deadlock_kern, g / c_r, math.inf, [y_star / 2, y_star, 2 * y_star]
    )

    def surv_r(x):  # r's cross SINR clears g, given t's quartic gain x
        return surv(fit_r, g * (c_t * x + 1.0) / c_r)

    def surv_t(y):  # t's cross SINR clears g, given r's quartic gain y
        return surv(fit_t, g * (c_r * y + 1.0) / c_t)

    pre_t = quad_expect(fit_t, surv_r, 0.0, g / c_t, [g / (2 * c_t)])
    pre_r = quad_expect(fit_r, surv_t, 0.0, g / c_r, [g / (2 * c_r)])
    phi1 = quad_expect(fit_r, surv_t, g / c_r, math.inf, [2 * g / c_r])
    phi2 = quad_expect(fit_t, surv_r, g / c_t, math.inf, [2 * g / c_t])
    return deadlock + pre_t, deadlock + pre_r, phi1 + phi2


def test_outage_tep_matches_adaptive_quadrature():
    cfg = make_config(snr_db=35.0, rate=2.0)
    c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
    ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    assert abs(p_t - ref_t) < 1e-6 * ref_t
    assert abs(p_r - ref_r) < 1e-9 * ref_r
    phi = success_prob("tep", cfg, TEP, QUAD)
    assert abs(phi - ref_phi) < 1e-9 * ref_phi

    # t near the surface, r far from it: the deadlock is under
    # _DEADLOCK_SWITCH and g/c_r lies past y_hi, so the direct deadlock's tail
    # range is empty.  phi, 1.745e-30, is a tail integral from g/c_r, beyond
    # the density's 1e-28 quantile: it must keep its relative accuracy there
    cfg = make_config(snr_db=40.0, rate=1.0, d_t=1.0, d_r=15.0)
    c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
    ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    assert abs(p_t - ref_t) < 1e-9 * ref_t
    assert abs(p_r - ref_r) < 1e-9 * ref_r
    assert abs(success_prob("tep", cfg, TEP, QUAD) - ref_phi) < 1e-5 * ref_phi


def test_outage_eep_matches_adaptive_quadrature():
    cfg = make_config(snr_db=30.0, rate=1.0)
    c_t, c_r = system.snr_coefficients("eep", EEP, cfg)
    ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
    p_t, p_r = outage("eep", cfg, EEP, QUAD)
    assert abs(p_t - ref_t) < 1e-7 * ref_t
    assert abs(p_r - ref_r) < 1e-9 * ref_r
    phi = success_prob("eep", cfg, EEP, QUAD)
    assert abs(phi - ref_phi) < 1e-9 * max(ref_phi, 1e-12)

    # t near the surface, r far from it: the deadlock is under
    # _DEADLOCK_SWITCH and g/c_r lies past y_hi, so the direct deadlock's tail
    # range is empty.  phi, 1.085e-34, is a tail integral from g/c_r, beyond
    # the density's 1e-28 quantile: it must keep its relative accuracy there
    cfg = make_config(snr_db=40.0, rate=1.0, d_t=1.0, d_r=15.0)
    c_t, c_r = system.snr_coefficients("eep", EEP, cfg)
    ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
    p_t, p_r = outage("eep", cfg, EEP, QUAD)
    assert abs(p_t - ref_t) < 1e-9 * ref_t
    assert abs(p_r - ref_r) < 1e-9 * ref_r
    assert abs(success_prob("eep", cfg, EEP, QUAD) - ref_phi) < 1e-5 * ref_phi


def test_outage_below_unity_threshold_matches_quadrature():
    # R < 1 makes the two ordered-decode events overlap; the closed form
    # must still match the direct decomposition
    cfg = make_config(snr_db=25.0, rate=0.5)
    c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
    ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
    # the oracle's deadlock integrand is signed, so its outputs miss the
    # both-decodable-first overlap mass j in a fixed pattern: each outage is
    # low by j and the success probability is high by j
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    phi = success_prob("tep", cfg, TEP, QUAD)
    j1 = p_t - ref_t
    j2 = p_r - ref_r
    j3 = ref_phi - phi
    assert j1 > 0.0
    slack = 1e-12 + 1e-5 * j1
    assert abs(j1 - j2) < slack
    assert abs(j1 - j3) < slack
    # success of both plus either outage still cannot exceed one
    assert phi <= 1.0 - max(p_t, p_r) + 1e-9

    # both users far, N = 5, R = 0.05: g/(c_t (1 - g)) lies past t's 1e-28
    # quantile, and the overlap there is 29 % of phi = T_t + T_r - overlap.
    # Each piece is integrated by QUADPACK with a relative tolerance only,
    # since phi is 1.8e-47
    cfg = make_config(snr_db=39.0, rate=0.05, n=5, d_t=15.0, d_r=10.0)
    c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
    g = cfg.snr_threshold
    fit_t = gamma_fit(cfg.fading_ris, cfg.fading_t, 5)
    fit_r = gamma_fit(cfg.fading_ris, cfg.fading_r, 5)
    tails = 0.0
    for fq, fp, cq, cp in ((fit_t, fit_r, c_t, c_r), (fit_r, fit_t, c_r, c_t)):
        def first(y, fq=fq, cq=cq, cp=cp):
            return special.gammaincc(fq.sum_shape, fq.theta * (g * (cp * y + 1.0) / cq) ** 0.25)

        tails += quad_expect(fp, first, g / cp, math.inf, [2 * g / cp], epsabs=0.0)

    def both_first(y):  # r's gain in [b, a], given t's gain y
        b, a = (fit_r.theta * np.array([g * (c_t * y + 1.0) / c_r, (c_t * y - g) / (c_r * g)]) ** 0.25)
        return special.gammaincc(fit_r.sum_shape, b) - special.gammaincc(fit_r.sum_shape, a)

    lower = g / (c_t * (1.0 - g))
    assert lower > quartic_gain_quantiles(fit_t)[1]
    overlap = quad_expect(fit_t, both_first, lower, math.inf, [2 * lower], epsabs=0.0)
    assert overlap > 0.25 * (tails - overlap)
    assert abs(success_prob("tep", cfg, TEP, QUAD) - (tails - overlap)) < 1e-5 * (tails - overlap)


def test_direct_deadlock_below_unity_threshold():
    # R < 1, N = 2, 5 and 30: the deadlock is under _DEADLOCK_SWITCH and is
    # integrated directly.  For g < 1 its window [a, b] closes at
    # y = g/(c_r (1 - g)), which ends its tail.  QUADPACK integrates the
    # same window over r's gain up to that point
    rows = [(2, 55.0, 0.5, dict(d0=3.0)), (5, 30.0, 0.5, dict(d0=3.0)), (5, 50.0, 0.5, dict(d0=10.0)),
            (30, 30.0, 0.1, dict(d_t=5.0, d_r=5.0))]
    for n, snr_db, rate, geometry in rows:
        cfg = make_config(snr_db=snr_db, rate=rate, n=n, **geometry)
        c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
        g = cfg.snr_threshold
        fit_t = gamma_fit(cfg.fading_ris, cfg.fading_t, n)
        fit_r = gamma_fit(cfg.fading_ris, cfg.fading_r, n)

        def window(y):  # t's gain in [a, b], given r's gain y
            a, b = fit_t.theta * np.array([max(c_r * y - g, 0.0) / (c_t * g), g * (c_r * y + 1.0) / c_t]) ** 0.25
            return special.gammainc(fit_t.sum_shape, b) - special.gammainc(fit_t.sum_shape, a)

        def r_first(x):  # r decodable first, given t's gain x
            return special.gammaincc(fit_r.sum_shape, fit_r.theta * (g * (c_t * x + 1.0) / c_r) ** 0.25)

        deadlock = (quad_expect(fit_r, window, 0.0, g / c_r, [g / (2 * c_r)])
                    + quad_expect(fit_r, window, g / c_r, g / (c_r * (1.0 - g))))
        assert deadlock < analytics._DEADLOCK_SWITCH
        ref_t = deadlock + quad_expect(fit_t, r_first, 0.0, g / c_t, [g / (2 * c_t)])
        assert abs(outage("tep", cfg, TEP, QUAD)[0] - ref_t) < 1e-10 * ref_t


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("scheme", ["tep", "eep"])
def test_small_n_matches_adaptive_quadrature(scheme, n):
    # few elements give the widest densities, where panel doubling fires; a
    # short AP-surface hop (3 m) keeps the outages away from one.  At N = 1
    # the default 30 m hop is checked too: there every outage is 1, and the
    # oracle's deadlock tail range is empty.  Every value is also within
    # 1e-9 absolute (phi is 4.5624e-8 at TEP, 30 dB, 3 m).
    pol = {"tep": TEP, "eep": EEP}[scheme]
    cases = [(30.0, 3.0), (40.0, 3.0)]
    if n == 1:
        cases.append((30.0, 30.0))
    for snr_db, d0 in cases:
        cfg = make_config(snr_db=snr_db, rate=2.0, n=n, d0=d0)
        c_t, c_r = system.snr_coefficients(scheme, pol, cfg)
        ref_t, ref_r, ref_phi = quad_oracle_noma(cfg, c_t, c_r)
        p_t, p_r = outage(scheme, cfg, pol, QUAD)
        phi = success_prob(scheme, cfg, pol, QUAD)
        assert abs(p_t - ref_t) < 1e-7 * ref_t
        assert abs(p_r - ref_r) < 1e-7 * ref_r
        assert abs(phi - ref_phi) < 1e-9 * max(ref_phi, 1e-12)
        assert max(abs(p_t - ref_t), abs(p_r - ref_r), abs(phi - ref_phi)) < 1e-9


def test_frozen_reference_values():
    cfg = make_config(snr_db=35.0, rate=1.0)
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    assert abs(p_r - 1.569143411059e-01) < 1e-9 * 1.569143411059e-01
    assert abs(p_t - 3.791373880205e-08) < 1e-6 * 3.791373880205e-08
    p_t20, _ = outage("tep", make_config(snr_db=20.0, rate=1.0), TEP, QUAD)
    assert abs(p_t20 - 4.265677070e-01) < 1e-6


def test_outage_vanishing_threshold():
    cfg = make_config(rate=1e-9)
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    assert p_t < 1e-6 and p_r < 1e-6
    p_t, p_r = outage("eep", cfg, EEP, QUAD)
    assert p_t < 1e-6 and p_r < 1e-6
    p_t, p_r = outage("tdma", cfg, TDMA)
    assert p_t < 1e-200 and p_r < 1e-200
    assert success_prob("tep", cfg, TEP, QUAD) > 1.0 - 1e-6
    assert success_prob("tdma", cfg, TDMA) > 1.0 - 1e-6


def test_outage_vanishing_power():
    cfg = make_config(snr_db=-40.0)
    for pair in (outage("tep", cfg, TEP, QUAD), outage("eep", cfg, EEP, QUAD), outage("tdma", cfg, TDMA)):
        assert pair[0] > 1.0 - 1e-6 and pair[1] > 1.0 - 1e-6


def test_eep_symmetric_users():
    cfg = make_config(d_t=3.0, d_r=3.0)
    pol = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.5, beta_r=0.5)
    p_t, p_r = outage("eep", cfg, pol, QUAD)
    assert abs(p_t - p_r) < 1e-10


def test_eep_beta_shift_lowers_outage():
    # raising the reflected user's energy share must strictly help it
    base = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
    boosted = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.4, beta_r=0.6)
    for snr in (25.0, 30.0, 35.0, 40.0):
        cfg = make_config(snr_db=snr)
        _, pr_lo = outage("eep", cfg, base, QUAD)
        _, pr_hi = outage("eep", cfg, boosted, QUAD)
        assert pr_hi < pr_lo
    # at 20 dB both sit within representation noise of 1; only require that
    # the shift does not measurably hurt
    cfg = make_config(snr_db=20.0)
    _, pr_lo = outage("eep", cfg, base, QUAD)
    _, pr_hi = outage("eep", cfg, boosted, QUAD)
    assert pr_hi <= pr_lo + 1e-12


def test_eep_beta_shift_reverses_when_deadlock_dominates():
    # boosting the weak user's energy share narrows the received-power gap;
    # once the trapped-window event dominates (high SNR), that raises both
    # outages.  Verified against adaptive quadrature and Monte Carlo.
    base = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
    boosted = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.4, beta_r=0.6)
    cfg = make_config(snr_db=50.0)
    p_lo = outage("eep", cfg, base, QUAD)
    p_hi = outage("eep", cfg, boosted, QUAD)
    assert p_hi[1] > p_lo[1]
    assert abs(p_hi[1] - 1.303448e-05) < 1e-3 * 1.303448e-05
    # pure deadlock regime: both users fail together
    assert abs(p_hi[0] - p_hi[1]) < 1e-12


def test_tdma_alpha_halving():
    cfg = make_config()
    half = system.TdmaPolicy(alpha_t=0.125, alpha_r=0.375, alpha_ap_t=0.25, alpha_ap_r=0.25)
    p_full = outage("tdma", cfg, TDMA)[0]
    p_half = outage("tdma", cfg, half)[0]
    assert p_half > p_full


def test_mirror_symmetry():
    cfg = make_config(snr_db=35.0, rate=2.0)
    mirror = make_config(snr_db=35.0, rate=2.0, d_t=4.0, d_r=2.0)
    pol_m = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.4, beta_r=0.6)
    p = outage("tep", cfg, TEP, QUAD)
    q = outage("tep", mirror, pol_m, QUAD)
    assert abs(p[0] - q[1]) < 1e-10
    assert abs(p[1] - q[0]) < 1e-10


def test_outage_monotone_in_snr_and_elements():
    tep_prev = (1.1, 1.1)
    for snr in range(20, 55, 5):
        cfg = make_config(snr_db=float(snr))
        pair = outage("tep", cfg, TEP, QUAD)
        assert pair[0] <= tep_prev[0] + 1e-12
        assert pair[1] <= tep_prev[1] + 1e-12
        tep_prev = pair
    prev = (1.1, 1.1)
    for n in (10, 20, 30, 40):
        pair = outage("tep", make_config(n=n), TEP, QUAD)
        assert pair[0] <= prev[0] + 1e-12
        assert pair[1] <= prev[1] + 1e-12
        prev = pair


def test_quadrature_order_stability():
    # closed forms must be insensitive to the Gauss-Hermite order used
    w30 = gauss_hermite_rule(30)
    w40 = gauss_hermite_rule(40)
    cfg = make_config()
    for scheme, pol in (("tep", TEP), ("eep", EEP)):
        a = outage(scheme, cfg, pol, w30)
        b = outage(scheme, cfg, pol, w40)
        assert abs(a[0] - b[0]) < 1e-6
        assert abs(a[1] - b[1]) < 1e-6
    assert abs(success_prob("tep", cfg, TEP, w30) - success_prob("tep", cfg, TEP, w40)) < 1e-6
    assert abs(success_prob("eep", cfg, EEP, w30) - success_prob("eep", cfg, EEP, w40)) < 1e-6


def test_sum_throughput_forms():
    assert sum_throughput("tep", (0.0, 0.0), 2.0, TEP) == 2.0 * 2.0 * 0.5
    assert sum_throughput("tep", (1.0, 1.0), 2.0, TEP) == 0.0
    assert sum_throughput("eep", (0.0, 0.0), 1.0, EEP) == 1.0
    assert sum_throughput("tdma", (0.0, 1.0), 2.0, TDMA) == 2.0 * 0.25
    with pytest.raises(ValueError):
        sum_throughput("tep", (1.5, 0.0), 2.0, TEP)
    with pytest.raises(ValueError):
        sum_throughput("ofdma", (0.1, 0.1), 2.0, TEP)
    assert user_throughput("tdma", "r", 0.5, 2.0, TDMA) == 2.0 * 0.25 * 0.5
    with pytest.raises(ValueError):
        user_throughput("tep", "q", 0.1, 2.0, TEP)


def test_noma_beats_baseline_at_high_snr():
    cfg = make_config(snr_db=40.0, rate=2.0)
    t_tep = sum_throughput("tep", outage("tep", cfg, TEP, QUAD), cfg.rate, TEP)
    t_eep = sum_throughput("eep", outage("eep", cfg, EEP, QUAD), cfg.rate, EEP)
    t_tdma = sum_throughput("tdma", outage("tdma", cfg, TDMA), cfg.rate, TDMA)
    assert t_tep > t_tdma
    assert t_eep > t_tdma


def test_average_aoi_values():
    assert average_aoi(1.0) == 1.0
    assert average_aoi(0.5) == 2.0
    assert average_aoi(0.25) == 4.0
    assert average_aoi(0.0) == math.inf
    with pytest.raises(ValueError):
        average_aoi(1.5)
    grid = np.linspace(0.05, 1.0, 40)
    vals = [average_aoi(float(p)) for p in grid]
    assert all(v >= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_success_prob_default_rule():
    # no rule means the 30-node Gauss-Hermite rule, as in perf_report
    cfg = make_config()
    for scheme, pol in (("tep", TEP), ("eep", EEP), ("tdma", TDMA)):
        assert success_prob(scheme, cfg, pol) == success_prob(scheme, cfg, pol, QUAD)
        assert outage(scheme, cfg, pol) == outage(scheme, cfg, pol, QUAD)


def test_success_prob_bounded_by_marginals():
    for snr in (25.0, 30.0, 35.0):
        cfg = make_config(snr_db=snr, rate=2.0)
        p_t, p_r = outage("tep", cfg, TEP, QUAD)
        phi = success_prob("tep", cfg, TEP, QUAD)
        assert phi <= min(1.0 - p_t, 1.0 - p_r) + 1e-9


def test_tdma_success_factorizes():
    cfg = make_config(snr_db=35.0, rate=2.0)
    p_t, p_r = outage("tdma", cfg, TDMA)
    phi = success_prob("tdma", cfg, TDMA)
    assert abs(phi - (1.0 - p_t) * (1.0 - p_r)) < 1e-12


def test_perf_report_consistency():
    cfg = make_config(snr_db=35.0, rate=2.0)
    rep = perf_report("tep", cfg, TEP, QUAD)
    assert isinstance(rep, PerfReport)
    p_t, p_r = outage("tep", cfg, TEP, QUAD)
    assert abs(rep.p_out_t - p_t) < 1e-12
    assert abs(rep.p_out_r - p_r) < 1e-12
    assert abs(rep.sum_throughput - sum_throughput("tep", (p_t, p_r), 2.0, TEP)) < 1e-12
    assert abs(rep.avg_aoi - 1.0 / rep.success_prob) < 1e-9
    # default rule path and the baseline scheme
    rep2 = perf_report("eep", cfg, EEP)
    assert 0.0 <= rep2.p_out_t <= 1.0
    rep3 = perf_report("tdma", cfg, TDMA)
    assert rep3.success_prob <= 1.0


def _batch_rows(cases, n):
    """Coefficient rows of (scheme, snr_db, rate, d0) cases sharing one pair of fits."""
    c_t, c_r, g, scalar = [], [], [], []
    for scheme, snr_db, rate, d0 in cases:
        cfg = make_config(snr_db=snr_db, rate=rate, n=n, d0=d0)
        pol = {"tep": TEP, "eep": EEP}[scheme]
        ct, cr = system.snr_coefficients(scheme, pol, cfg)
        c_t.append(ct)
        c_r.append(cr)
        g.append(cfg.snr_threshold)
        rep = perf_report(scheme, cfg, pol, QUAD)
        scalar.append((rep.p_out_t, rep.p_out_r, rep.success_prob))
    fit_t = gamma_fit(cfg.fading_ris, cfg.fading_t, cfg.n_elements)
    fit_r = gamma_fit(cfg.fading_ris, cfg.fading_r, cfg.n_elements)
    return fit_t, fit_r, np.array(c_t), np.array(c_r), np.array(g), scalar


def test_batch_matches_scalar_path():
    # one closed_forms call mixes TEP, EEP and TDMA, N = 1 and N = 30,
    # thresholds below one (the overlap) and above, a deadlock under
    # _DEADLOCK_SWITCH, and more NOMA rows of one channel law than one kernel
    # block.  Each row equals its one-cell call exactly, in any cell order,
    # so a row's value does not depend on its batch.
    schemes = (("tep", TEP), ("eep", EEP), ("tdma", TDMA))
    cells = [(scheme, make_config(snr_db=snr_db, rate=rate, n=n, d0=d0), pol)
             for scheme, pol in schemes
             for n, d0, snr_db in ((1, 3.0, 30.0), (1, 3.0, 40.0), (1, 30.0, 30.0), (30, 30.0, 35.0))
             for rate in (0.5, 2.0)]
    deadlock_row = len(cells)
    cells += [("tep", make_config(snr_db=35.0, rate=1.0), TEP), ("eep", make_config(snr_db=50.0, rate=4.0), EEP)]
    cells += [(scheme, make_config(snr_db=float(snr_db), rate=1.5), pol)
              for snr_db in np.linspace(20.0, 50.0, analytics._ROW_BLOCK // 2 + 1) for scheme, pol in schemes[:2]]
    n30_noma = [i for i, (scheme, cfg, _) in enumerate(cells) if scheme != "tdma" and cfg.n_elements == 30]
    assert len(n30_noma) > analytics._ROW_BLOCK

    probs = analytics.closed_forms(cells, QUAD)
    assert probs.shape == (len(cells), 3)
    # p_t bounds the deadlock from above, so this row took the direct branch
    assert probs[deadlock_row, 0] < analytics._DEADLOCK_SWITCH
    order = np.random.default_rng(7).permutation(len(cells))
    assert np.array_equal(analytics.closed_forms([cells[i] for i in order], QUAD), probs[order])
    for cell, row in zip(cells, probs.tolist()):
        rep = perf_report(*cell, QUAD)
        assert row == [rep.p_out_t, rep.p_out_r, rep.success_prob]
        assert row == list(outage(*cell, QUAD)) + [success_prob(*cell, QUAD)]


def test_batch_doubles_panels_only_where_needed(monkeypatch):
    # at N = 1 the density spans the widest range, and the G7/K15 check fails
    # at 16 panels for some rows; those rows alone are redone at more panels
    seen = []
    core = analytics._noma_core

    def spy(*args):
        out = core(*args)
        g7, k15 = out
        miss = np.abs(g7 - k15) > np.maximum(analytics._CHECK_ABS, analytics._CHECK_REL * np.abs(k15))
        seen.append((args[-1], args[3], args[3][miss.any(axis=0)]))  # npanel, c_t of the pass and of its misses
        return out

    monkeypatch.setattr(analytics, "_noma_core", spy)
    cases = [("tep", 30.0, 2.0, 3.0), ("eep", 40.0, 2.0, 3.0), ("tep", 30.0, 2.0, 30.0), ("tep", 40.0, 4.0, 3.0)]
    fit_t, fit_r, c_t, c_r, g, scalar = _batch_rows(cases, n=1)
    seen.clear()
    p_t, p_r, phi = noma_metrics_batch(fit_t, fit_r, c_t, c_r, g, QUAD)
    assert seen[0][0] == analytics._PANELS_FIRST and np.array_equal(seen[0][1], c_t)
    assert len(seen) > 1
    for (npanel, _, failed), (next_npanel, rows, _) in zip(seen, seen[1:]):
        # a later pass holds exactly the rows that failed the one before, a
        # strict subset of the batch
        assert next_npanel == 2 * npanel
        assert np.array_equal(rows, failed) and 0 < rows.size < c_t.size
    assert seen[-1][2].size == 0
    for row, (s_t, s_r, s_phi) in enumerate(scalar):
        assert (p_t[row], p_r[row], phi[row]) == (s_t, s_r, s_phi)


def test_gauss_kronrod_table_exactness():
    # QK15's Kronrod rule is exact up to degree 22 and its embedded 7-point
    # Gauss rule up to degree 13, but not at 14: a mis-transcribed entry
    # breaks one of these
    x, (g7, k15) = analytics._GK_NODES, analytics._GK_WEIGHTS
    assert x.shape == g7.shape == k15.shape == (15,)
    assert np.all(g7[::2] == 0.0)  # the Kronrod-only nodes
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(k15 @ x**k - exact) < 1e-15
        if k <= 13:
            assert abs(g7 @ x**k - exact) < 1e-15
    assert abs(g7 @ x**14 - 2.0 / 15) > 1e-6


def test_decodable_first_matches_adaptive_quadrature():
    # the head H and the tail T of the own decodable-first kernel come from
    # one panel set split at g/c_p; QUADPACK on the amplitude axis integrates
    # the same survival kernel below and above g/c_p.  At the first pass and
    # at twice its panels, H + T is within 1e-10 relative of QUADPACK.  N = 40
    # with m = 4 on every link is the narrowest density criterion 9 draws,
    # N = 1 the widest.
    nak4 = NakagamiParams(m=4.0, omega=1.0)
    links = [(40, dict(fading_ris=nak4, fading_t=nak4, fading_r=nak4)), (30, {}), (5, {}), (1, {}),
             (1, dict(d0=3.0))]
    checked = 0
    for n, fading in links:
        for snr_db in (-10.0, 20.0, 40.0, 55.0):
            for rate in (0.5, 2.0):
                cfg = make_config(snr_db=snr_db, rate=rate, n=n, **fading)
                c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
                g = cfg.snr_threshold
                fit_t = gamma_fit(cfg.fading_ris, cfg.fading_t, n)
                fit_r = gamma_fit(cfg.fading_ris, cfg.fading_r, n)
                for fq, fp, cq, cp in ((fit_t, fit_r, c_t, c_r), (fit_r, fit_t, c_r, c_t)):

                    def kern(y):
                        return special.gammaincc(fq.sum_shape, fq.theta * (g * (cp * y + 1.0) / cq) ** 0.25)

                    ref = quad_expect(fp, kern, 0.0, g / cp, [g / (2 * cp)]) + quad_expect(
                        fp, kern, g / cp, math.inf, [2 * g / cp])
                    if ref <= 1e-12:
                        continue
                    checked += 1
                    for npanel in (analytics._PANELS_FIRST, 2 * analytics._PANELS_FIRST):
                        panels = analytics._panels((fp,), np.array([g / cp]), npanel)
                        head, tail = analytics._first_int((fq,), np.array([cq]), np.array([cp]), np.array([g]), *panels)
                        got = head[1, 0] + tail[1, 0]
                        assert abs(got - ref) < 1e-10 * ref, (n, snr_db, rate, npanel, got, ref)
    assert checked > 30


@pytest.mark.parametrize("snr_db, scheme, rate", [(40.0, "tep", 4.94), (40.0, "eep", 4.82), (20.0, "eep", 1.0)])
def test_tiny_phi_matches_adaptive_quadrature(snr_db, scheme, rate):
    # fig7 at 40 dB and fig4 at 20 dB, N = 30: phi is 1.1e-16, 4.8e-15 and
    # 8.4e-24, far under the outages.  It is summed from two tail integrals,
    # never formed as a difference of terms of order one, so it keeps its
    # relative accuracy and the AoI 1/phi with it
    cfg = make_config(snr_db=snr_db, rate=rate)
    pol = {"tep": TEP, "eep": EEP}[scheme]
    ref_phi = quad_oracle_noma(cfg, *system.snr_coefficients(scheme, pol, cfg))[2]
    assert 0.0 < ref_phi < 1e-14
    assert abs(success_prob(scheme, cfg, pol, QUAD) - ref_phi) < 1e-5 * ref_phi


def _criterion9_cells():
    """The 500 (scheme, config, policy) draws of acceptance criterion 9's sweep, in its order."""
    rng = np.random.default_rng(987654321)
    cells = []
    for i in range(500):
        scheme = ("tep", "eep", "tdma")[i % 3]
        snr_db, d_t, d_r = rng.uniform(-10.0, 55.0), float(rng.uniform(1.0, 15.0)), float(rng.uniform(1.0, 15.0))
        n = int(rng.integers(1, 41))
        fading = [NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))) for _ in range(3)]
        cfg = make_config(snr_db=snr_db, rate=float(rng.uniform(0.25, 6.0)), n=n, d_t=d_t, d_r=d_r,
                          fading_ris=fading[0], fading_t=fading[1], fading_r=fading[2])
        if scheme == "tep":
            a, b = float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9))
            pol = system.TepPolicy(a / 2.0, a / 2.0, 1.0 - a, b, 1.0 - b)
        elif scheme == "eep":
            a, b = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            pol = system.EepPolicy(a, 1.0 - a, b, 1.0 - b)
        else:
            a, c = float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 0.9))
            pol = system.TdmaPolicy(a, a, (1.0 - 2.0 * a) * c, (1.0 - 2.0 * a) * (1.0 - c))
        cells.append((scheme, cfg, pol))
    return cells


def test_first_pass_agrees_with_doubled_panels(monkeypatch):
    # criterion 9's 334 NOMA draws, N = 1 to 40: a checked row that starts at
    # 16 panels agrees with one forced to start at 32, within the check's own
    # tolerance.  Criterion 9's 30- against 40-node prong reads 0 now that no
    # integral uses the Gauss-Hermite rule, so this is the convergence prong.
    cells = [cell for cell in _criterion9_cells() if cell[0] != "tdma"]
    assert len(cells) == 334
    first = analytics.closed_forms(cells)
    monkeypatch.setattr(analytics, "_PANELS_FIRST", 2 * analytics._PANELS_FIRST)
    doubled = analytics.closed_forms(cells)
    tol = np.maximum(analytics._CHECK_ABS, analytics._CHECK_REL * np.abs(doubled))
    assert np.all(np.abs(first - doubled) <= tol)


def test_unequal_law_closed_forms_are_pinned():
    # criterion 9's 500 draws give the two users unequal laws, so the stacked
    # decodable-first pass calls each law once per half; these are the bytes
    # of the pass that ran each user on its own, at N = 1 to 40.  The SIC
    # windows read the fits' CDF and survival tables, which moved 14 of the
    # 1,500 values by at most 2.2e-16 (2.6e-14 relative) from the exact mass
    digest = hashlib.sha256(analytics.closed_forms(_criterion9_cells()).tobytes()).hexdigest()
    assert digest == "877ceeb8d23a32c26ff980c5a3052bb105945ea52b5d4d22ad7ce5fa9bf745d8"


def test_direct_deadlock_blind_spot():
    # criterion 9's EEP draw with N = 5, R = 1.5757: t's uplink coefficient is
    # 1.394e-8, so t is never decodable first and p_out_r = 1 - Pr[r decodable
    # first] - T_t, with T_t = 1e-147.  QUADPACK over t's gain gives 0.8123002;
    # a deadlock integrated over r's gain (the oracle's) misses the sliver
    # above g/c_r and gives 1 - Q_r(g/c_r) = 0.8122915.
    (scheme, cfg, pol), = [cell for cell in _criterion9_cells()
                           if cell[0] == "eep" and cell[1].n_elements == 5 and abs(cell[1].rate - 1.5757) < 1e-4]
    c_t, c_r = system.snr_coefficients(scheme, pol, cfg)
    assert abs(c_t - 1.394e-8) < 1e-11 and abs(c_r - 2.193e-3) < 1e-6
    g = cfg.snr_threshold
    fit_t = gamma_fit(cfg.fading_ris, cfg.fading_t, cfg.n_elements)
    fit_r = gamma_fit(cfg.fading_ris, cfg.fading_r, cfg.n_elements)

    def r_first(x):  # r's cross SINR clears g, given t's quartic gain x
        return special.gammaincc(fit_r.sum_shape, fit_r.theta * (g * (c_t * x + 1.0) / c_r) ** 0.25)

    def t_first(y):  # t's cross SINR clears g, given r's quartic gain y
        return special.gammaincc(fit_t.sum_shape, fit_t.theta * (g * (c_r * y + 1.0) / c_t) ** 0.25)

    ref_r = 1.0 - quad_expect(fit_t, r_first, 0.0, math.inf) - quad_expect(fit_r, t_first, g / c_r, math.inf)
    assert abs(ref_r - 0.812300202441811) < 1e-13
    p_r = outage(scheme, cfg, pol)[1]
    assert abs(p_r - ref_r) < 1e-12
    assert quad_oracle_noma(cfg, c_t, c_r)[1] < ref_r - 8e-6  # the oracle's blind spot


def test_unconverged_rows_raise(monkeypatch):
    # with zero tolerances no row converges, so the kernel's own check raises
    # on the batch path and on the scalar path alike
    monkeypatch.setattr(analytics, "_CHECK_ABS", 0.0)
    monkeypatch.setattr(analytics, "_CHECK_REL", 0.0)
    cfg = make_config(snr_db=35.0, rate=2.0)
    fit = gamma_fit(NAK2, NAK2, 30)
    c_t, c_r = system.snr_coefficients("tep", TEP, cfg)
    with pytest.raises(QuadratureError, match="did not converge"):
        noma_metrics_batch(fit, fit, np.array([c_t, c_t]), np.array([c_r, 2 * c_r]), cfg.snr_threshold, QUAD)
    with pytest.raises(QuadratureError, match="did not converge"):
        perf_report("eep", cfg, EEP, QUAD)


def test_scheme_constants_positive():
    # every scheme's SNR coefficients, read from the scheme table, are positive
    cfg = make_config()
    for scheme, pol in (("tep", TEP), ("eep", EEP), ("tdma", TDMA)):
        c_t, c_r = system.snr_coefficients(scheme, pol, cfg)
        assert c_t > 0 and c_r > 0


def test_randomized_sweep_stays_in_range():
    # wide randomized parameter sweep: every probability lands in [0,1],
    # nothing non-finite escapes, and clamping is bookkept
    rng = np.random.default_rng(20240811)
    clamp_stats.reset()
    schemes = ("tep", "eep", "tdma")
    for i in range(500):
        scheme = schemes[i % 3]
        snr_db = rng.uniform(-20.0, 60.0)
        cfg = make_config(
            snr_db=snr_db,
            rate=float(rng.uniform(0.25, 6.0)),
            n=int(rng.integers(1, 41)),
            d_t=float(rng.uniform(1.0, 20.0)),
            d_r=float(rng.uniform(1.0, 20.0)),
            fading_ris=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
            fading_t=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
            fading_r=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
        )
        if scheme == "tep":
            a = rng.uniform(0.05, 0.9)
            b = rng.uniform(0.05, 0.9)
            pol = system.TepPolicy(
                alpha_t=a / 2, alpha_r=a / 2, alpha_ap=1.0 - a,
                beta_t=b, beta_r=1.0 - b,
            )
        elif scheme == "eep":
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 0.95)
            pol = system.EepPolicy(alpha_et=a, alpha_it=1.0 - a, beta_t=b, beta_r=1.0 - b)
        else:
            a = rng.uniform(0.05, 0.45)
            c = rng.uniform(0.1, 0.9)
            up = 1.0 - 2 * a
            pol = system.TdmaPolicy(
                alpha_t=a, alpha_r=a, alpha_ap_t=up * c, alpha_ap_r=up * (1.0 - c)
            )
        rep = perf_report(scheme, cfg, pol, QUAD)
        assert 0.0 <= rep.p_out_t <= 1.0
        assert 0.0 <= rep.p_out_r <= 1.0
        assert 0.0 <= rep.success_prob <= 1.0
        assert rep.sum_throughput >= 0.0
        assert rep.avg_aoi >= 1.0
        assert math.isfinite(rep.sum_throughput)
    assert clamp_stats.checked > 0


def test_clamp_stats_reset():
    clamp_stats.reset()
    assert clamp_stats.events == 0 and clamp_stats.checked == 0
    outage("tdma", make_config(), TDMA)
    assert clamp_stats.checked >= 2


def test_clamp_stats_exact_under_threads():
    # two threads share the counters; with frequent thread switches an
    # unguarded read-modify-write would lose updates
    values = np.array([0.5, 1.0 + 1e-15, -1e-16])
    calls = 20_000

    def hammer():
        for _ in range(calls):
            analytics._clamp_probs(values, "test")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clamp_stats.reset()
        workers = [threading.Thread(target=hammer) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    assert (clamp_stats.events, clamp_stats.checked) == (2 * 2 * calls, 2 * 3 * calls)


def test_survival_table_built_once_per_law(monkeypatch):
    # closed_forms reads the fits its config keeps, so repeated calls and a
    # whole GA run share one table per distinct law; a per-call rebuild would
    # cost a table build per call
    builds = []
    build = channel._build_survival_table

    def spy(fit):
        builds.append(fit)
        return build(fit)

    monkeypatch.setattr(channel, "_build_survival_table", spy)
    same = make_config(n=12)
    mixed = make_config(n=12, fading_r=NakagamiParams(m=3.0, omega=1.0))
    for config, laws in ((same, 1), (mixed, 2)):
        cells = [("tep", config, TEP), ("eep", config, EEP)]
        del builds[:]
        first = analytics.closed_forms(cells)
        assert np.array_equal(analytics.closed_forms(cells), first)
        assert len(builds) == laws and len({id(fit) for fit in builds}) == laws
    del builds[:]
    optimizer.ga_run("p1", make_config(snr_db=35.0, rate=2.0, n=12), 10.0,
                     optimizer.GaConfig(population=12, generations=6, seed=3))
    assert len(builds) == 1


def test_survival_table_first_use_from_threads():
    # four threads reach a fresh config's tables at once; the table lives on
    # the fit, and each thread's rows equal those of a serial call bit for bit
    cells = [(scheme, cfg, pol) for cfg in (make_config(n=7, rate=1.5, d0=10.0),
                                            make_config(n=9, fading_t=NakagamiParams(m=3.0, omega=1.0)))
             for scheme, pol in (("tep", TEP), ("eep", EEP), ("tdma", TDMA))]
    serial = analytics.closed_forms(cells)
    fresh = [(scheme, dataclasses.replace(cfg), pol) for scheme, cfg, pol in cells]
    assert all(cfg.fit_t is not old.fit_t for (_, cfg, _), (_, old, _) in zip(fresh, cells))
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        start.wait(timeout=60)
        results[i] = analytics.closed_forms(fresh)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for rows in results:
        assert rows is not None and rows.tobytes() == serial.tobytes()


def test_cdf_table_built_once_per_law(monkeypatch):
    # the SIC windows read the CDF table of the fit their config keeps: at
    # R = 0.5 and 50 dB the overlap reads r's and the direct deadlock t's, so
    # closed_forms builds one table per distinct law, and a whole GA run one
    builds = []
    build = channel._build_cdf_table

    def spy(fit):
        builds.append(fit)
        return build(fit)

    monkeypatch.setattr(channel, "_build_cdf_table", spy)
    same = make_config(n=12, rate=0.5, snr_db=50.0)
    mixed = make_config(n=12, rate=0.5, snr_db=50.0, fading_r=NakagamiParams(m=3.0, omega=1.0))
    for config, fits in ((same, [same.fit_t]), (mixed, [mixed.fit_r, mixed.fit_t])):
        cells = [("tep", config, TEP), ("eep", config, EEP)]
        del builds[:]
        first = analytics.closed_forms(cells)
        assert np.array_equal(analytics.closed_forms(cells), first)
        assert [id(fit) for fit in builds] == [id(fit) for fit in fits]
    del builds[:]
    config = make_config(snr_db=40.0, rate=0.5, n=12)
    optimizer.ga_run("p1", config, 10.0, optimizer.GaConfig(population=12, generations=6, seed=3))
    assert builds == [config.fit_t]


def test_cdf_table_first_use_from_threads():
    # four threads reach fresh fits' CDF tables at once through the SIC
    # windows; the table lives on the fit, and each thread's rows equal those
    # of a serial call bit for bit
    configs = (make_config(n=12, rate=0.5, snr_db=50.0),
               make_config(n=30, rate=0.9, fading_t=NakagamiParams(m=3.0, omega=1.0)))

    def cells(configs):
        return [(scheme, cfg, pol) for cfg in configs for scheme, pol in (("tep", TEP), ("eep", EEP))]

    serial = analytics.closed_forms(cells(configs))
    configs = [dataclasses.replace(cfg) for cfg in configs]
    fresh = cells(configs)
    fits = [configs[0].fit_t, configs[1].fit_t, configs[1].fit_r]
    assert configs[0].fit_r is fits[0] and not any("cdf_table" in vars(fit) for fit in fits)
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        start.wait(timeout=60)
        results[i] = analytics.closed_forms(fresh)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all("cdf_table" in vars(fit) for fit in fits)
    for rows in results:
        assert rows is not None and rows.tobytes() == serial.tobytes()

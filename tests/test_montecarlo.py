"""Simulation oracle: gain sampling, event counting, AoI slot simulation."""

import numpy as np
import pytest
from scipy import stats

from starwpn import analytics, montecarlo, system
from starwpn.channel import NakagamiParams, combined_gain_sample, gauss_hermite_rule
from starwpn.montecarlo import (
    AoiTrace,
    McConfig,
    aoi_simulate,
    mc_counts,
    mc_gains,
    mc_outage,
    mc_success,
)

NAK1 = NakagamiParams(m=1.0, omega=1.0)
NAK2 = NakagamiParams(m=2.0, omega=1.0)
QUAD = gauss_hermite_rule(30)

TEP = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
EEP = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
TDMA = system.TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.25, alpha_ap_r=0.25)


def make_config(snr_db=40.0, rate=1.0, n=30, fading=NAK2):
    return system.SystemConfig(
        p_ap=1.0, n0=10.0 ** (-snr_db / 10.0), d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=n,
        fading_ris=fading, fading_t=fading, fading_r=fading, rate=rate,
    )


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0, seed=1)
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=1, gain_mode="mixed")
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=-1)
    McConfig(trials=10, seed=1, gain_mode="shared_h")


def test_gain_second_moment_single_element_rayleigh():
    cfg = make_config(n=1, fading=NAK1)
    g_t, _ = mc_gains(cfg, McConfig(trials=10**6, seed=41))
    assert abs(np.mean(g_t**2) - 1.0) < 0.01


def test_gain_mode_correlation():
    cfg = make_config()
    g_t, g_r = mc_gains(cfg, McConfig(trials=10**6, seed=42, gain_mode="shared_h"))
    assert np.corrcoef(g_t, g_r)[0, 1] > 0.2
    g_t, g_r = mc_gains(cfg, McConfig(trials=10**6, seed=42, gain_mode="independent_gains"))
    assert abs(np.corrcoef(g_t, g_r)[0, 1]) < 0.01


# shapes 1, 2 and 4 take the uniform-product path, 1.5 takes standard_gamma
SAMPLER_SHAPES = (1.0, 2.0, 4.0, 1.5)


@pytest.mark.parametrize("m", SAMPLER_SHAPES)
def test_unit_gamma_moments_and_finite(m):
    rng = np.random.default_rng(12)
    x = montecarlo._unit_gamma(rng, m, (1000, 1000))
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    # Gamma(m, 1) has mean = variance = m; five standard errors each, the
    # sample variance's from the fourth central moment 3m^2 + 6m
    assert abs(x.mean() - m) < 5.0 * np.sqrt(m / x.size)
    assert abs(x.var() - m) < 5.0 * np.sqrt((2.0 * m * m + 6.0 * m) / x.size)


def test_gains_match_independent_sampler():
    # two-sample KS of mc_gains' G_t against channel.combined_gain_sample,
    # which draws through rng.gamma, at N = 1 where a sampler fault shows
    # undiluted by the sum; Bonferroni over the four shapes
    trials = 2 * 10**5
    for m in SAMPLER_SHAPES:
        nak = NakagamiParams(m=m, omega=1.3)
        g_t, g_r = mc_gains(make_config(n=1, fading=nak), McConfig(trials=trials, seed=17))
        assert np.all(np.isfinite(g_t)) and np.all(np.isfinite(g_r))
        ref = combined_gain_sample(nak, nak, 1, trials, seed=18)
        assert stats.ks_2samp(g_t, ref).pvalue > 0.001 / len(SAMPLER_SHAPES), m


def test_gains_deterministic_and_chunk_stable():
    cfg = make_config(n=4)
    a = mc_gains(cfg, McConfig(trials=70_000, seed=9))
    b = mc_gains(cfg, McConfig(trials=70_000, seed=9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    # a longer run's prefix is bit-identical to a shorter run: trials are
    # partitioned into fixed chunks whose streams depend only on (seed, index)
    c = mc_gains(cfg, McConfig(trials=140_000, seed=9))
    assert np.array_equal(c[0][:70_000], a[0])
    assert np.array_equal(c[1][:70_000], a[1])
    d = mc_gains(cfg, McConfig(trials=70_000, seed=10))
    assert not np.array_equal(a[0], d[0])


def test_mc_outage_threshold_and_power_limits():
    cfg = make_config(rate=1e-12, n=2)
    mc = McConfig(trials=10**5, seed=5)
    p_t, p_r, se_t, se_r = mc_outage("tep", cfg, TEP, mc)
    assert (p_t, p_r) == (0.0, 0.0)
    assert se_t == 0.0 and se_r == 0.0
    # noise-dominant limit: every trial fails
    dead = system.SystemConfig(
        p_ap=1.0, n0=1e300, d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=2,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=1.0,
    )
    p_t, p_r, _, _ = mc_outage("tep", dead, TEP, mc)
    assert (p_t, p_r) == (1.0, 1.0)


def test_mc_outage_deterministic_and_gain_reuse():
    cfg = make_config(n=8)
    mc = McConfig(trials=2 * 10**5, seed=314)
    a = mc_outage("eep", cfg, EEP, mc)
    b = mc_outage("eep", cfg, EEP, mc)
    assert a == b
    # a cell counted alongside others that share its ensemble equals the
    # cell counted alone
    cells = [("tep", make_config(snr_db=30.0, n=8), TEP), ("eep", cfg, EEP), ("tdma", cfg, TDMA)]
    assert mc_counts(cells, mc)[1].outage() == a


def _reference_counts(scheme, cfg, pol, gains):
    # decode the full gain arrays directly, without mc_counts
    gamma_t, gamma_r = system.uplink_snrs(scheme, pol, cfg, *gains)
    g = cfg.snr_threshold
    if system.scheme_spec(scheme).noma:
        t_ok, r_ok = system.sic_outcome(gamma_t, gamma_r, g)
    else:
        t_ok, r_ok = gamma_t >= g, gamma_r >= g
    return int((~t_ok).sum()), int((~r_ok).sum()), int((t_ok & r_ok).sum())


@pytest.mark.parametrize("gain_mode", ["independent_gains", "shared_h"])
def test_mc_counts_match_reference_decode(gain_mode):
    # two ensembles (N = 8 and N = 12), all three schemes, a partial last
    # chunk; the counts must not depend on the worker count, and each count
    # lands on its own cell whether the ensembles' cells come grouped or
    # alternating
    trials = 3 * 2**16 + 123
    mc = McConfig(trials=trials, seed=77, gain_mode=gain_mode)
    cells = [
        (scheme, make_config(snr_db=snr, n=n), pol)
        for n in (8, 12)
        for snr in (45.0, 55.0)
        for scheme, pol in (("tep", TEP), ("eep", EEP), ("tdma", TDMA))
    ]
    half = len(cells) // 2
    interleaved = [cell for pair in zip(cells[:half], cells[half:]) for cell in pair]
    gains = {n: mc_gains(make_config(n=n), mc) for n in (8, 12)}
    for order in (cells, interleaved):
        want = [_reference_counts(s, c, p, gains[c.n_elements]) for s, c, p in order]
        for threads in (1, 2):
            got = mc_counts(order, mc, threads=threads)
            assert [(c.out_t, c.out_r, c.both_ok) for c in got] == want
            assert all(c.trials == trials for c in got)
    assert any(0 < w[0] < trials for w in want)  # the comparison is not trivial


def test_mc_matches_closed_forms_at_default_point():
    # moderate-probability point of the outage-vs-SNR sweep
    cfg = make_config(snr_db=40.0, rate=1.0)
    mc = McConfig(trials=10**6, seed=2718)
    ana = {
        "tep": analytics.outage("tep", cfg, TEP, QUAD),
        "eep": analytics.outage("eep", cfg, EEP, QUAD),
        "tdma": analytics.outage("tdma", cfg, TDMA),
    }
    cells = [("tep", cfg, TEP), ("eep", cfg, EEP), ("tdma", cfg, TDMA)]
    for (scheme, _, _), counts in zip(cells, mc_counts(cells, mc)):
        p_t, p_r, se_t, se_r = counts.outage()
        for est, se, ref in ((p_t, se_t, ana[scheme][0]), (p_r, se_r, ana[scheme][1])):
            if est >= 1e-3:
                assert abs(ref - est) < 0.10 * est, (scheme, est, ref)
            else:
                # zero-count cells give observed se == 0; fall back to the
                # binomial se implied by the closed form itself.  The 10%
                # model allowance covers the moment-matched Gamma fit, which
                # approximates the exact cascade; with the continuous shape
                # N*k its outage near p=5e-4 at N=30 agrees with 1e7-trial
                # MC within sampling noise (acceptance criterion 2).
                model_se = np.sqrt(ref * (1.0 - ref) / mc.trials)
                slack = 0.10 * ref + 3.0 * max(se, model_se) + 1e-9
                assert abs(ref - est) <= slack, (scheme, est, ref)


def test_mc_success_limits_and_bound():
    cfg = make_config(rate=1e-12, n=2)
    phi, se = mc_success("tep", cfg, TEP, McConfig(trials=10**5, seed=6))
    assert phi == 1.0 and se == 0.0
    cfg = make_config(snr_db=35.0, rate=2.0, n=32)
    pol = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.4, beta_r=0.6)
    counts = mc_counts([("tep", cfg, pol)], McConfig(trials=4 * 10**5, seed=7))[0]
    phi, se_phi = counts.success()
    p_t, p_r, se_t, se_r = counts.outage()
    assert phi <= min(1.0 - p_t, 1.0 - p_r) + 3.0 * (se_phi + se_t + se_r)
    ana = analytics.success_prob("tep", cfg, pol, QUAD)
    assert abs(ana - phi) < 0.05 * phi


def test_mc_seed_split_chi2_dispersion():
    # ten disjoint sub-estimates of one binomial probability must disperse
    # like a chi-squared with nine degrees of freedom
    cfg = make_config(snr_db=35.0, rate=1.0)
    n_sub, sub_trials = 10, 10**5
    counts = []
    for i in range(n_sub):
        p_t, p_r, _, _ = mc_outage("tep", cfg, TEP, McConfig(trials=sub_trials, seed=9000 + i))
        counts.append(p_r * sub_trials)
    counts = np.asarray(counts)
    pooled = counts.sum() / (n_sub * sub_trials)
    chi2 = float(np.sum((counts - sub_trials * pooled) ** 2 / (sub_trials * pooled * (1 - pooled))))
    lo, hi = stats.chi2.ppf([0.005, 0.995], df=n_sub - 1)
    assert lo < chi2 < hi, chi2


def test_mc_standard_error_scaling():
    cfg = make_config(snr_db=35.0, rate=1.0)
    trials = np.array([10**4, 10**5, 10**6])
    ses = []
    for i, n in enumerate(trials):
        _, _, _, se_r = mc_outage("tep", cfg, TEP, McConfig(trials=int(n), seed=50 + i))
        ses.append(se_r)
    slope = np.polyfit(np.log(trials), np.log(ses), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_aoi_trace_validation():
    with pytest.raises(ValueError):
        AoiTrace(slots=0, successes=0, average_age=1.0)
    with pytest.raises(ValueError):
        AoiTrace(slots=10, successes=11, average_age=1.0)
    with pytest.raises(ValueError):
        AoiTrace(slots=10, successes=5, average_age=0.5)


def test_aoi_simulate_certain_success():
    trace = aoi_simulate(1.0, 10**4, seed=1)
    assert trace.average_age == 1.0
    assert trace.successes == trace.slots == 10**4


def test_aoi_simulate_geometric_half():
    trace = aoi_simulate(0.5, 10**6, seed=2)
    assert abs(trace.average_age - 2.0) < 0.04
    # renewal identity against the empirical success rate, three sigmas
    phi_hat = trace.successes / trace.slots
    se = np.sqrt(phi_hat * (1 - phi_hat) / trace.slots)
    assert abs(trace.average_age - 1.0 / phi_hat) < 3.0 * se / phi_hat**2 + 0.01


def test_aoi_simulate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        aoi_simulate(0.5, 0, seed=1)
    with pytest.raises(ValueError):
        aoi_simulate(1.5, 10, seed=1)
    with pytest.raises(ValueError):
        aoi_simulate(np.ones(5, dtype=bool), 10, seed=1)  # source shorter than slots


def test_aoi_event_source_matches_renewal_inverse():
    # per-slot channel events: age statistics must match 1/phi-hat
    cfg = make_config(snr_db=35.0, rate=2.0, n=32)
    pol = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.4, beta_r=0.6)
    slots = 2 * 10**5
    mc = McConfig(trials=slots, seed=64)
    gains = mc_gains(cfg, mc)
    g_t, g_r = system.uplink_snrs("tep", pol, cfg, gains[0], gains[1])
    t_ok, r_ok = system.sic_outcome(g_t, g_r, cfg.snr_threshold)
    events = t_ok & r_ok
    trace = aoi_simulate(events, slots, seed=0)
    phi_hat, _ = mc_success("tep", cfg, pol, mc)
    assert trace.successes == int(events.sum())
    assert abs(trace.average_age - 1.0 / phi_hat) < 0.03 * (1.0 / phi_hat)

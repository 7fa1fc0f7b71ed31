"""Simulation oracle: gain sampling, event counting, AoI slot simulation."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from starwpn import analytics, montecarlo, system
from starwpn.channel import NakagamiParams, combined_gain_sample
from starwpn.montecarlo import (
    AoiTrace,
    McConfig,
    aoi_simulate,
    estimates,
    mc_counts,
    mc_gains,
    mc_outage,
    mc_success,
)

NAK1 = NakagamiParams(m=1.0, omega=1.0)
NAK2 = NakagamiParams(m=2.0, omega=1.0)

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
    # non-integral and bool sizes and seeds are refused up front, not left
    # to fail inside the chunk loop or SeedSequence
    for bad in (2.5, 10.0, True, "10"):
        with pytest.raises(ValueError):
            McConfig(trials=bad, seed=1)
    for bad in (1.5, 1.0, True, False):
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=bad)
    McConfig(trials=10, seed=1, gain_mode="shared_h")
    McConfig(trials=np.int64(10), seed=np.uint32(1))


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
    x = np.empty((1000, 1000))
    x = -montecarlo._neg_unit_gamma(rng, m, x, np.empty_like(x))
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


# SHA-256 of mc_gains' (G_t, G_r) bytes at N = 3, omega = 1.3 and seed 23,
# over a partial last chunk that ends inside a block, keyed by the surface
# and hop shapes and the gain mode: shapes 1, 2 and 4 take the
# uniform-product path, 1.5 takes standard_gamma, and the last two keys mix
# the paths; the stream is part of the package version
PINNED_TRIALS = 3 * 2**16 + 123
GAINS_SHA256 = {
    (1.0, 1.0, "independent_gains"): "b6e4a8164fc42cff4c1e896ad6b9c22ead107938072aa9354054a517d3b24304",
    (1.0, 1.0, "shared_h"): "53a4c60ac418a168a7ad17924bcaa2053b36070c2d0d023ac29b4111d83c3918",
    (2.0, 2.0, "independent_gains"): "1d5b5df5650bf199e9229fab23bd96f1c13d183c2b79f63cee8e4e75e011a430",
    (2.0, 2.0, "shared_h"): "be269c924799a662335cd9bd954f10a84b3e46b12822b7893c5126b696b2a5aa",
    (4.0, 4.0, "independent_gains"): "54aa9cca7dc8168b1da0eacfba409a9c89946e6ca23ac0787c40f2e7810dd7e2",
    (4.0, 4.0, "shared_h"): "4edc6705f8d2cffa5ced5991b59c16d216cb57627a4c3fbe1af397cda99cc17c",
    (1.5, 1.5, "independent_gains"): "f1d5cfa57c4719832c456fed607d279bf2960e2147dcb5682177662b67da8a03",
    (1.5, 1.5, "shared_h"): "9ea8425790c555348d32bc2ab112a8d5da03eb75aa087fddb5a945de2778e215",
    (2.0, 1.5, "independent_gains"): "bbc5eb474613ea1c78fed87f4ed5d8020baeb9239878f7a8f754029f5e2f5c65",
    (1.5, 4.0, "shared_h"): "394a4ca221b28c1b3fea332ffdd962e36e4d4c57ddbf0348f8ecb17d747b6c1f",
}


@pytest.mark.parametrize("m_ris, m_hop, gain_mode", GAINS_SHA256)
def test_mc_gains_are_pinned(m_ris, m_hop, gain_mode):
    cfg = dataclasses.replace(make_config(n=3, fading=NakagamiParams(m=m_hop, omega=1.3)),
                              fading_ris=NakagamiParams(m=m_ris, omega=1.3))
    g_t, g_r = mc_gains(cfg, McConfig(trials=PINNED_TRIALS, seed=23, gain_mode=gain_mode))
    assert g_t.shape == g_r.shape == (PINNED_TRIALS,)
    digest = hashlib.sha256(g_t.tobytes() + g_r.tobytes()).hexdigest()
    assert digest == GAINS_SHA256[m_ris, m_hop, gain_mode]


@pytest.fixture(scope="module")
def two_chunk_gains():
    cfg = make_config(n=3, fading=NAK2)
    return cfg, mc_gains(cfg, McConfig(trials=2 * 2**16, seed=31))


@pytest.mark.parametrize("k", [1, 4095, 4096, 4097, 65537])
def test_mc_gains_prefix_at_block_edges(two_chunk_gains, k):
    # a last chunk that draws only the blocks holding its trials still
    # gives the first k rows of a longer run, bit for bit
    cfg, (long_t, long_r) = two_chunk_gains
    g_t, g_r = mc_gains(cfg, McConfig(trials=k, seed=31))
    assert np.array_equal(g_t, long_t[:k]) and np.array_equal(g_r, long_r[:k])


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
    (p_t, p_r, _), (se_t, se_r, _) = estimates(mc_counts(cells, mc)[1], mc.trials)
    assert (p_t, p_r, se_t, se_r) == a


def _reference_counts(scheme, cfg, pol, gains):
    # decode the full gain arrays directly, without mc_counts
    c_t, c_r = system.snr_coefficients(scheme, pol, cfg)
    gamma_t, gamma_r = c_t * gains[0] ** 4, c_r * gains[1] ** 4
    g = cfg.snr_threshold
    if system.scheme_spec(scheme, pol).noma:
        t_ok, r_ok = system.sic_outcome(gamma_t, gamma_r, g)
    else:
        t_ok, r_ok = gamma_t >= g, gamma_r >= g
    return int((~t_ok).sum()), int((~r_ok).sum()), int((t_ok & r_ok).sum())


# SHA-256 of repr([(out_t, out_r, both_ok), ...]) over the grouped cells of
# test_mc_counts_match_reference_decode
COUNTS_SHA256 = {
    "independent_gains": "21fee60e81d98301346e0da9a416ea48109cbc4e8deb8e52e7103bae6d6ca80c",
    "shared_h": "e5dadc746d8edbb2693d972862fcef0f43f691e8066a267883b758abb9d84995",
}


@pytest.mark.parametrize("gain_mode", COUNTS_SHA256)
def test_mc_counts_match_reference_decode(gain_mode):
    # two ensembles (N = 8 and N = 12), all three schemes, a partial last
    # chunk; the counts must not depend on the worker count, and each count
    # lands on its own cell whether the ensembles' cells come grouped or
    # alternating
    trials = PINNED_TRIALS
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
            assert got.dtype == np.int64 and got.tolist() == [list(w) for w in want]
    assert any(0 < w[0] < trials for w in want)  # the comparison is not trivial
    # the grouped cells' counts are pinned too: the stream is part of the
    # package version
    counts = [tuple(row) for row in mc_counts(cells, mc).tolist()]
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == COUNTS_SHA256[gain_mode]


def test_mc_matches_closed_forms_at_default_point():
    # moderate-probability point of the outage-vs-SNR sweep
    cfg = make_config(snr_db=40.0, rate=1.0)
    mc = McConfig(trials=10**6, seed=2718)
    ana = {
        "tep": analytics.closed_forms([("tep", cfg, TEP)])[0],
        "eep": analytics.closed_forms([("eep", cfg, EEP)])[0],
        "tdma": analytics.closed_forms([("tdma", cfg, TDMA)])[0],
    }
    cells = [("tep", cfg, TEP), ("eep", cfg, EEP), ("tdma", cfg, TDMA)]
    p, se = estimates(mc_counts(cells, mc), mc.trials)
    for (scheme, _, _), (p_t, p_r, _), (se_t, se_r, _) in zip(cells, p, se):
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


def test_estimates_are_rates_and_binomial_standard_errors():
    # bit for bit the Python-float forms, counts of 0 and of every trial included
    for trials in (1, 7, 30_000, 123_456_789):
        counts = np.array([[0, 1, trials // 3], [trials // 2, trials - 1, trials]], dtype=np.int64)
        p, se = estimates(counts, trials)
        assert p.shape == se.shape == counts.shape
        for count, got_p, got_se in zip(counts.ravel().tolist(), p.ravel().tolist(), se.ravel().tolist()):
            want = count / trials
            assert (got_p, got_se) == (want, math.sqrt(want * (1.0 - want) / trials))


def test_mc_success_limits_and_bound():
    cfg = make_config(rate=1e-12, n=2)
    phi, se = mc_success("tep", cfg, TEP, McConfig(trials=10**5, seed=6))
    assert phi == 1.0 and se == 0.0
    cfg = make_config(snr_db=35.0, rate=2.0, n=32)
    pol = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.4, beta_r=0.6)
    mc = McConfig(trials=4 * 10**5, seed=7)
    (p_t, p_r, phi), (se_t, se_r, se_phi) = estimates(mc_counts([("tep", cfg, pol)], mc)[0], mc.trials)
    assert phi <= min(1.0 - p_t, 1.0 - p_r) + 3.0 * (se_phi + se_t + se_r)
    ana = analytics.perf_report("tep", cfg, pol).success_prob
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
    c_t, c_r = system.snr_coefficients("tep", pol, cfg)
    g_t, g_r = c_t * gains[0] ** 4, c_r * gains[1] ** 4
    t_ok, r_ok = system.sic_outcome(g_t, g_r, cfg.snr_threshold)
    events = t_ok & r_ok
    trace = aoi_simulate(events, slots, seed=0)
    phi_hat, _ = mc_success("tep", cfg, pol, mc)
    assert trace.successes == int(events.sum())
    assert abs(trace.average_age - 1.0 / phi_hat) < 0.03 * (1.0 / phi_hat)

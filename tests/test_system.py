"""Physical layer: path loss, the scheme table, uplink SNRs, SIC decode logic."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from starwpn.channel import ChannelLaw, NakagamiParams, cascade_moment
from starwpn.system import (
    EepPolicy,
    SystemConfig,
    TdmaPolicy,
    TepPolicy,
    pathloss,
    sic_outcome,
    snr_coefficients,
    uplink_snrs,
)

NAK2 = NakagamiParams(m=2.0, omega=1.0)


def make_config(**over):
    base = dict(
        p_ap=1.0, n0=1e-4, d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=30,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=1.0,
    )
    base.update(over)
    return SystemConfig(**base)


TEP = TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
EEP = EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
TDMA = TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.25, alpha_ap_r=0.25)


def test_pathloss_values():
    unit = make_config(d0=1.0, d_t=1.0)
    assert pathloss(unit, "t") == 1.0
    cfg = make_config()
    assert abs(pathloss(cfg, "t") - 1.0 / 3600.0) < 1e-19
    assert abs(pathloss(cfg, "r") - 1.0 / 14400.0) < 1e-20
    assert abs(pathloss(cfg, "t") - 2.7778e-4) < 1e-8
    assert abs(pathloss(cfg, "r") - 6.9444e-5) < 1e-9


def test_pathloss_rejects_unknown_user():
    with pytest.raises(ValueError):
        pathloss(make_config(), "x")


def test_snr_threshold_tracks_rate():
    assert make_config(rate=1.0).snr_threshold == 1.0
    assert make_config(rate=2.0).snr_threshold == 3.0
    assert abs(make_config(rate=0.5).snr_threshold - (2**0.5 - 1.0)) < 1e-15


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(p_ap=0.0)
    with pytest.raises(ValueError):
        make_config(d_t=-1.0)
    with pytest.raises(ValueError):
        make_config(exp0=0.5)
    with pytest.raises(ValueError):
        make_config(n_elements=0)
    with pytest.raises(ValueError):
        make_config(rate=0.0)
    for key in ("p_ap", "n0", "d0", "d_t", "d_r", "exp0", "exp_t", "exp_r", "rate"):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            make_config(**{key: np.inf})
    # finite distances and exponents whose path loss or received power underflows or overflows
    for key, value in (("d0", 1e-200), ("d0", 1e100), ("d_t", 1e200), ("d_r", 1e-150), ("exp0", 1000.0)):
        with pytest.raises(ValueError, match="path loss"):
            make_config(**{key: value})


def test_config_rejects_rate_without_finite_positive_threshold():
    # 2^R - 1 overflows past R = 1024 and rounds to 0 below R = 1.6e-16
    for rate in (2000.0, 1024.0, 1e-16, 1e-300):
        with pytest.raises(ValueError, match="rate_bps_hz"):
            make_config(rate=rate)
    assert make_config(rate=1023.5).snr_threshold < np.inf
    assert make_config(rate=1e-15).snr_threshold > 0.0


def test_config_takes_the_fits_of_a_given_law():
    # configs handed one law object share its fits (one shared fit when both
    # users' fades are equal); without one, and under dataclasses.replace,
    # a config fits its own law; a law that is not the config's is rejected
    nak3 = NakagamiParams(m=3.0, omega=1.0)
    law = ChannelLaw(30, NAK2, NAK2, nak3)
    a, b = make_config(rate=1.0, fading_r=nak3, law=law), make_config(rate=2.0, fading_r=nak3, law=law)
    assert a.fit_t is b.fit_t is law.fit_t and a.fit_r is b.fit_r is law.fit_r and a.fit_r is not a.fit_t
    fresh = dataclasses.replace(a)
    assert fresh == a and fresh.fit_t is not a.fit_t and fresh.fit_t == a.fit_t
    own = make_config()
    assert own.fit_r is own.fit_t and make_config().fit_t is not own.fit_t
    for other in (ChannelLaw(29, NAK2, NAK2, NAK2), ChannelLaw(30, NAK2, nak3, NAK2)):
        with pytest.raises(ValueError, match="not the law"):
            make_config(law=other)


def test_uplink_snr_tep_unit_case():
    cfg = make_config(p_ap=1.0, n0=1.0, d0=1.0, d_t=1.0, d_r=1.0)
    pol = SimpleNamespace(alpha_t=0.3, alpha_r=0.4, alpha_ap=0.3, beta_t=1.0, beta_r=1.0)
    g_t, g_r = uplink_snrs("tep", pol, cfg, 1.0, 1.0)
    assert abs(g_t - 1.0) < 1e-15


def test_uplink_snr_eep_beta_squared():
    cfg = make_config()
    lo = SimpleNamespace(alpha_et=0.5, alpha_it=0.5, beta_t=0.3, beta_r=0.7)
    hi = SimpleNamespace(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.7)
    s_lo = uplink_snrs("eep", lo, cfg, 2.0, 2.0)[0]
    s_hi = uplink_snrs("eep", hi, cfg, 2.0, 2.0)[0]
    assert abs(s_hi - 4.0 * s_lo) < 1e-9 * s_hi


def test_uplink_snr_hand_evaluation_40db():
    # independent re-derivation: gamma_t = P*l_t^2*beta_t*alpha_t/(alpha_AP*N0)*G^4
    # with G^4 at its exact fourth moment of the 30-term cascade sum
    cfg = make_config(n0=1e-4)
    n = 30
    m1 = cascade_moment(1.0, NAK2, NAK2)
    m2 = cascade_moment(2.0, NAK2, NAK2)
    m3 = cascade_moment(3.0, NAK2, NAK2)
    m4 = cascade_moment(4.0, NAK2, NAK2)
    e4 = (
        n * m4
        + 4 * n * (n - 1) * m3 * m1
        + 3 * n * (n - 1) * m2**2
        + 6 * n * (n - 1) * (n - 2) * m2 * m1**2
        + n * (n - 1) * (n - 2) * (n - 3) * m1**4
    )
    l_t = 1.0 / 3600.0
    expect = 1.0 * l_t**2 * 0.6 * 0.25 / (0.5 * 1e-4) * e4
    got = uplink_snrs("tep", TEP, cfg, e4**0.25, e4**0.25)[0]
    assert abs(got - expect) < 1e-12 * expect


def test_snr_coefficients_match_uplink_snrs():
    cfg = make_config()
    for scheme, pol in (("tep", TEP), ("eep", EEP), ("tdma", TDMA)):
        c_t, c_r = snr_coefficients(scheme, pol, cfg)
        g_t, g_r = uplink_snrs(scheme, pol, cfg, 2.0, 3.0)
        assert abs(g_t - c_t * 16.0) < 1e-12 * g_t
        assert abs(g_r - c_r * 81.0) < 1e-12 * g_r


def test_snr_coefficients_reject_unknown_scheme():
    with pytest.raises(ValueError):
        snr_coefficients("fdma", TEP, make_config())


def test_sic_outcome_examples():
    # strong t, r above threshold after cancellation
    t_ok, r_ok = sic_outcome(np.array([10.0]), np.array([2.0]), 1.0)
    assert t_ok[0] and r_ok[0]
    # t below threshold but r decodable first
    t_ok, r_ok = sic_outcome(np.array([0.5]), np.array([10.0]), 1.0)
    assert not t_ok[0] and r_ok[0]
    t_ok, r_ok = sic_outcome(np.array([0.0]), np.array([0.0]), 1.0)
    assert not t_ok[0] and not r_ok[0]


def test_sic_outcome_event_algebra_brute_force():
    # outage event for U_t: both first-stage SINRs below threshold, or
    # gamma_t below threshold while r is decodable first; mirrored for U_r
    g = 1.0
    vals = np.linspace(0.0, 5.0, 100)
    gt, gr = np.meshgrid(vals, vals)
    gt, gr = gt.ravel(), gr.ravel()
    t_ok, r_ok = sic_outcome(gt, gr, g)
    cross_t = gt / (gr + 1.0) >= g
    cross_r = gr / (gt + 1.0) >= g
    t_fail = (~cross_t & ~cross_r) | ((gt < g) & cross_r)
    r_fail = (~cross_t & ~cross_r) | ((gr < g) & cross_t)
    assert np.array_equal(~t_ok, t_fail)
    assert np.array_equal(~r_ok, r_fail)
    # both decoded exactly when one user is decodable first and the other
    # clears the threshold after cancellation
    both = (cross_t & (gr >= g)) | (cross_r & (gt >= g))
    assert np.array_equal(t_ok & r_ok, both)


def test_sic_outcome_monotone_in_own_snr():
    g = 1.0
    gr = np.full(200, 1.7)
    gt = np.linspace(0.0, 20.0, 200)
    t_ok, _ = sic_outcome(gt, gr, g)
    assert np.all(np.diff(t_ok.astype(int)) >= 0)


def test_user_symmetry():
    cfg = make_config()
    mirror = make_config(d_t=4.0, d_r=2.0)
    pol = TepPolicy(alpha_t=0.3, alpha_r=0.2, alpha_ap=0.5, beta_t=0.7, beta_r=0.3)
    swapped = TepPolicy(alpha_t=0.2, alpha_r=0.3, alpha_ap=0.5, beta_t=0.3, beta_r=0.7)
    a_t, a_r = uplink_snrs("tep", pol, cfg, 2.0, 3.0)
    b_t, b_r = uplink_snrs("tep", swapped, mirror, 3.0, 2.0)
    assert abs(a_t - b_r) < 1e-15 and abs(a_r - b_t) < 1e-15
    t1, r1 = sic_outcome(np.array([5.0]), np.array([1.5]), 1.0)
    t2, r2 = sic_outcome(np.array([1.5]), np.array([5.0]), 1.0)
    assert t1[0] == r2[0] and r1[0] == t2[0]


def test_tdma_users_decoupled():
    cfg_a = make_config()
    cfg_b = make_config(d_r=9.0)
    pol_a = TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.3, alpha_ap_r=0.2)
    pol_b = TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.3, alpha_ap_r=0.2)
    assert uplink_snrs("tdma", pol_a, cfg_a, 2.0, 3.0)[0] == uplink_snrs(
        "tdma", pol_b, cfg_b, 2.0, 5.0
    )[0]


def test_policy_validation():
    with pytest.raises(ValueError):
        TepPolicy(alpha_t=0.3, alpha_r=0.3, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
    with pytest.raises(ValueError):
        TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.7, beta_r=0.4)
    with pytest.raises(ValueError):
        TepPolicy(alpha_t=0.0, alpha_r=0.5, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
    with pytest.raises(ValueError):
        EepPolicy(alpha_et=0.4, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
    with pytest.raises(ValueError):
        EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=1.0, beta_r=0.0)
    with pytest.raises(ValueError):
        TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.3, alpha_ap_r=0.3)
    # valid constructions pass
    TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
    TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.25, alpha_ap_r=0.25)


def test_policy_validation_messages():
    with pytest.raises(ValueError) as err:
        TepPolicy(alpha_t=0.0, alpha_r=0.5, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
    assert str(err.value) == "alpha_t must lie strictly inside (0,1), got 0.0"
    with pytest.raises(ValueError) as err:
        EepPolicy(alpha_et=0.4, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
    assert str(err.value) == "alpha_et + alpha_it must equal 1"


def test_array_policy_validation():
    # a policy whose fields are arrays holds a batch; one bad element, or
    # one row whose sum group is off by more than the tolerance, fails it
    beta_r = np.array([0.4, 0.5, 0.3])

    def eep(alpha_et, beta_t=1.0 - beta_r):
        return EepPolicy(alpha_et=alpha_et, alpha_it=1.0 - alpha_et, beta_t=beta_t, beta_r=beta_r)

    good = eep(np.array([0.5, 0.2, 0.9]))
    assert np.array_equal(good.beta_r, beta_r)
    with pytest.raises(ValueError, match=r"^alpha_et must lie strictly inside \(0,1\), got 1.5$"):
        eep(np.array([0.5, 1.5, 0.9]))
    with pytest.raises(ValueError, match="alpha_et must lie strictly inside"):
        eep(np.array([0.5, np.nan, 0.9]))
    with pytest.raises(ValueError, match=r"^beta_t \+ beta_r must equal 1$"):
        eep(np.array([0.5, 0.2, 0.9]), beta_t=1.0 - beta_r + np.array([0.0, 0.0, 2e-9]))
    eep(np.array([0.5, 0.2, 0.9]), beta_t=1.0 - beta_r + np.array([0.0, 0.0, 5e-10]))  # within the tolerance

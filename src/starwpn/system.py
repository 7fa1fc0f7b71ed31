"""System model: geometry, protocol policies, the scheme table, uplink SNRs, SIC.

Two energy-constrained users (tagged "t" for the transmitted-side user and
"r" for the reflected-side user) harvest downlink power through a surface
with N elements and then send uplink data to an access point.  Three
protocols are modeled:

    tep   time-switching downlink charge, energy-splitting uplink (NOMA)
    eep   energy-splitting in both directions (NOMA)
    tdma  time-switching downlink, orthogonal uplink slots (baseline)

All block times are normalized to 1.  The combined channel of user x is the
co-phased magnitude sum G_x = sum_i h_i g_{x,i}; harvested energy scales with
G_x**2 and the uplink SNR with G_x**4.  The schemes differ only in what the
scheme table `SCHEMES` records for each of them.
"""

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .channel import ChannelLaw, GammaApprox, NakagamiParams

_SUM_TOL = 1e-9


def _check_policy(policy, *sum_groups) -> None:
    """Every field of `policy` lies strictly inside (0,1), and each group of field names sums to 1.

    The fields are floats, or equal-length arrays that hold a batch of
    policies; a batch fails on its first bad element.  The float path calls
    no numpy.
    """
    for name, value in vars(policy).items():
        if isinstance(value, np.ndarray):
            value = value[~((value > 0.0) & (value < 1.0))]  # the bad elements, NaN included
            if value.size:
                raise ValueError(f"{name} must lie strictly inside (0,1), got {value[0]}")
        elif not (0.0 < value < 1.0):
            raise ValueError(f"{name} must lie strictly inside (0,1), got {value}")
    for names in sum_groups:
        off = abs(sum(getattr(policy, name) for name in names) - 1.0) > _SUM_TOL
        if off.any() if isinstance(off, np.ndarray) else off:
            raise ValueError(f"{' + '.join(names)} must equal 1")


@dataclass(frozen=True)
class SystemConfig:
    """Physical and protocol-independent parameters.

    p_ap        access point transmit power (W)
    n0          noise power (W)
    d0          AP to surface distance (m)
    d_t, d_r    surface to user distances (m)
    exp0        path-loss exponent of the AP-surface segment
    exp_t/exp_r path-loss exponents of the surface-user segments
    n_elements  surface element count N
    fading_ris  Nakagami parameters of the AP-surface fades h_i
    fading_t/r  Nakagami parameters of the surface-user fades g_{x,i}
    rate        target rate R (bits/s/Hz); 2^R - 1 must be finite and > 0
    law         init only: the channel.ChannelLaw of n_elements and the
                three fading laws, whose fits this config takes, so that
                configs given one law object share its fits; by default a
                new one
    fit_t/r     the Gamma fits of the users' cascades, set from the above;
                one shared fit when both users' fading laws are equal, so
                that its tables are built once
    """

    p_ap: float
    n0: float
    d0: float
    d_t: float
    d_r: float
    exp0: float
    exp_t: float
    exp_r: float
    n_elements: int
    fading_ris: NakagamiParams
    fading_t: NakagamiParams
    fading_r: NakagamiParams
    rate: float
    law: InitVar[ChannelLaw] = None
    fit_t: GammaApprox = field(init=False, repr=False, compare=False)
    fit_r: GammaApprox = field(init=False, repr=False, compare=False)

    def __post_init__(self, law):
        for name in ("p_ap", "n0", "d0", "d_t", "d_r", "rate"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        try:
            threshold = 2.0 ** float(self.rate) - 1.0
        except OverflowError:
            threshold = math.inf
        if not 0 < threshold < math.inf:  # 2^R overflows, or rounds to 1 for R below about 1.6e-16
            raise ValueError(f"rate {self.rate} gives no finite positive decoding threshold 2^R - 1: "
                             f"system.rate_bps_hz is out of range")
        for name in ("exp0", "exp_t", "exp_r"):
            if not (1 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 1, got {getattr(self, name)}")
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        own = ChannelLaw(self.n_elements, self.fading_ris, self.fading_t, self.fading_r)
        if law is None:
            law = own
        elif law != own:
            raise ValueError(f"law {law} is not the law of n_elements, fading_ris, fading_t and fading_r")
        for user in ("t", "r"):
            try:  # the received power P * l_x^2 that snr_coefficients forms
                usable = 0 < self.p_ap * pathloss(self, user) ** 2 < math.inf
            except ArithmeticError:  # a power overflows, or underflows to a zero divisor
                usable = False
            if not usable:
                raise ValueError(f"the path loss of user {user} leaves no finite positive received power: "
                                 f"p_ap, d0, d_{user}, exp0 or exp_{user} is out of range")
            # the closed forms integrate over this support of the fitted quartic gain
            fit = getattr(law, f"fit_{user}")
            object.__setattr__(self, f"fit_{user}", fit)
            if not all(0 < x < math.inf for x in fit.support):
                raise ValueError(f"the fading of user {user} leaves no finite positive support of the quartic gain: "
                                 f"m_ris, omega_ris, m_{user} or omega_{user} is out of range")

    @property
    def snr_threshold(self) -> float:
        """Decoding threshold 2^R - 1, kept consistent with `rate` by construction."""
        return 2.0 ** self.rate - 1.0


@dataclass(frozen=True)
class TepPolicy:
    """Time split (alpha_t, alpha_r, alpha_ap) and uplink energy split (beta_t, beta_r).

    alpha_t/alpha_r are the per-user downlink charging fractions, alpha_ap the
    shared uplink fraction; beta_x is user x's share of the uplink surface.
    """

    alpha_t: float
    alpha_r: float
    alpha_ap: float
    beta_t: float
    beta_r: float

    def __post_init__(self):
        _check_policy(self, ("alpha_t", "alpha_r", "alpha_ap"), ("beta_t", "beta_r"))


@dataclass(frozen=True)
class EepPolicy:
    """Energy-splitting both ways: time split (alpha_et, alpha_it), surface split beta."""

    alpha_et: float
    alpha_it: float
    beta_t: float
    beta_r: float

    def __post_init__(self):
        _check_policy(self, ("alpha_et", "alpha_it"), ("beta_t", "beta_r"))


@dataclass(frozen=True)
class TdmaPolicy:
    """Orthogonal baseline: per-user charge fractions and per-user uplink slots."""

    alpha_t: float
    alpha_r: float
    alpha_ap_t: float
    alpha_ap_r: float

    def __post_init__(self):
        _check_policy(self, ("alpha_t", "alpha_r", "alpha_ap_t", "alpha_ap_r"))


def pathloss(config: SystemConfig, user: str) -> float:
    """Cascaded path loss l_x = 1 / (d0^exp0 * d_x^exp_x)."""
    if user == "t":
        return 1.0 / (config.d0 ** config.exp0 * config.d_t ** config.exp_t)
    if user == "r":
        return 1.0 / (config.d0 ** config.exp0 * config.d_r ** config.exp_r)
    raise ValueError(f"user must be 't' or 'r', got {user!r}")


@dataclass(frozen=True)
class Scheme:
    """Everything that sets one protocol apart from the others.

    policy     the scheme's policy dataclass
    noma       True when both users send in one uplink slot and the access
               point separates them by SIC; False for orthogonal slots
    shares     policy -> (share_t, share_r), each user's uplink time share
    snr_scale  (policy, k_t, k_r) -> user x's received power k_x = P * l_x^2
               times its SNR factor; the SNR coefficient is that product over
               share_x * N0 (see snr_coefficients)
    """

    policy: type
    noma: bool
    shares: Callable
    snr_scale: Callable


# the scheme table, keyed by scheme name
SCHEMES = {
    "tep": Scheme(
        TepPolicy,
        noma=True,
        shares=lambda p: (p.alpha_ap, p.alpha_ap),
        snr_scale=lambda p, k_t, k_r: (k_t * p.beta_t * p.alpha_t, k_r * p.beta_r * p.alpha_r),
    ),
    "eep": Scheme(
        EepPolicy,
        noma=True,
        shares=lambda p: (p.alpha_it, p.alpha_it),
        snr_scale=lambda p, k_t, k_r: (k_t * p.beta_t**2 * p.alpha_et, k_r * p.beta_r**2 * p.alpha_et),
    ),
    "tdma": Scheme(
        TdmaPolicy,
        noma=False,
        shares=lambda p: (p.alpha_ap_t, p.alpha_ap_r),
        snr_scale=lambda p, k_t, k_r: (k_t * p.alpha_t, k_r * p.alpha_r),
    ),
}


def scheme_spec(scheme: str) -> Scheme:
    """Table entry of a scheme name (case-insensitive)."""
    try:
        return SCHEMES[scheme.lower()]
    except KeyError:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}") from None


def snr_coefficients(scheme: str, policy, config: SystemConfig):
    """Per-user factors (c_t, c_r) such that the uplink SNR is c_x * G_x^4.

    Single source of truth for the SNR scaling of every scheme; the closed
    forms, the Monte Carlo engine, and the optimizer all consume these.

    tep:  c_x = P * l_x^2 * beta_x * alpha_x / (alpha_ap * N0)
    eep:  c_x = P * l_x^2 * beta_x^2 * alpha_et / (alpha_it * N0)
    tdma: c_x = P * l_x^2 * alpha_x / (alpha_ap_x * N0)

    The denominator is always the user's uplink share; the products are
    formed left to right in this order, so outputs stay bit-stable.  A
    policy whose fields are arrays gives arrays, equal element by element
    to the one-policy calls.
    """
    spec = scheme_spec(scheme)
    k_t = config.p_ap * pathloss(config, "t") ** 2
    k_r = config.p_ap * pathloss(config, "r") ** 2
    e_t, e_r = spec.snr_scale(policy, k_t, k_r)
    s_t, s_r = spec.shares(policy)
    return e_t / (s_t * config.n0), e_r / (s_r * config.n0)


def cell_groups(cells) -> list:
    """(scheme, config, policy) cells grouped by channel law, in order of first appearance.

    The channel law is all the combined gains' law depends on: N and the
    three fading laws.  Each group is a tuple (config, index, noma, c_t,
    c_r, g): the first config of the law, then per cell of the group, as
    arrays in cell order, its position in `cells`, its scheme's NOMA flag,
    its SNR coefficients and its decoding threshold.  The closed forms and
    the Monte Carlo engine both evaluate a whole group against one law.
    """
    groups = {}
    for i, (scheme, config, policy) in enumerate(cells):
        law = (config.n_elements, config.fading_ris, config.fading_t, config.fading_r)
        rows = groups.setdefault(law, (config, []))[1]
        rows.append((i, scheme_spec(scheme).noma, *snr_coefficients(scheme, policy, config), config.snr_threshold))
    return [(config, *(np.array(col) for col in zip(*rows))) for config, rows in groups.values()]


def uplink_snrs(scheme: str, policy, config: SystemConfig, g_t, g_r):
    """Per-user uplink SNRs (gamma_t, gamma_r) for realized gains."""
    c_t, c_r = snr_coefficients(scheme, policy, config)
    g_t = np.asarray(g_t, dtype=float)
    g_r = np.asarray(g_r, dtype=float)
    return c_t * g_t**4, c_r * g_r**4


def sic_outcome(gamma_t, gamma_r, gamma_th: float, scratch=None):
    """Vectorized SIC decode outcome (t_decoded, r_decoded).

    User x is decoded iff its cross SINR clears the threshold (decoded first,
    treating the other user as noise) or the other user is decoded first and
    the interference-free SNR gamma_x still clears the threshold.

    `scratch`, if given, is a pair (quotient, masks) of arrays to reuse: a
    float array shaped like the SNRs and a bool array of four such rows.
    The outcome is then written into masks[2] and masks[3], and the other
    rows and the quotient are overwritten.
    """
    gamma_t = np.asarray(gamma_t, dtype=float)
    gamma_r = np.asarray(gamma_r, dtype=float)
    if scratch is None:
        shape = np.broadcast_shapes(gamma_t.shape, gamma_r.shape, np.shape(gamma_th))
        scratch = np.empty(shape), np.empty((4, *shape), dtype=bool)
    quotient, masks = scratch
    t_cross, r_cross, t_ok, r_ok = (masks[i, ...] for i in range(4))  # views, 0-d for scalar SNRs
    # t_cross = gamma_t / (gamma_r + 1) >= gamma_th, r_cross likewise
    np.greater_equal(np.divide(gamma_t, np.add(gamma_r, 1.0, out=quotient), out=quotient), gamma_th, out=t_cross)
    np.greater_equal(np.divide(gamma_r, np.add(gamma_t, 1.0, out=quotient), out=quotient), gamma_th, out=r_cross)
    # t_ok = t_cross | (r_cross & (gamma_t >= gamma_th)), r_ok likewise
    np.greater_equal(gamma_t, gamma_th, out=t_ok)
    t_ok &= r_cross
    t_ok |= t_cross
    np.greater_equal(gamma_r, gamma_th, out=r_ok)
    r_ok &= t_cross
    r_ok |= r_cross
    return t_ok, r_ok

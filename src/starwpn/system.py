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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import ChannelLaw, NakagamiParams

_SUM_TOL = 1e-9


def _batch_size(values: dict) -> int:
    """The common length of the arrays among `values`, 1 if all are floats; arrays are 1-D and never broadcast."""
    shapes = {name: value.shape for name, value in values.items() if getattr(value, "ndim", 0)}
    if len(set(shapes.values())) > 1 or any(len(shape) != 1 for shape in shapes.values()):
        raise ValueError(f"the arrays of a batch must be 1-D and of equal length, got shapes {shapes}")
    return next(iter(shapes.values()), (1,))[0]


def _require(value, ok, message: str) -> None:
    """Raise ValueError(message.format(x)), x the first element of value (a float or 1-D array) where ok is False."""
    if not np.asarray(ok).all():  # np.all is slower on a batch of a few dozen
        raise ValueError(message.format(np.atleast_1d(value)[~np.atleast_1d(ok)][0].item()))


def _check_policy(policy, *sum_groups) -> None:
    """Every field of `policy` lies strictly inside (0,1), and each group of field names sums to 1.

    The fields are floats, or equal-length 1-D arrays that hold a batch of
    policies; a batch fails on its first bad element (NaN included).
    """
    _batch_size(vars(policy))
    for name, value in vars(policy).items():
        _require(value, (value > 0.0) & (value < 1.0), f"{name} must lie strictly inside (0,1), got {{}}")
    for names in sum_groups:
        if np.asarray(abs(sum(getattr(policy, name) for name in names) - 1.0) > _SUM_TOL).any():
            raise ValueError(f"{' + '.join(names)} must equal 1")


@dataclass(frozen=True)
class SystemConfig:
    """Physical and protocol-independent parameters.

    p_ap        access point transmit power (W)
    n0          noise power (W); a float, or a 1-D array for a batch
    d0          AP to surface distance (m)
    d_t, d_r    surface to user distances (m)
    exp0        path-loss exponent of the AP-surface segment
    exp_t/exp_r path-loss exponents of the surface-user segments
    n_elements  surface element count N
    fading_ris  Nakagami parameters of the AP-surface fades h_i
    fading_t/r  Nakagami parameters of the surface-user fades g_{x,i}
    rate        target rate R (bits/s/Hz); 2^R - 1 must be finite and > 0;
                a float, or a 1-D array for a batch
    law         the channel.ChannelLaw of n_elements and the three fading
                laws, which keeps the Gamma fits of the users' cascades; a
                given law is kept when it equals that law, and any other
                value (None by default) is replaced by a new one, so configs
                handed one law object share its fits and tables, and so
                does dataclasses.replace unless it changes N or a fading law
    snr_threshold  2^R - 1, set from rate one element at a time in Python
                floats: numpy's power is not bit-identical to Python's

    An array n0 or rate (both of one length) makes a batch of configs on
    one law, one per element (cell_groups); a check names the first bad one.
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
    law: ChannelLaw = field(default=None, repr=False, compare=False)
    snr_threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _batch_size({"n0": self.n0, "rate": self.rate})
        for name in ("p_ap", "n0", "d0", "d_t", "d_r", "rate"):
            value = getattr(self, name)
            _require(value, (value > 0) & (value < math.inf), f"{name} must be finite and > 0, got {{}}")
        # 2^R overflows from R = 1024 on, and rounds to 1 for R below about 1.6e-16
        threshold = [2.0 ** rate - 1.0 if rate < 1024 else math.inf for rate in np.atleast_1d(self.rate).tolist()]
        threshold = np.array(threshold) if np.ndim(self.rate) else threshold[0]
        _require(self.rate, (threshold > 0) & (threshold < math.inf), "rate {} gives no finite positive decoding "
                 "threshold 2^R - 1: system.rate_bps_hz is out of range")
        object.__setattr__(self, "snr_threshold", threshold)
        for name in ("exp0", "exp_t", "exp_r"):
            if not (1 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 1, got {getattr(self, name)}")
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        own = ChannelLaw(self.n_elements, self.fading_ris, self.fading_t, self.fading_r)
        if self.law != own:
            object.__setattr__(self, "law", own)
        for user in ("t", "r"):
            try:  # the received power P * l_x^2 that snr_coefficients forms
                usable = 0 < self.p_ap * pathloss(self, user) ** 2 < math.inf
            except ArithmeticError:  # a power overflows, or underflows to a zero divisor
                usable = False
            if not usable:
                raise ValueError(f"the path loss of user {user} leaves no finite positive received power: "
                                 f"p_ap, d0, d_{user}, exp0 or exp_{user} is out of range")
            # the closed forms integrate over this support of the fitted quartic gain
            if not all(0 < x < math.inf for x in getattr(self.law, f"fit_{user}").support):
                raise ValueError(f"the fading of user {user} leaves no finite positive support of the quartic gain: "
                                 f"n_elements, m_ris, omega_ris, m_{user} or omega_{user} is out of range")


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
        snr_scale=lambda p, k_t, k_r: (k_t * (p.beta_t * p.beta_t) * p.alpha_et,
                                       k_r * (p.beta_r * p.beta_r) * p.alpha_et),
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
    formed left to right in this order, and a square is a product, so
    outputs stay bit-stable.  A batch (an array n0 or policy fields) gives
    arrays, equal element by element to the one-row calls.
    """
    spec = scheme_spec(scheme)
    k_t = config.p_ap * pathloss(config, "t") ** 2
    k_r = config.p_ap * pathloss(config, "r") ** 2
    e_t, e_r = spec.snr_scale(policy, k_t, k_r)
    s_t, s_r = spec.shares(policy)
    return e_t / (s_t * config.n0), e_r / (s_r * config.n0)


def cell_groups(cells) -> list:
    """The rows of (scheme, config, policy) cells grouped by config.law, in order of first appearance.

    A batch cell (an array n0 or rate, or array policy fields, all 1-D and
    of one length, else ValueError) gives one row per element, any other
    cell one row; rows are numbered in cell order.  The channel law is all
    the combined gains' law depends on: N and the three fading laws.  Each
    group is a tuple (law, index, noma, c_t, c_r, g): the group's
    channel.ChannelLaw, then per row, as arrays, its number, its scheme's
    NOMA flag, its SNR coefficients and its decoding threshold.  The closed
    forms and the Monte Carlo engine both evaluate a whole group at once.
    """
    groups, start = {}, 0
    for scheme, config, policy in cells:
        size = _batch_size({"n0": config.n0, "rate": config.rate, **vars(policy)})
        cols = (*snr_coefficients(scheme, policy, config), config.snr_threshold)
        rows = groups.setdefault(config.law, [])
        rows.append((np.arange(start, start + size), np.full(size, scheme_spec(scheme).noma),
                     *(np.full(size, col) for col in cols)))
        start += size
    return [(law, *map(np.concatenate, zip(*rows))) for law, rows in groups.items()]


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

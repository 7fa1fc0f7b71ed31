"""The benchmark's own statement of the system model, apart from `starwpn`.

Every workload passes all of `PARAMS` to the program with `--set`, so the
checks below know the inputs without reading the program's defaults.  The
formulas restate the model that the `starwpn` docstrings define: Nakagami-m
envelopes, a moment-matched Gamma(N*k, rate theta) law for the co-phased sum
G of each user, uplink SNR c_x * G_x**4, and the SIC decode rule.  They share
no code with the package.
"""

import math
import warnings

from scipy import integrate, special, stats

PARAMS = {
    "system": {
        "p_ap_watts": 1.0,
        "d0_m": 30.0,
        "d_t_m": 2.0,
        "d_r_m": 4.0,
        "exp0": 2.0,
        "exp_t": 2.0,
        "exp_r": 2.0,
        "m_ris": 2.0,
        "omega_ris": 1.0,
        "m_t": 2.0,
        "omega_t": 1.0,
        "m_r": 2.0,
        "omega_r": 1.0,
    },
    "policy": {
        "tep_alpha_t": 0.25,
        "tep_alpha_r": 0.25,
        "tep_alpha_ap": 0.5,
        "tep_beta_t": 0.6,
        "tep_beta_r": 0.4,
        "eep_alpha_et": 0.5,
        "eep_alpha_it": 0.5,
        "eep_beta_t": 0.6,
        "eep_beta_r": 0.4,
        "tdma_alpha_t": 0.25,
        "tdma_alpha_r": 0.25,
        "tdma_alpha_ap_t": 0.25,
        "tdma_alpha_ap_r": 0.25,
    },
}


def set_args():
    """`--set section.key=value` arguments that pin every model input."""
    out = []
    for section, keys in PARAMS.items():
        for key, value in keys.items():
            out += ["--set", f"{section}.{key}={value!r}"]
    return out


def uplink_shares(scheme, policy):
    """Per-user uplink time share (share_t, share_r) of one block."""
    if scheme == "tep":
        return policy["tep_alpha_ap"], policy["tep_alpha_ap"]
    if scheme == "eep":
        return policy["eep_alpha_it"], policy["eep_alpha_it"]
    return policy["tdma_alpha_ap_t"], policy["tdma_alpha_ap_r"]


def snr_coefficients(scheme, sysp, policy, snr_db):
    """(c_t, c_r) with the uplink SNR of user x equal to c_x * G_x**4."""
    p = sysp["p_ap_watts"]
    n0 = p / 10.0 ** (snr_db / 10.0)
    loss = {
        x: 1.0 / (sysp["d0_m"] ** sysp["exp0"] * sysp[f"d_{x}_m"] ** sysp[f"exp_{x}"]) for x in "tr"
    }
    out = []
    for x in "tr":
        if scheme == "tep":
            c = policy[f"tep_beta_{x}"] * policy[f"tep_alpha_{x}"] / policy["tep_alpha_ap"]
        elif scheme == "eep":
            c = policy[f"eep_beta_{x}"] ** 2 * policy["eep_alpha_et"] / policy["eep_alpha_it"]
        else:
            c = policy[f"tdma_alpha_{x}"] / policy[f"tdma_alpha_ap_{x}"]
        out.append(p * loss[x] ** 2 * c / n0)
    return tuple(out)


def gain_law(sysp, user, n_elements):
    """Frozen scipy Gamma law of G_x, moment-matched to one cascade term h*g."""
    def mean_env(m, omega):
        return math.exp(special.gammaln(m + 0.5) - special.gammaln(m)) * math.sqrt(omega / m)

    mu1 = mean_env(sysp["m_ris"], sysp["omega_ris"]) * mean_env(sysp[f"m_{user}"], sysp[f"omega_{user}"])
    mu2 = sysp["omega_ris"] * sysp[f"omega_{user}"]
    var = mu2 - mu1 * mu1
    return stats.gamma(a=n_elements * mu1 * mu1 / var, scale=var / mu1)


def tdma_metrics(sysp, policy, snr_db, rate, n_elements):
    """(p_out_t, p_out_r, phi) of the orthogonal scheme from the Gamma CDF."""
    g = 2.0**rate - 1.0
    c_t, c_r = snr_coefficients("tdma", sysp, policy, snr_db)
    law_t, law_r = gain_law(sysp, "t", n_elements), gain_law(sysp, "r", n_elements)
    u_t, u_r = (g / c_t) ** 0.25, (g / c_r) ** 0.25
    return float(law_t.cdf(u_t)), float(law_r.cdf(u_r)), float(law_t.sf(u_t) * law_r.sf(u_r))


def _mass(law, lo, hi):
    """Pr[lo <= U < hi], formed in whichever tail keeps the difference exact."""
    if hi <= lo:
        return 0.0
    if lo > law.mean():
        return float(law.sf(lo) - law.sf(hi))
    return float(law.cdf(hi) - law.cdf(lo))


def _own_outage_given_other(law_own, c_own, c_other, g, v):
    """Pr[own user not decoded | other user's gain v] under the SIC rule.

    With U the own gain and gamma_o = c_other v**4, the own user is decoded
    iff U >= a (its cross SINR clears g) or b_lo <= U <= b_hi (the other user
    is decoded first, which needs gamma_o >= g (c_own U**4 + 1), and the own
    interference-free SNR clears g).
    """
    gamma_o = c_other * v**4
    a = (g * (gamma_o + 1.0) / c_own) ** 0.25
    b_lo = (g / c_own) ** 0.25
    b_hi = ((gamma_o / g - 1.0) / c_own) ** 0.25 if gamma_o > g else 0.0
    if b_hi <= b_lo:
        return float(law_own.cdf(a))
    return float(law_own.cdf(min(a, b_lo))) + _mass(law_own, max(b_lo, b_hi), a)


def noma_metrics_quad(scheme, sysp, policy, snr_db, rate, n_elements, rel=1e-11):
    """(p_out_t, p_out_r, phi) of a NOMA scheme by QUADPACK over the Gamma model.

    Each probability is one adaptive integral over the other user's gain of
    the exact conditional probability; the breakpoints are where the
    conditional sets change shape.  phi is the own-decoded probability
    restricted to other-user gains whose SNR clears g, since both users are
    decoded only if the later one clears g alone.
    """
    g = 2.0**rate - 1.0
    c = dict(zip("tr", snr_coefficients(scheme, sysp, policy, snr_db)))
    law = {x: gain_law(sysp, x, n_elements) for x in "tr"}

    def integral(own, other, fn):
        lo, hi = law[other].ppf(1e-18), law[other].isf(1e-18)
        cuts = [g, g * (1.0 + g)] + ([g / (1.0 - g)] if g < 1.0 else [])
        points = sorted(p for p in ((x / c[other]) ** 0.25 for x in cuts) if lo < p < hi)
        with warnings.catch_warnings():
            # a relative target of 1e-11 cannot be met on values near 1e-30;
            # the comparison allows an absolute error far above what remains
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                lambda v: fn(v) * law[other].pdf(v), lo, hi, points=points or None,
                epsabs=0.0, epsrel=rel, limit=400,
            )
        return val

    def outage(own, other):
        return integral(own, other, lambda v: _own_outage_given_other(law[own], c[own], c[other], g, v))

    v_star = (g / c["r"]) ** 0.25
    phi = integral(
        "t", "r",
        lambda v: 0.0 if v < v_star else 1.0 - _own_outage_given_other(law["t"], c["t"], c["r"], g, v),
    )
    return outage("t", "r"), outage("r", "t"), phi

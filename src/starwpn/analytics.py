"""Closed-form outage, throughput, success probability, and average AoI.

Every scheme reduces to a pair of positive SNR coefficients (c_t, c_r) such
that user x's uplink SNR is c_x * X with X the quartic gain G_x**4 (see
system.snr_coefficients).  With decoding threshold g, given the other
user's quartic gain y, the own cross SINR clears g when the own gain lies
above b = g*(c_o*y + 1)/c, and the other user's when it lies below
a = (c_o*y - g)/(c*g).  The SIC outage of a user decomposes into two
disjoint events:

    deadlock   neither cross SINR clears g: the own gain lies in [a, b]
    preempted  the other user is decoded first and the own interference-free
               SNR still misses g

Each event is the probability that the own gain lies in a window of a and b,
integrated against the other user's quartic-gain density.  The law of the
quartic gain (its survival, window mass, quantiles and density) comes from
channel; this module only integrates it.  The two
decodable-first probabilities (own gain above b), integrals over (0, inf),
use a Gauss-Hermite rule after a log substitution (the rule is centered and
scaled per integrand from a two-stage scan, 93 points at step 1 and then 41
around the bump, keeping the fixed-order rule accurate across twenty decades
of SNR); they do not depend on any panel count and are computed once per
row.  Every other piece is one call of _window_int: the own gain above b, in
[a, b] or in [b, a], on composite Gauss-Kronrod (QK15) panels over one of
two ranges clipped to the density's support, its _TAIL_MASS (1e-28) lower
and upper quantiles y_lo and y_hi.  The head (0, g/c_o) gets log-uniform
panels on [max(y_lo, 2^-96 * upper), upper], upper = min(g/c_o, y_hi), which
refine toward the integrable endpoint x^((nk-4)/4), plus one panel from 0; a
tail [lower, y_hi] gets log-uniform panels, of zero width when the range is
empty.  Here nk = N*k is the continuous Gamma shape of the co-phased sum.
Sums, densities, and kernels are combined in log space and exponentiated
once, so N = 30 (Gamma shape around 107) stays within double range.

For thresholds below one (R < 1) the two "decoded first" events are no
longer exclusive; the overlap (both cross SINRs clear g, own gain in [b, a])
is integrated over the tail y > g/(c_o*(1 - g)) and restores exact
inclusion-exclusion.

When the deadlock probability obtained by inclusion-exclusion falls under
1e-5 it is dominated by cancellation noise, so it is recomputed directly,
as the [a, b] window integrated over the head and over the tail y > g/c_o.

Every row is checked by its embedded Gauss rule: one pass at 16 panels per
piece gives each of p_out_t, p_out_r and phi by the 7-point Gauss and the
15-point Kronrod rule, and a row where the two differ by more than
max(_CHECK_ABS, _CHECK_REL * |K15|) is redone at 32, 64, 128 and 256 panels;
past that, QuadratureError is raised.  The K15 value is returned, so a row's
value does not depend on the rows evaluated with it.  The check does not see
the Gauss-Hermite terms, which are the same at every panel count: at N = 1
the 30-node rule puts up to about 3.3e-8 into p_out_t and 1e-8 into phi,
unchecked.  Probabilities are clamped to [0, 1] only after the check passes;
clamp events are counted in `clamp_stats`.

closed_forms is the one entry: it takes (scheme, config, policy) cells, the
input montecarlo.mc_counts takes, and groups them by channel law (N and the
three fading laws) with system.cell_groups, so a group shares one pair of
Gamma fits.  A group's NOMA cells go to noma_metrics_batch, which feeds the
checked evaluator in blocks of _ROW_BLOCK rows to bound its working memory;
its orthogonal cells are one vectorized Gamma CDF and survival evaluation.
outage, success_prob and perf_report are one-cell calls of it, and the CLI
and the optimizer pass their whole cell lists.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import system
from .channel import (
    QuadratureRule, gamma_fit, gauss_hermite_rule, log_quartic_gain_pdf, quartic_gain_cdf, quartic_gain_mass,
    quartic_gain_quantiles, quartic_gain_sf,
)

__all__ = [
    "QuadratureError",
    "PerfReport",
    "clamp_stats",
    "closed_forms",
    "outage",
    "success_prob",
    "sum_throughput",
    "user_throughput",
    "average_aoi",
    "perf_report",
    "noma_metrics_batch",
]


class QuadratureError(RuntimeError):
    """A nested quadrature refinement failed to reach its tolerance."""


@dataclass
class ClampStats:
    """Counters for probability clamping; purely diagnostic.  Callers may
    evaluate closed forms on any thread, so every update holds the lock."""

    events: int = 0
    checked: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, checked: int, events: int) -> None:
        with self._lock:
            self.checked += checked
            self.events += events

    def reset(self) -> None:
        with self._lock:
            self.events = 0
            self.checked = 0


clamp_stats = ClampStats()


@dataclass(frozen=True)
class PerfReport:
    """One scheme's full performance summary at a single operating point."""

    p_out_t: float
    p_out_r: float
    sum_throughput: float
    success_prob: float
    avg_aoi: float


# ----------------------------------------------------------------------
# numerical core: batched 1-D integrals of incomplete-gamma kernels
# against the quartic-gain density
# ----------------------------------------------------------------------

# QUADPACK's QK15 pair on [-1, 1] (Piessens et al., 1983), mirrored from x >= 0: the 15 Kronrod nodes
# and two weight rows, the embedded 7-point Gauss rule (0 at the Kronrod-only nodes) and the Kronrod rule
_GK_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
         0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_GK_W = ((0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0, 0.4179591836734694),
         (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
          0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782))
_GK_NODES = np.concatenate((np.negative(_GK_X), _GK_X[-2::-1]))
_GK_WEIGHTS = np.concatenate((_GK_W, np.array(_GK_W)[:, -2::-1]), axis=1)
_EDGE_FLOOR = 2.0**-96  # lowest log-uniform edge relative to the upper limit
_TINY_LOG = 1e-300
_DEADLOCK_SWITCH = 1e-5  # below this, inclusion-exclusion is noise-dominated
_TAIL_MASS = 1e-28  # density mass ignored in each tail beyond the panel range
_PANELS_FIRST = 16  # every row starts at 16 Gauss-Kronrod panels ...
_PANELS_LAST = 256  # ... and failing rows double up to 256
_CHECK_ABS = 1e-9
_CHECK_REL = 1e-7
_ROW_BLOCK = 16  # NOMA rows per kernel call; bounds the working memory


def _gh_log_integral(rule: QuadratureRule, log_fn, rows: int) -> np.ndarray:
    """Integrate h(y) over (0, inf) per row, h given in log space.

    Substituting y = e^v gives an integrand concentrated around a single
    bump in v (log-concave for Gamma shapes N*k >= 1).  A scan at step 1
    over e^-46..e^46 locates its center and width, a second scan over
    center +- clip(6 * max(width, 0.5), 3, 46) refines them, and the
    Gauss-Hermite rule is applied on the recentered, rescaled axis.
    """
    center, half, dead = np.zeros(rows), np.full(rows, 46.0), np.zeros(rows, dtype=bool)
    for points in (93, 41):
        v = center[:, None] + half[:, None] * np.linspace(-1.0, 1.0, points)
        scan = log_fn(np.exp(v)) + v
        scan = np.where(np.isfinite(scan), scan, -np.inf)
        peak = scan.max(axis=1)
        dead |= ~np.isfinite(peak)
        w = np.exp(scan - np.where(dead, 0.0, peak)[:, None])
        sw = w.sum(axis=1)
        sw = np.where(sw > 0, sw, 1.0)
        center = (w * v).sum(axis=1) / sw
        width = np.sqrt(np.maximum((w * (v - center[:, None]) ** 2).sum(axis=1) / sw, 0.0))
        half = np.clip(6.0 * np.maximum(width, 0.5), 3.0, 46.0)
    scale = np.clip(width * np.sqrt(2.0), 0.05, 8.0)

    x = center[:, None] + scale[:, None] * rule.nodes[None, :]
    lv = log_fn(np.exp(x)) + x + rule.nodes[None, :] ** 2
    lv = np.where(np.isfinite(lv), lv, -np.inf)
    mx = lv.max(axis=1)
    ok = np.isfinite(mx) & ~dead
    mx_safe = np.where(ok, mx, 0.0)
    out = scale * np.exp(mx_safe) * (rule.weights[None, :] * np.exp(lv - mx_safe[:, None])).sum(axis=1)
    return np.where(ok, out, 0.0)


def _panel_nodes(edges: np.ndarray):
    """Composite Gauss-Kronrod nodes (rows, n) and (G7, K15) weights (2, rows, n) for per-row edges."""
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    x = mid[:, :, None] + half[:, :, None] * _GK_NODES
    w = half[:, :, None] * _GK_WEIGHTS[:, None, None, :]
    rows = edges.shape[0]
    return x.reshape(rows, -1), w.reshape(2, rows, -1)


def _log_uniform_edges(lo: np.ndarray, hi: np.ndarray, npanel: int) -> np.ndarray:
    frac = np.linspace(0.0, 1.0, npanel + 1)
    return lo[:, None] * (hi / lo)[:, None] ** frac[None, :]


def _s_int(fit_q, fit_p, cq, cp, g, rule):
    """Pr[c_q X >= g (c_p Y + 1)]: survival kernel integrated over Y's density."""

    def log_fn(y):
        q = quartic_gain_sf(fit_q, (g[:, None] * (cp[:, None] * y + 1.0)) / cq[:, None])
        return np.log(np.maximum(q, _TINY_LOG)) + log_quartic_gain_pdf(fit_p, y)

    return _gh_log_integral(rule, log_fn, g.size)


def _window_int(kernel, fit_q, fit_p, support_p, cq, cp, g, npanel, lower=None):
    """(G7, K15) integrals over the other user's quartic gain y of an SIC window kernel.

    Given y, the own cross SINR clears g above b = g (c_p y + 1) / c_q and
    the other user's clears it below a = (c_p y - g) / (c_q g).  kernel is
    the probability that the own gain lies above b ("first", decodable
    first), in [a, b] ("deadlock") or in [b, a] ("overlap").  The range picks
    the panels: lower=None is the head (0, g/c_p), with npanel - 1
    log-uniform panels on [lo, upper], upper = min(g/c_p, y_hi) and
    lo = max(y_lo, upper * 2^-96), plus one panel on [0, lo]; otherwise the
    tail [lower, y_hi] in npanel log-uniform panels, which an empty range
    collapses to zero width at y_hi, so that it integrates to exactly 0.
    """
    y_lo, y_hi = support_p
    if lower is None:
        upper = np.minimum(g / cp, y_hi)
        lo = np.minimum(np.maximum(y_lo, upper * _EDGE_FLOOR), upper)
        edges = np.concatenate((np.zeros((g.size, 1)), _log_uniform_edges(lo, upper, npanel - 1)), axis=1)
    else:
        hi = np.full_like(g, y_hi)
        edges = _log_uniform_edges(np.minimum(np.maximum(lower, y_lo), hi), hi, npanel)
    x, w = _panel_nodes(edges)
    g, cq, cpy = g[:, None], cq[:, None], cp[:, None] * x
    b = g * (cpy + 1.0) / cq
    if kernel == "first":
        kern = quartic_gain_sf(fit_q, b)
    else:
        a = (cpy - g) / (cq * g)
        kern = quartic_gain_mass(fit_q, a, b) if kernel == "deadlock" else quartic_gain_mass(fit_q, b, a)
    return (kern * np.exp(log_quartic_gain_pdf(fit_p, x)) * w).sum(axis=-1)


def _noma_core(fit_t, fit_r, supports, c_t, c_r, g, s1, s2, npanel):
    """Batched raw (p_out_t, p_out_r, phi) at one panel count, by G7 and K15.

    c_t, c_r, g, s1, s2 are equal-length 1-D arrays, s1 and s2 the two
    decodable-first probabilities (_s_int, which does not depend on the
    panel count); the Gamma fits and their supports are shared by the
    whole batch.  Returns a (2, 3, rows) array, not yet clamped; the K15
    deadlock picks the direct branch for both rules.
    """
    sup_t, sup_r = supports
    c_ab = _window_int("first", fit_t, fit_r, sup_r, c_t, c_r, g, npanel)
    c_ba = _window_int("first", fit_r, fit_t, sup_t, c_r, c_t, g, npanel)
    overlap = np.zeros((2, g.size))  # both decodable first: possible only for g < 1
    sub = g < 1.0
    if sub.any():
        cts, crs, gs = c_t[sub], c_r[sub], g[sub]
        lower = gs / (cts * (1.0 - gs))
        overlap[:, sub] = _window_int("overlap", fit_r, fit_t, sup_t, crs, cts, gs, npanel, lower=lower)

    deadlock = 1.0 - s1 - s2 + overlap
    small = deadlock[1] <= _DEADLOCK_SWITCH
    if small.any():
        args = ("deadlock", fit_t, fit_r, sup_r, c_t[small], c_r[small], g[small], npanel)
        deadlock[:, small] = _window_int(*args) + _window_int(*args, lower=g[small] / c_r[small])

    p_t = deadlock + c_ba  # preempted term integrates over the own gain
    p_r = deadlock + c_ab
    phi = (s1 - c_ab) + (s2 - c_ba) - overlap
    return np.stack((p_t, p_r, phi), axis=1)


def _clamp_probs(values: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"non-finite probability from {where}")
    clamp_stats.add(values.size, int(np.count_nonzero((values < 0.0) | (values > 1.0))))
    return np.clip(values, 0.0, 1.0)


def _noma_rows(fit_t, fit_r, c_t, c_r, g, rule) -> np.ndarray:
    """Checked, clamped (p_out_t, p_out_r, phi) as a (3, rows) array.

    Every row starts with one 16-panel Gauss-Kronrod pass; rows whose G7
    and K15 values disagree beyond max(_CHECK_ABS, _CHECK_REL * |K15|) are
    redone at twice the panels, up to 256, and a row still failing then
    raises QuadratureError.  Each row returns its K15 value, so a row's
    values do not depend on the rest of the batch.
    """
    supports = (quartic_gain_quantiles(fit_t, _TAIL_MASS), quartic_gain_quantiles(fit_r, _TAIL_MASS))
    s1 = _s_int(fit_t, fit_r, c_t, c_r, g, rule)  # t decodable first
    s2 = _s_int(fit_r, fit_t, c_r, c_t, g, rule)  # r decodable first
    out = np.empty((3, g.size))
    todo = np.arange(g.size)
    npanel = _PANELS_FIRST
    while todo.size:
        g7, k15 = _noma_core(fit_t, fit_r, supports, c_t[todo], c_r[todo], g[todo], s1[todo], s2[todo], npanel)
        miss = np.abs(g7 - k15) > np.maximum(_CHECK_ABS, _CHECK_REL * np.abs(k15))
        redo = miss.any(axis=0)
        out[:, todo[~redo]] = k15[:, ~redo]
        if redo.any() and npanel == _PANELS_LAST:
            k, row = np.argwhere(miss)[0]
            raise QuadratureError(
                f"residual quadrature did not converge for {('p_out_t', 'p_out_r', 'phi')[k]}: "
                f"{g7[k, row].item()!r} vs {k15[k, row].item()!r} after panel doubling"
            )
        todo, npanel = todo[redo], 2 * npanel
    return _clamp_probs(out, "noma closed form")


def noma_metrics_batch(fit_t, fit_r, c_t, c_r, g, rule) -> np.ndarray:
    """Checked, clamped (p_out_t, p_out_r, phi) of NOMA rows as a (3, rows) array.

    All rows share the Gamma fits fit_t and fit_r; c_t, c_r and g are
    per-row arrays (g may be a scalar).  Rows are evaluated in blocks of
    _ROW_BLOCK, which bounds the kernel's working memory; a row's values do
    not depend on its block.  Raises QuadratureError if a row does not
    converge.
    """
    c_t = np.atleast_1d(np.asarray(c_t, dtype=float))
    c_r = np.atleast_1d(np.asarray(c_r, dtype=float))
    g = np.broadcast_to(np.asarray(g, dtype=float), c_t.shape).copy()
    out = np.empty((3, c_t.size))
    for start in range(0, c_t.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[:, rows] = _noma_rows(fit_t, fit_r, c_t[rows], c_r[rows], g[rows], rule)
    return out


# ----------------------------------------------------------------------
# public closed forms
# ----------------------------------------------------------------------


def closed_forms(cells, quad: QuadratureRule = None) -> np.ndarray:
    """Checked (p_out_t, p_out_r, phi) of every (scheme, config, policy) cell.

    Returns a (len(cells), 3) array in the order given.  Cells are grouped by
    channel law (system.cell_groups), and each group's NOMA cells are
    evaluated in one call of noma_metrics_batch; an orthogonal scheme's users
    fail independently, so its outages are per-user Gamma CDFs and its
    success probability their product of survivals.  quad=None means a 30-node
    Gauss-Hermite rule.
    """
    if quad is None:
        quad = gauss_hermite_rule(30)
    out = np.empty((len(cells), 3))
    for config, index, noma, c_t, c_r, g in system.cell_groups(cells):
        fit_t = gamma_fit(config.fading_ris, config.fading_t, config.n_elements)
        fit_r = gamma_fit(config.fading_ris, config.fading_r, config.n_elements)
        if noma.any():
            out[index[noma]] = noma_metrics_batch(fit_t, fit_r, c_t[noma], c_r[noma], g[noma], quad).T
        orth = ~noma
        if orth.any():
            w_t, w_r = g[orth] / c_t[orth], g[orth] / c_r[orth]
            vals = np.stack((quartic_gain_cdf(fit_t, w_t), quartic_gain_cdf(fit_r, w_r),
                             quartic_gain_sf(fit_t, w_t) * quartic_gain_sf(fit_r, w_r)))
            out[index[orth]] = _clamp_probs(vals, "orthogonal closed form").T
    return out


def outage(scheme: str, config: system.SystemConfig, policy, quad: QuadratureRule = None):
    """Per-user outage probabilities (p_out_t, p_out_r) of one scheme."""
    p_t, p_r, _ = closed_forms([(scheme, config, policy)], quad)[0].tolist()
    return p_t, p_r


def success_prob(scheme: str, config: system.SystemConfig, policy, quad: QuadratureRule = None) -> float:
    """Probability that both users are decoded in one block."""
    return closed_forms([(scheme, config, policy)], quad)[0, 2].item()


def sum_throughput(scheme: str, outage_pair, rate: float, policy) -> float:
    """Block-normalized sum throughput from a per-user outage pair.

    NOMA users share one uplink slot; orthogonal users each send in their
    own.
    """
    p_t, p_r = outage_pair
    for p in (p_t, p_r):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"outage probabilities must lie in [0,1], got {outage_pair}")
    spec = system.scheme_spec(scheme)
    s_t, s_r = spec.shares(policy)
    if spec.noma:
        return rate * s_t * (2.0 - p_t - p_r)
    return rate * (s_t * (1.0 - p_t) + s_r * (1.0 - p_r))


def user_throughput(scheme: str, user: str, p_out: float, rate: float, policy) -> float:
    """One user's throughput contribution (its share of sum_throughput)."""
    if user not in ("t", "r"):
        raise ValueError(f"user must be 't' or 'r', got {user!r}")
    share = system.scheme_spec(scheme).shares(policy)["tr".index(user)]
    return rate * share * (1.0 - p_out)


def average_aoi(phi: float) -> float:
    """Average age of information 1/phi; phi = 0 maps to float('inf')."""
    if not (0.0 <= phi <= 1.0):
        raise ValueError(f"success probability must lie in [0,1], got {phi}")
    if phi == 0.0:
        return math.inf
    return 1.0 / phi


def perf_report(scheme: str, config: system.SystemConfig, policy, quad: QuadratureRule = None) -> PerfReport:
    """All closed-form metrics of one scheme at one operating point."""
    p_t, p_r, phi = closed_forms([(scheme, config, policy)], quad)[0].tolist()
    return PerfReport(
        p_out_t=p_t,
        p_out_r=p_r,
        sum_throughput=sum_throughput(scheme, (p_t, p_r), config.rate, policy),
        success_prob=phi,
        avg_aoi=average_aoi(phi),
    )

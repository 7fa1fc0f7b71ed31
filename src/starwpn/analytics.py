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
channel; this module only integrates it, on composite Gauss-Kronrod (QK15)
panels over the density's support, its TAIL_MASS (1e-28) lower and upper
quantiles y_lo and y_hi, which the fit keeps (GammaApprox.support).  One
layout, _panels, serves every integral: a head (0, s) of a panel on
[0, lo] and log-uniform panels on [lo, s], and a tail [s, top] of
log-uniform panels, split at the kernel's edge s.  Inside a log-uniform
panel the nodes are uniform in ln y, where the density's
integrable endpoint y^((nk-4)/4) (nk = N*k, the Gamma shape of the
co-phased sum) is a smooth exponential.  The tail runs until the density
above s keeps TAIL_MASS of its own mass, so a tail from near or past y_hi
is not cut off.  User x's decodable-first kernel (own gain above b) is
integrated once, split at s = g/c_o: the head H_x (the other user, decoded
next, misses g) and the tail T_x (it clears g) are sums of non-negative
terms.  So phi = T_t + T_r - overlap never cancels, p_out_t = deadlock +
H_r, and the deadlock is 1 - (H_t + T_t) - (H_r + T_r) + overlap.

Both users' decodable-first passes run as one stacked pass over 2 x rows:
the rows on r's gain, split at g/c_r, then the rows on t's gain, split at
g/c_t.  So the panel layout, the table lookup and the G7/K15 contraction
run once per call.  The calls into the law (the survival and inverse
survival that end the tail, the density, the survival table) run once per
distinct fit (_by_fit): once in all when both users share one fit, as
system.SystemConfig arranges for equal laws, and once per half otherwise.
Every array op is elementwise or reduces within a row, so a row's values
are those of a pass that ran each user on its own.

For thresholds below one (R < 1) the two "decoded first" events are no
longer exclusive; the overlap (both cross SINRs clear g, own gain in [b, a])
is integrated over the tail y > g/(c_o*(1 - g)) and restores exact
inclusion-exclusion.

When the deadlock probability obtained by inclusion-exclusion falls under
1e-5 it is dominated by cancellation noise, so it is recomputed directly,
as the [a, b] window integrated on the nodes of the decodable-first pass
split at g/c_r; for g < 1 the window closes at y = g/(c_r*(1 - g)), where
its own tail ends.

The decodable-first kernel reads the own survival from the fit's checked
survival table, and the overlap and deadlock windows read their mass from
the fit's CDF and survival tables (channel.quartic_gain_table_mass), so no
incomplete gamma function is evaluated at a kernel node unless a window
end lies below the lower quantile or past the survival table's top.  The
panel layout calls the exact law.  The G7/K15 check below cannot see the
tables' interpolation error, since both rules read the same table values;
the tables' build checks bound it (1e-12 relative where the law is at
least 1e-30, 1e-10 down to 1e-300).  A window's mass is a difference of
two such values, so its relative error can be larger where the two nearly
cancel.

Every row is checked by its embedded Gauss rule: one pass at 16 panels per
piece gives each of p_out_t, p_out_r and phi by the 7-point Gauss and the
15-point Kronrod rule, and a row where the two differ by more than
max(_CHECK_ABS, _CHECK_REL * |K15|) is redone at 32, 64, 128 and 256 panels;
past that, QuadratureError is raised.  The K15 value is returned, so a row's
value does not depend on the rows evaluated with it.  Every term of a row is
a panel sum, so the check sees all of them, at N = 1 too.  Probabilities
are clamped to [0, 1] only after the check passes; clamp events are counted
in `clamp_stats`.

closed_forms is the one entry, and the only caller of noma_metrics_batch.
It takes (scheme, config, policy) cells, as montecarlo.mc_counts does;
system.cell_groups gives one row per cell, or per element of a batch cell
(an array n0 or rate, or array policy fields), and groups the rows by
config.law (N and the three fading laws), so a group shares the Gamma fits
and tables of one channel.ChannelLaw.  A group's NOMA rows go to
noma_metrics_batch, which feeds the checked evaluator in blocks of
_ROW_BLOCK rows to bound its working memory; its orthogonal rows are one
vectorized Gamma CDF and survival evaluation.  outage, success_prob and
perf_report are one-row calls; the CLI passes a batch cell per scheme (and
N), and optimizer.evaluate_batch one cell that holds a GA batch.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import system
from .channel import (
    TAIL_MASS, log_quartic_gain_pdf, quartic_gain_cdf, quartic_gain_isf, quartic_gain_sf,
    quartic_gain_table_mass,
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
_EDGE_FLOOR = 2.0**-96  # lowest log-uniform head edge, relative to y_hi
_DEADLOCK_SWITCH = 1e-5  # below this, inclusion-exclusion is noise-dominated
_PANELS_FIRST = 16  # every row starts at 16 Gauss-Kronrod panels ...
_PANELS_LAST = 256  # ... and failing rows double up to 256
_CHECK_ABS = 1e-9
_CHECK_REL = 1e-7
_ROW_BLOCK = 64  # NOMA rows per kernel call; bounds the working memory


def _by_fit(law, fits, x):
    """law(fit, x) with the rows of x in len(fits) equal blocks, block i under fits[i].

    A single call over all rows when every block has the same fit, one call
    per block otherwise.
    """
    if all(fit is fits[0] for fit in fits):
        return law(fits[0], x)
    return np.concatenate([law(fit, part) for fit, part in zip(fits, np.split(x, len(fits)))])


def _panels(fits, start, npanel, head=True, stop=np.inf):
    """QK15 nodes y (rows, n) and density-weighted (G7, K15) weights (2, rows, n) on the other user's gain.

    The rows fall into len(fits) equal blocks, block i on the gain whose
    Gamma fit is fits[i].  The tail [start, top] is raised to y_lo at its
    start and ends at stop or where TAIL_MASS of the density's mass above
    start remains, whichever comes first, so that a tail from near or past
    y_hi is not cut off (top = start where that mass underflows).  With
    head, the head (0, min(start, y_hi)) comes first, as a panel on [0, lo],
    lo = min(max(y_lo, y_hi * 2^-96), start), and log-uniform panels on
    [lo, min(start, y_hi)]; head and tail share the other npanel - 1 panels
    in proportion to their log-lengths, at least four each (one for an
    empty range).  Without head, the tail gets all npanel panels.  On the
    log-uniform panels the nodes are uniform in ln y, where the density's
    power-law end y^((nk-4)/4) is a smooth exponential.  Also returns the
    number of head panels per row (rows, 1), counting [0, lo]; they come
    first.
    """
    rows = start.size
    y_lo, y_hi = np.repeat(np.array([fit.support for fit in fits]).T, rows // len(fits), axis=1)
    start = np.maximum(start, y_lo)
    beyond = TAIL_MASS * _by_fit(quartic_gain_sf, fits, start)
    top = np.where(beyond > 0.0, _by_fit(quartic_gain_isf, fits, beyond), start)
    u_start = np.log(start)
    u_tail = np.log(np.maximum(np.minimum(top, stop), start)) - u_start
    n = npanel - 1 if head else npanel
    if head:
        split = np.minimum(start, y_hi)
        lo = np.minimum(np.maximum(y_lo, y_hi * _EDGE_FLOOR), split)
        u_lo, u_head = np.log(lo), np.log(split / lo)
        share = u_head / np.where(u_head + u_tail > 0.0, u_head + u_tail, 1.0)
        n_head = np.clip(np.rint(n * share), np.where(u_head > 0.0, 4, 1), n - np.where(u_tail > 0.0, 4, 1))
    else:
        u_lo, u_head, n_head = np.zeros(rows), np.zeros(rows), np.zeros(rows)
    j = np.arange(n)
    in_head = j < n_head[:, None]
    width = np.where(in_head, (u_head / np.maximum(n_head, 1.0))[:, None], (u_tail / (n - n_head))[:, None])
    left = np.where(in_head, u_lo[:, None] + j * width, u_start[:, None] + (j - n_head[:, None]) * width)
    y = np.exp((left + 0.5 * width)[:, :, None] + 0.5 * width[:, :, None] * _GK_NODES)
    w = 0.5 * width[:, :, None] * _GK_WEIGHTS[:, None, None, :] * y
    if head:  # the [0, lo] panel, linear in y
        y = np.concatenate(((0.5 * lo)[:, None, None] * (1.0 + _GK_NODES), y), axis=1)
        w = np.concatenate(((0.5 * lo)[:, None, None] * _GK_WEIGHTS[:, None, None, :], w), axis=2)
        n_head = n_head + 1
    y = y.reshape(rows, -1)
    return y, w.reshape(2, rows, -1) * np.exp(_by_fit(log_quartic_gain_pdf, fits, y)), n_head[:, None]


def _first_int(fits_q, cq, cp, g, y, wf, n_head):
    """(G7, K15) integrals, each (2, rows), of the own decodable-first kernel over the head and the tail.

    Given the other user's quartic gain y, the own gain clears
    b = g (c_p y + 1) / c_q with probability Q_q(b), read from the survival
    table of the own fit; the rows fall into len(fits_q) equal blocks as in
    _panels, and y, wf and n_head are _panels(fits_p, g / c_p, npanel).
    Both are sums of non-negative terms.
    """
    b = g[:, None] * (cp[:, None] * y + 1.0) / cq[:, None]
    kern = _by_fit(lambda fit, x: fit.survival_table(x), fits_q, b)
    panels = (kern * wf).reshape(2, g.size, -1, _GK_NODES.size).sum(axis=-1)
    head = np.arange(panels.shape[-1]) < n_head
    return np.where(head, panels, 0.0).sum(axis=-1), np.where(head, 0.0, panels).sum(axis=-1)


def _window_int(kernel, fit_q, cq, cp, g, y, wf):
    """(G7, K15) integrals over the other user's quartic gain y of an SIC window kernel.

    Given y, the own cross SINR clears g above b = g (c_p y + 1) / c_q and
    the other user's clears it below a = (c_p y - g) / (c_q g).  kernel is
    the probability that the own gain lies in [a, b] ("deadlock") or in
    [b, a] ("overlap"); y and wf are nodes and weights of _panels.
    """
    g, cq, cpy = g[:, None], cq[:, None], cp[:, None] * y
    b = g * (cpy + 1.0) / cq
    a = (cpy - g) / (cq * g)
    kern = quartic_gain_table_mass(fit_q, a, b) if kernel == "deadlock" else quartic_gain_table_mass(fit_q, b, a)
    return (kern * wf).sum(axis=-1)


def _noma_core(fit_t, fit_r, g, c_t, c_r, npanel):
    """Batched raw (p_out_t, p_out_r, phi) at one panel count, by G7 and K15.

    g, c_t and c_r are equal-length 1-D arrays; the Gamma fits are shared
    by the whole batch.  Both users' decodable-first passes run as one
    stacked pass of 2 x rows: the rows on r's gain, split at g/c_r, then
    those on t's gain, split at g/c_t.  Returns a (2, 3, rows) array, not
    yet clamped; the K15 deadlock picks the direct branch for both rules.
    """
    rows = g.size
    g2, c_own, c_other = np.concatenate((g, g)), np.concatenate((c_t, c_r)), np.concatenate((c_r, c_t))
    y, wf, n_head = _panels((fit_r, fit_t), g2 / c_other, npanel)
    head, tail = _first_int((fit_t, fit_r), c_own, c_other, g2, y, wf, n_head)
    h_t, h_r = head[:, :rows], head[:, rows:]  # user x decodable first; the other, decoded next, fails ...
    t_t, t_r = tail[:, :rows], tail[:, rows:]  # ... or clears g
    overlap = np.zeros((2, rows))  # both decodable first: possible only for g < 1
    sub = g < 1.0
    if sub.any():
        cts, crs, gs = c_t[sub], c_r[sub], g[sub]
        y_o, wf_o, _ = _panels((fit_t,), gs / (cts * (1.0 - gs)), npanel, head=False)
        overlap[:, sub] = _window_int("overlap", fit_r, crs, cts, gs, y_o, wf_o)

    deadlock = 1.0 - (h_t + t_t) - (h_r + t_r) + overlap
    small = deadlock[1] <= _DEADLOCK_SWITCH
    if small.any():  # directly, on the nodes of t's decodable-first pass ...
        cts, crs, gs = c_t[small], c_r[small], g[small]
        y_d, wf_d = y[:rows][small], wf[:, :rows][:, small]
        shut = gs < 1.0  # ... but for g < 1 the window closes at g/(c_r (1 - g)), which ends the tail
        if shut.any():
            g1, cr1 = gs[shut], crs[shut]
            y_d[shut], wf_d[:, shut], _ = _panels((fit_r,), g1 / cr1, npanel, stop=g1 / (cr1 * (1.0 - g1)))
        deadlock[:, small] = _window_int("deadlock", fit_t, cts, crs, gs, y_d, wf_d)

    p_t = deadlock + h_r  # preempted term integrates over the own gain
    p_r = deadlock + h_t
    phi = t_t + t_r - overlap
    return np.stack((p_t, p_r, phi), axis=1)


def _clamp_probs(values: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"non-finite probability from {where}")
    clamp_stats.add(values.size, int(np.count_nonzero((values < 0.0) | (values > 1.0))))
    return np.clip(values, 0.0, 1.0)


def _noma_rows(fit_t, fit_r, c_t, c_r, g) -> np.ndarray:
    """Checked, clamped (p_out_t, p_out_r, phi) as a (3, rows) array.

    Every row starts with one 16-panel Gauss-Kronrod pass; rows whose G7
    and K15 values disagree beyond max(_CHECK_ABS, _CHECK_REL * |K15|) are
    redone at twice the panels, up to 256, and a row still failing then
    raises QuadratureError.  Each row returns its K15 value, so a row's
    values do not depend on the rest of the batch.
    """
    out = np.empty((3, g.size))
    todo = np.arange(g.size)
    npanel = _PANELS_FIRST
    while todo.size:
        g7, k15 = _noma_core(fit_t, fit_r, g[todo], c_t[todo], c_r[todo], npanel)
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


def noma_metrics_batch(fit_t, fit_r, c_t, c_r, g) -> np.ndarray:
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
        out[:, rows] = _noma_rows(fit_t, fit_r, c_t[rows], c_r[rows], g[rows])
    return out


# ----------------------------------------------------------------------
# public closed forms
# ----------------------------------------------------------------------


def closed_forms(cells) -> np.ndarray:
    """Checked (p_out_t, p_out_r, phi) of every row of (scheme, config, policy) cells.

    Returns a (rows, 3) array, rows in cell order: one row per cell, or per
    element of a batch cell (system.cell_groups).  Each channel law's NOMA
    rows are evaluated in one call of noma_metrics_batch; an orthogonal
    scheme's users fail independently, so its outages are per-user Gamma
    CDFs and its success probability their product of survivals.
    """
    groups = system.cell_groups(cells)
    out = np.empty((sum(group[1].size for group in groups), 3))
    for law, index, noma, c_t, c_r, g in groups:
        fit_t, fit_r = law.fit_t, law.fit_r
        if noma.any():
            out[index[noma]] = noma_metrics_batch(fit_t, fit_r, c_t[noma], c_r[noma], g[noma]).T
        orth = ~noma
        if orth.any():
            w_t, w_r = g[orth] / c_t[orth], g[orth] / c_r[orth]
            vals = np.stack((quartic_gain_cdf(fit_t, w_t), quartic_gain_cdf(fit_r, w_r),
                             quartic_gain_sf(fit_t, w_t) * quartic_gain_sf(fit_r, w_r)))
            out[index[orth]] = _clamp_probs(vals, "orthogonal closed form").T
    return out


def outage(scheme: str, config: system.SystemConfig, policy):
    """Per-user outage probabilities (p_out_t, p_out_r) of a one-row cell; a batch cell raises ValueError."""
    p_t, p_r, _ = closed_forms([(scheme, config, policy)]).reshape(3).tolist()
    return p_t, p_r


def success_prob(scheme: str, config: system.SystemConfig, policy) -> float:
    """Probability that both users are decoded in one block, of a one-row cell; a batch cell raises ValueError."""
    return closed_forms([(scheme, config, policy)]).reshape(3)[2].item()


def sum_throughput(scheme: str, outage_pair, rate, policy):
    """Block-normalized sum throughput from a per-user outage pair.

    NOMA users share one uplink slot; orthogonal users each send in their
    own.  The outages, the rate and the policy's fields are floats, or
    equal-length arrays of one batch (as optimizer.evaluate_batch and the
    CLI pass them).
    """
    p_t, p_r = outage_pair
    if not np.all((p_t >= 0.0) & (p_t <= 1.0) & (p_r >= 0.0) & (p_r <= 1.0)):
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


def perf_report(scheme: str, config: system.SystemConfig, policy) -> PerfReport:
    """All closed-form metrics of one scheme at one operating point; a batch cell raises ValueError."""
    p_t, p_r, phi = closed_forms([(scheme, config, policy)]).reshape(3).tolist()
    return PerfReport(
        p_out_t=p_t,
        p_out_r=p_r,
        sum_throughput=sum_throughput(scheme, (p_t, p_r), config.rate, policy),
        success_prob=phi,
        avg_aoi=average_aoi(phi),
    )

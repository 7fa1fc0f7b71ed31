"""End-to-end acceptance gate.

One test per numbered acceptance criterion. Each test computes its criterion
at the stated tolerance, prints a single ``criterion N: PASS/FAIL - detail``
line (visible with ``-s``, or in the failure report), and then asserts.

A FAIL here is a measured finding about the implemented model at the stated
tolerance, not necessarily a code defect: the assertions state the target,
the printed line states the measurement. The README's findings section
summarizes the known gaps and why they are genuine.
"""
import math
from time import perf_counter

import numpy as np
from scipy.stats import norm

from starwpn import analytics, optimizer, system
from starwpn.analytics import clamp_stats
from starwpn.channel import (
    NakagamiParams,
    combined_gain_sample,
    gamma_fit,
    gauss_hermite_rule,
    quartic_gain_cdf,
)
from starwpn.montecarlo import McConfig, aoi_simulate, mc_counts, mc_success

NAK2 = NakagamiParams(m=2.0, omega=1.0)
QUAD = gauss_hermite_rule(30)
SNR_GRID = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)

TEP_D = system.TepPolicy(0.25, 0.25, 0.5, 0.6, 0.4)
EEP_D = system.EepPolicy(0.5, 0.5, 0.6, 0.4)
TDMA_D = system.TdmaPolicy(0.25, 0.25, 0.25, 0.25)
# the same defaults as points of the GA search spaces of P1 and P2
DEFAULT_P1 = optimizer.Allocation("tep", alpha=TEP_D.alpha_ap, beta_r=TEP_D.beta_r)
DEFAULT_P2 = optimizer.Allocation("eep", alpha=EEP_D.alpha_et, beta_r=EEP_D.beta_r)
# power split favoring the far user, used by the AoI operating points
TEP_6 = system.TepPolicy(0.25, 0.25, 0.5, 0.4, 0.6)
EEP_6 = system.EepPolicy(0.5, 0.5, 0.4, 0.6)


def make_config(snr_db, rate, n):
    return system.SystemConfig(
        p_ap=1.0, n0=10.0 ** (-snr_db / 10.0), d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=n,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=rate)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_distribution_fidelity():
    # KS distance between the fitted CDF of the quartic co-phased gain (the
    # continuous-shape Gamma CDF every closed form is built on) and the
    # empirical CDF of 1e6 samples, for N in {1, 5, 30}; target < 0.02 per N
    # within 30 s.
    t0 = perf_counter()
    ks = {}
    for n in (1, 5, 30):
        fit = gamma_fit(NAK2, NAK2, n)
        s = combined_gain_sample(NAK2, NAK2, n, 10**6, seed=2024 + n) ** 4
        s.sort()
        cdf = quartic_gain_cdf(fit, s)
        i = np.arange(1, s.size + 1)
        ks[n] = float(max(np.max(i / s.size - cdf), np.max(cdf - (i - 1) / s.size)))
    secs = perf_counter() - t0
    ok = all(v < 0.02 for v in ks.values()) and secs < 30.0
    detail = ("KS " + ", ".join(f"N={n}: {v:.4f}" for n, v in ks.items())
              + f" (target < 0.02); {secs:.1f}s")
    report(1, ok, detail)
    assert secs < 30.0, f"runtime {secs:.1f}s exceeds 30 s"
    assert all(v < 0.02 for v in ks.values()), detail


def test_criterion_2_outage_matches_monte_carlo():
    # Analytic TEP/EEP/TDMA per-user outage vs a 1e7-trial independent-gains
    # Monte Carlo over the 20-50 dB outage grid (N=30, R=1): within 10%
    # relative wherever the MC estimate is >= 1e-3, within z standard errors
    # elsewhere (zero-count cells use the binomial SE implied by the analytic
    # value, since the observed SE is zero). The m cells judged by standard
    # errors are judged together, so z = isf(0.0027 / (2m)) keeps the whole
    # prong at the two-sided 3-sigma level (z = 3.90 at m = 28); judging each
    # cell at 3 SE would fail an exact model on ~7% of seeds. Budget 5 minutes.
    t0 = perf_counter()
    mc = McConfig(trials=10**7, seed=31415)
    # the envelope draws depend only on N and the fading parameters, so
    # mc_counts draws one ensemble for every SNR point
    points = []
    for snr in SNR_GRID:
        cfg = make_config(snr, 1.0, 30)
        ana = {
            "tep": analytics.outage("tep", cfg, TEP_D, QUAD),
            "eep": analytics.outage("eep", cfg, EEP_D, QUAD),
            "tdma": analytics.outage("tdma", cfg, TDMA_D),
        }
        for scheme, pol in (("tep", TEP_D), ("eep", EEP_D), ("tdma", TDMA_D)):
            points.append((snr, scheme, cfg, pol, ana[scheme]))
    counts = mc_counts([(scheme, cfg, pol) for _, scheme, cfg, pol, _ in points], mc, threads=2)
    cells = []
    for (snr, scheme, _, _, ref), count in zip(points, counts):
        p_t, p_r, se_t, se_r = count.outage()
        cells.append((snr, scheme, "t", p_t, se_t, ref[0]))
        cells.append((snr, scheme, "r", p_r, se_r, ref[1]))
    m = sum(1 for cell in cells if cell[3] < 1e-3)
    z = float(norm.isf(0.0027 / (2 * max(m, 1))))
    fails = []
    for snr, scheme, user, est, se, ref in cells:
        if est >= 1e-3:
            ok = abs(ref - est) <= 0.10 * est
            rule = "10% rel"
        else:
            se_eff = max(se, math.sqrt(ref * (1.0 - ref) / mc.trials))
            ok = abs(ref - est) <= z * se_eff
            rule = f"{z:.2f} se"
        if not ok:
            fails.append(f"{snr:.0f} dB {scheme}.{user}: mc={est:.4g} "
                         f"se={se:.2g} analytic={ref:.4g} ({rule})")
    secs = perf_counter() - t0
    ok = not fails and secs < 300.0
    detail = (f"{len(cells) - len(fails)}/{len(cells)} cells in tolerance "
              f"(SE prong: m={m} cells at z={z:.2f}); {secs:.0f}s"
              + ("; " + "; ".join(fails) if fails else ""))
    report(2, ok, detail)
    assert secs < 300.0, f"runtime {secs:.0f}s exceeds 5 min"
    assert not fails, detail


def test_criterion_3_outage_orderings_at_40db():
    # At 40 dB (N=30, R=1): EEP beats TEP for the near user, TEP beats EEP
    # for the far user, and TDMA beats both NOMA schemes per user.
    cfg = make_config(40.0, 1.0, 30)
    tep = analytics.outage("tep", cfg, TEP_D, QUAD)
    eep = analytics.outage("eep", cfg, EEP_D, QUAD)
    tdma = analytics.outage("tdma", cfg, TDMA_D)
    checks = {
        "eep_t < tep_t": eep[0] < tep[0],
        "tep_r < eep_r": tep[1] < eep[1],
        "tdma_t < min": tdma[0] < min(tep[0], eep[0]),
        "tdma_r < min": tdma[1] < min(tep[1], eep[1]),
    }
    ok = all(checks.values())
    detail = (f"tep={tep[0]:.3g}/{tep[1]:.3g} eep={eep[0]:.3g}/{eep[1]:.3g} "
              f"tdma={tdma[0]:.3g}/{tdma[1]:.3g}; ")
    if ok:
        detail += "all four orderings hold"
    else:
        detail += "violated: " + ", ".join(k for k, v in checks.items() if not v)
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_single_throughput_crossover():
    # Sum throughput on the 20-50 dB grid at N=30, R=2: EEP above TEP at low
    # SNR, TEP above EEP at high SNR, exactly one crossover on the grid.
    rows = []
    for snr in SNR_GRID:
        cfg = make_config(snr, 2.0, 30)
        t_tep = analytics.sum_throughput(
            "tep", analytics.outage("tep", cfg, TEP_D, QUAD), 2.0, TEP_D)
        t_eep = analytics.sum_throughput(
            "eep", analytics.outage("eep", cfg, EEP_D, QUAD), 2.0, EEP_D)
        rows.append((snr, t_tep, t_eep))
    diffs = [t - e for _, t, e in rows]
    signs = [np.sign(d) for d in diffs]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
    ok = changes == 1 and diffs[0] < 0.0 and diffs[-1] > 0.0
    pattern = "".join("+" if s > 0 else "-" if s < 0 else "0" for s in signs)
    detail = (f"sign(tep-eep) over 20..50 dB = {pattern} ({changes} crossings); "
              f"endpoints {diffs[0]:+.3e} / {diffs[-1]:+.3e}")
    report(4, ok, detail)
    # the second crossing near 47.5 dB is the deadlock-floor finding
    # (TEP floor 1.7166e-4 vs EEP 7.413e-6); see README
    assert ok, detail


def unimodal(y, atol):
    y = np.asarray(y, dtype=float)
    i = int(np.argmax(y))
    interior = 0 < i < y.size - 1
    rising = bool(np.all(np.diff(y[: i + 1]) > -atol))
    falling = bool(np.all(np.diff(y[i:]) < atol))
    return interior and rising and falling


def test_criterion_5_throughput_unimodality():
    # Per-user throughput vs rate at 40 dB and vs the energy/information time
    # split at 35 dB: each of the eight per-user curves has exactly one
    # interior maximum on a 20-point grid.
    curves = {}
    r_grid = np.linspace(0.25, 5.0, 20)
    for scheme, pol in (("tep", TEP_D), ("eep", EEP_D)):
        ys = {"t": [], "r": []}
        for rate in r_grid:
            cfg = make_config(40.0, float(rate), 30)
            pair = analytics.outage(scheme, cfg, pol, QUAD)
            ys["t"].append(analytics.user_throughput(scheme, "t", pair[0], float(rate), pol))
            ys["r"].append(analytics.user_throughput(scheme, "r", pair[1], float(rate), pol))
        for user, y in ys.items():
            curves[f"rate.{scheme}.{user}"] = y
    a_grid = np.linspace(0.05, 0.95, 20)
    cfg = make_config(35.0, 2.0, 30)
    for scheme in ("tep", "eep"):
        ys = {"t": [], "r": []}
        for a in a_grid:
            if scheme == "tep":
                rem = (1.0 - float(a)) / 2.0
                pol = system.TepPolicy(rem, rem, float(a), 0.4, 0.6)
            else:
                pol = system.EepPolicy(1.0 - float(a), float(a), 0.4, 0.6)
            pair = analytics.outage(scheme, cfg, pol, QUAD)
            ys["t"].append(analytics.user_throughput(scheme, "t", pair[0], 2.0, pol))
            ys["r"].append(analytics.user_throughput(scheme, "r", pair[1], 2.0, pol))
        for user, y in ys.items():
            curves[f"split.{scheme}.{user}"] = y
    bad = [name for name, y in curves.items()
           if not unimodal(y, atol=1e-8 * max(np.max(np.abs(y)), 1e-300))]
    ok = not bad
    detail = (f"{len(curves) - len(bad)}/{len(curves)} per-user curves unimodal"
              + (f"; not unimodal: {bad}" if bad else ""))
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_aoi_consistency():
    # At 35 dB, N=32, R=2 with the far-user-favoring power split: the slot
    # simulator's average age matches the renewal value 1/phi_hat within 3%
    # over 1e6 slots, analytic phi matches the Monte Carlo success fraction
    # within 5%, every average age is >= 1, and the TDMA average age is below
    # both NOMA schemes'.
    cfg = make_config(35.0, 2.0, 32)
    rows = {}
    for scheme, pol in (("tep", TEP_6), ("eep", EEP_6), ("tdma", TDMA_D)):
        phi = analytics.success_prob(scheme, cfg, pol, QUAD)
        mc_phi, _ = mc_success(scheme, cfg, pol, McConfig(trials=10**6, seed=271))
        trace = aoi_simulate(phi, 10**6, seed=99)
        phat = trace.successes / trace.slots
        rows[scheme] = {
            "phi_rel": abs(phi - mc_phi) / mc_phi,
            "renewal_rel": abs(trace.average_age - 1.0 / phat) * phat,
            "sim_age": trace.average_age,
            "aoi": analytics.average_aoi(phi),
        }
    checks = {
        "phi within 5% of MC": all(r["phi_rel"] < 0.05 for r in rows.values()),
        "sim age = 1/phi_hat within 3%": all(r["renewal_rel"] < 0.03 for r in rows.values()),
        "age >= 1 everywhere": all(r["sim_age"] >= 1.0 and r["aoi"] >= 1.0
                                   for r in rows.values()),
        "tdma age < noma": rows["tdma"]["aoi"] < min(rows["tep"]["aoi"],
                                                     rows["eep"]["aoi"]),
    }
    ok = all(checks.values())
    detail = ("; ".join(f"{s}: phi_rel={r['phi_rel']:.2%} "
                        f"renewal_rel={r['renewal_rel']:.2%} aoi={r['aoi']:.3f}"
                        for s, r in rows.items())
              + ("" if ok else "; failed: "
                 + ", ".join(k for k, v in checks.items() if not v)))
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_aoi_optimal_power_split():
    # The far-user power fraction minimizing the analytic EEP average age at
    # 35 dB, N=30, R=2 lies in [0.5, 0.7] on a 0.05-step grid.
    beta_grid = np.arange(0.05, 0.9501, 0.05)
    cfg = make_config(35.0, 2.0, 30)
    aois = []
    for b in beta_grid:
        pol = system.EepPolicy(0.5, 0.5, 1.0 - float(b), float(b))
        aois.append(analytics.average_aoi(analytics.success_prob("eep", cfg, pol, QUAD)))
    i = int(np.argmin(aois))
    beta_star = float(beta_grid[i])
    ok = 0.5 <= beta_star <= 0.7
    detail = f"argmin beta_r = {beta_star:.2f} (age {aois[i]:.3f}), target [0.5, 0.7]"
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_ga_dominance_and_grid_match():
    # GA allocation at 35 dB, R=2 with average-age bound 10: the GA's
    # objective (sum throughput minus the age-violation penalty) at its
    # optimum is >= the same objective at the fixed-default allocation for
    # every N in {10, 20, 30, 40, 50} (strictly greater at 30 and 50), every
    # returned optimum is feasible, and at N=30 the GA solution lands within
    # one 256-step grid cell of the exhaustive grid argmax on both problems.
    # The default breaks the age bound at N = 10, 20 and 30, and a feasible
    # optimum need not beat an infeasible point's raw throughput; where the
    # default is feasible (N = 40, 50) its penalized fitness is its sum
    # throughput. Budget 10 minutes.
    t0 = perf_counter()
    ga = optimizer.GaConfig()
    rows = []
    kept = {}
    for n in (10, 20, 30, 40, 50):
        cfg = make_config(35.0, 2.0, n)
        for problem, default in (("p1", DEFAULT_P1), ("p2", DEFAULT_P2)):
            res = optimizer.ga_run(problem, cfg, 10.0, ga, quad=QUAD)
            base = optimizer.penalized_fitness(default, cfg, 10.0, QUAD, ga.penalty_coef)
            rows.append((n, problem, res.best_fitness, base, res.feasible))
            if n == 30:
                kept[problem] = res
    cell = 0.98 / 255.0
    grid_gaps = {}
    cfg30 = make_config(35.0, 2.0, 30)
    for problem in ("p1", "p2"):
        a, b, f = optimizer.grid_search(problem, cfg30, 10.0, QUAD, steps=256)
        res = kept[problem]
        grid_gaps[problem] = (
            abs(res.best.alpha - a) / cell,
            abs(res.best.beta_r - b) / cell,
            f - res.best_fitness,
        )
    secs = perf_counter() - t0
    dominated = [(n, p) for n, p, g, base, _ in rows if g < base]
    strict = all(g > base for n, p, g, base, _ in rows if n in (30, 50))
    feasible = all(feas for *_, feas in rows)
    matched = all(ga_gap <= 1.0 + 1e-9 and gb <= 1.0 + 1e-9
                  for ga_gap, gb, _ in grid_gaps.values())
    ok = not dominated and strict and feasible and matched and secs < 600.0
    detail = ("; ".join(f"N={n} {p}: ga={g:.4f} base={base:.4g}"
                        + ("" if feas else " INFEASIBLE")
                        for n, p, g, base, feas in rows)
              + "; grid gaps (cells) "
              + ", ".join(f"{p}: ({ga:.2f}, {gb:.2f}) fit gap {df:.2e}"
                          for p, (ga, gb, df) in grid_gaps.items())
              + f"; {secs:.0f}s")
    report(8, ok, detail)
    assert secs < 600.0, f"runtime {secs:.0f}s exceeds 10 min"
    assert feasible, detail
    assert strict, detail
    assert not dominated, detail
    assert matched, detail


def test_criterion_9_numerical_hygiene():
    # Quadrature convergence: the 30- and 40-node rules agree to 1e-6 on all
    # outage and success probabilities over the 20-50 dB grid. A 500-point
    # randomized parameter sweep yields only finite probabilities in [0, 1]
    # (clamping is bookkept, nothing unclamped escapes).
    q40 = gauss_hermite_rule(40)
    worst = 0.0
    for snr in SNR_GRID:
        cfg = make_config(snr, 1.0, 30)
        for scheme, pol in (("tep", TEP_D), ("eep", EEP_D)):
            a = analytics.outage(scheme, cfg, pol, QUAD)
            b = analytics.outage(scheme, cfg, pol, q40)
            worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
            worst = max(worst, abs(analytics.success_prob(scheme, cfg, pol, QUAD)
                                   - analytics.success_prob(scheme, cfg, pol, q40)))
    rng = np.random.default_rng(987654321)
    clamp_stats.reset()
    bad = 0
    for i in range(500):
        scheme = ("tep", "eep", "tdma")[i % 3]
        cfg = system.SystemConfig(
            p_ap=1.0, n0=10.0 ** (-rng.uniform(-10.0, 55.0) / 10.0),
            d0=30.0, d_t=float(rng.uniform(1.0, 15.0)), d_r=float(rng.uniform(1.0, 15.0)),
            exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=int(rng.integers(1, 41)),
            fading_ris=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
            fading_t=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
            fading_r=NakagamiParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))),
            rate=float(rng.uniform(0.25, 6.0)))
        if scheme == "tep":
            a = float(rng.uniform(0.05, 0.9))
            b = float(rng.uniform(0.05, 0.9))
            pol = system.TepPolicy(a / 2.0, a / 2.0, 1.0 - a, b, 1.0 - b)
        elif scheme == "eep":
            a = float(rng.uniform(0.05, 0.95))
            b = float(rng.uniform(0.05, 0.95))
            pol = system.EepPolicy(a, 1.0 - a, b, 1.0 - b)
        else:
            a = float(rng.uniform(0.05, 0.45))
            c = float(rng.uniform(0.1, 0.9))
            pol = system.TdmaPolicy(a, a, (1.0 - 2.0 * a) * c, (1.0 - 2.0 * a) * (1.0 - c))
        rep = analytics.perf_report(scheme, cfg, pol, QUAD)
        vals = (rep.p_out_t, rep.p_out_r, rep.success_prob)
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
            bad += 1
        if not (math.isfinite(rep.sum_throughput) and rep.sum_throughput >= 0.0):
            bad += 1
    ok = worst < 1e-6 and bad == 0
    detail = (f"node-count invariance worst diff {worst:.2e} (target < 1e-6); "
              f"sweep: {bad} bad outputs in 500 points, "
              f"{clamp_stats.events} clamps over {clamp_stats.checked} checks")
    report(9, ok, detail)
    assert ok, detail

"""Checks of each workload's CSV against the model and the method.

Every check returns a list of failure messages; an empty list passes.  The
reference values come from `model`, which shares no code with `starwpn`,
except in `check_ga`, which asks the package's checked scalar path
(`analytics.perf_report`) what the GA's allocations are worth.
"""

import csv
import io
import math
import random

from scipy import stats

import model

PROBS = ("outage_t", "outage_r", "phi")
IDENTITY_REL = 1e-12  # CSV values carry 17 digits, so identities hold to roundoff
NOMA_SLACK = 1e-9  # quadrature error allowed in the phi bounds, the kernel's _CHECK_ABS
TDMA_REL = 1e-9  # scipy's Gamma CDF against the package's incomplete gamma
ORACLE_ABS, ORACLE_REL = 1e-12, 1e-6  # closed forms against QUADPACK
MC_ALPHA = 1e-5  # family-wise error rate of the Clopper-Pearson test
GA_REL = 1e-6  # GA's batch throughput against the checked scalar path
GA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))  # coarse 9 x 9 allocation grid
GA_GRID_SLACK = 1e-3  # GA may fall short of the best coarse cell by this share


def read_rows(data):
    """Rows of a CSV given as bytes, as dicts of strings."""
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _x(row):
    """The swept value, the first column of a `run` row."""
    return next(iter(row.values()))


def _point(row, workload):
    """(snr_db, rate, n_elements) of a `run` row."""
    sets = workload.sets
    snr = float(row["snr_db"]) if "snr_db" in row else float(sets["system.snr_db"])
    rate = float(row["rate"]) if "rate" in row else float(sets["system.rate_bps_hz"])
    return snr, rate, int(sets["system.n_elements"])


def _close(a, b, rel, abs_=0.0):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def check_shape(rows, workload):
    """The CSV holds one row per (point, scheme, engine), nothing more."""
    engines = ("analytic", "montecarlo") if workload.trials else ("analytic",)
    want = len(workload.sweep_values) * len(workload.schemes) * len(engines)
    if len(rows) != want:
        return [f"expected {want} rows, got {len(rows)}"]
    seen = {(r["scheme"], r["engine"]) for r in rows}
    if seen != {(s, e) for s in workload.schemes for e in engines}:
        return [f"unexpected (scheme, engine) pairs {sorted(seen)}"]
    return []


def check_identities(rows, workload, trials=0):
    """Probabilities, throughput, age and standard errors agree with each other."""
    fails = []
    policy = model.PARAMS["policy"]
    for r in rows:
        where = f"{r['scheme']}/{r['engine']} at {_x(r)}"
        p_t, p_r, phi = (float(r[k]) for k in PROBS)
        if not all(0.0 <= p <= 1.0 for p in (p_t, p_r, phi)):
            fails.append(f"{where}: probability outside [0, 1]: {p_t}, {p_r}, {phi}")
            continue
        _, rate, _ = _point(r, workload)
        share_t, share_r = model.uplink_shares(r["scheme"], policy)
        tput_t, tput_r = rate * share_t * (1.0 - p_t), rate * share_r * (1.0 - p_r)
        for name, want in (("throughput_t", tput_t), ("throughput_r", tput_r), ("sum_throughput", tput_t + tput_r)):
            if not _close(float(r[name]), want, IDENTITY_REL, 1e-300):
                fails.append(f"{where}: {name} {r[name]} != {want!r}")
        if r["scheme"] != "tdma":
            closed = rate * share_t * (2.0 - p_t - p_r)
            if not _close(float(r["sum_throughput"]), closed, IDENTITY_REL, 1e-300):
                fails.append(f"{where}: sum_throughput {r['sum_throughput']} != R*share*(2-p_t-p_r) {closed!r}")
            if not (1.0 - p_t - p_r - NOMA_SLACK <= phi <= 1.0 - max(p_t, p_r) + NOMA_SLACK):
                fails.append(f"{where}: phi {phi} outside [1-p_t-p_r, 1-max(p_t, p_r)]")
        aoi = math.inf if phi == 0.0 else 1.0 / phi
        if not _close(float(r["aoi"]), aoi, IDENTITY_REL):
            fails.append(f"{where}: aoi {r['aoi']} != 1/phi {aoi!r}")
        if r["engine"] == "montecarlo":
            for name in PROBS:
                p, got = float(r[name]), r[f"{name}_se"]
                se = math.sqrt(p * (1.0 - p) / trials)
                if not got or not _close(float(got), se, 1e-9, 1e-300):
                    fails.append(f"{where}: {name}_se {r[name + '_se']} != binomial {se!r}")
        elif any(r[f"{name}_se"] != "" for name in PROBS):
            fails.append(f"{where}: analytic row carries a standard error")
    return fails


def check_tdma(rows, workload):
    """Analytic TDMA rows equal the Gamma CDF computed here from the moments."""
    fails = []
    for r in rows:
        if r["scheme"] != "tdma" or r["engine"] != "analytic":
            continue
        snr, rate, n = _point(r, workload)
        want = model.tdma_metrics(model.PARAMS["system"], model.PARAMS["policy"], snr, rate, n)
        for name, w in zip(PROBS, want):
            if not _close(float(r[name]), w, TDMA_REL, 1e-300):
                fails.append(f"tdma at {snr} dB: {name} {r[name]} != Gamma law {w!r}")
    return fails


def clopper_pearson(events, trials, level):
    """Two-sided exact binomial interval for events/trials at confidence `level`."""
    tail = (1.0 - level) / 2.0
    lo = 0.0 if events == 0 else stats.beta.ppf(tail, events, trials - events + 1)
    hi = 1.0 if events == trials else stats.beta.isf(tail, events + 1, trials - events)
    return float(lo), float(hi)


def check_mc_intervals(rows, workload, trials):
    """Each Monte Carlo probability covers its analytic value.

    Every (point, scheme, probability) cell is one judgement; each gets a
    Clopper-Pearson interval at level 1 - MC_ALPHA/m (Bonferroni over the m
    cells), so an exact model fails a run with probability below MC_ALPHA.
    A cell with no events passes only if the analytic expected count is
    small, since its interval is [0, 1 - (MC_ALPHA/2m)^(1/n)].
    """
    analytic = {(_x(r), r["scheme"]): r for r in rows if r["engine"] == "analytic"}
    mc = [r for r in rows if r["engine"] == "montecarlo"]
    m = len(mc) * len(PROBS)
    fails = []
    for r in mc:
        ref = analytic.get((_x(r), r["scheme"]))
        if ref is None:
            fails.append(f"no analytic row for {r['scheme']} at {_x(r)}")
            continue
        for name in PROBS:
            count = float(r[name]) * trials
            events = round(count)
            if abs(count - events) > 1e-6 * max(1.0, count):
                fails.append(f"{r['scheme']} at {_x(r)}: {name} {r[name]} is no count out of {trials}")
                continue
            lo, hi = clopper_pearson(events, trials, 1.0 - MC_ALPHA / m)
            want = float(ref[name])
            if not lo <= want <= hi:
                fails.append(
                    f"{r['scheme']} at {_x(r)}: analytic {name} {want:.6g} outside "
                    f"[{lo:.6g}, {hi:.6g}] of {events}/{trials}"
                )
    return fails


def oracle_rows(rows, seed, count):
    """The analytic NOMA rows spot-checked for this seed."""
    noma = [r for r in rows if r["engine"] == "analytic" and r["scheme"] != "tdma"]
    return random.Random(seed).sample(noma, min(count, len(noma)))


def check_oracle(rows, workload):
    """Closed-form NOMA rows equal QUADPACK over the same Gamma model."""
    fails = []
    for r in rows:
        snr, rate, n = _point(r, workload)
        want = model.noma_metrics_quad(r["scheme"], model.PARAMS["system"], model.PARAMS["policy"], snr, rate, n)
        for name, w in zip(PROBS, want):
            if not _close(float(r[name]), w, ORACLE_REL, ORACLE_ABS):
                fails.append(f"{r['scheme']} at R={rate}, {snr} dB: {name} {r[name]} != QUADPACK {w!r}")
    return fails


def _system_config(snr_db, rate, n_elements):
    from starwpn.channel import NakagamiParams
    from starwpn.system import SystemConfig

    s = model.PARAMS["system"]
    return SystemConfig(
        p_ap=s["p_ap_watts"],
        n0=s["p_ap_watts"] / 10.0 ** (snr_db / 10.0),
        d0=s["d0_m"],
        d_t=s["d_t_m"],
        d_r=s["d_r_m"],
        exp0=s["exp0"],
        exp_t=s["exp_t"],
        exp_r=s["exp_r"],
        n_elements=n_elements,
        fading_ris=NakagamiParams(s["m_ris"], s["omega_ris"]),
        fading_t=NakagamiParams(s["m_t"], s["omega_t"]),
        fading_r=NakagamiParams(s["m_r"], s["omega_r"]),
        rate=rate,
    )


def _policy(scheme, alpha, beta_r):
    from starwpn.system import EepPolicy, TepPolicy

    if scheme == "tep":
        return TepPolicy(alpha_t=(1 - alpha) / 2, alpha_r=(1 - alpha) / 2, alpha_ap=alpha, beta_t=1 - beta_r, beta_r=beta_r)
    return EepPolicy(alpha_et=alpha, alpha_it=1 - alpha, beta_t=1 - beta_r, beta_r=beta_r)


def coarse_grid_best(scheme, config, delta_th):
    """Best throughput over the feasible cells of the coarse allocation grid."""
    from starwpn.analytics import perf_report

    best = 0.0
    for alpha in GA_GRID:
        for beta_r in GA_GRID:
            rep = perf_report(scheme, config, _policy(scheme, alpha, beta_r))
            if rep.avg_aoi <= delta_th:
                best = max(best, rep.sum_throughput)
    return best


def check_ga(rows, workload, grid_best):
    """GA rows are feasible, priced right, and no worse than a coarse grid.

    `grid_best` caches, per (n, scheme), the coarse grid's best feasible
    throughput from `coarse_grid_best`; pass one dict to share it between
    calls.
    """
    from starwpn.analytics import perf_report

    delta_th = float(workload.sets["ga.delta_th"])
    snr, rate = float(workload.sets["system.snr_db"]), float(workload.sets["system.rate_bps_hz"])
    want = {(n, p) for n in workload.n_grid for p in workload.problems}
    got = {(int(r["n_elements"]), r["problem"]) for r in rows}
    if got != want or len(rows) != len(want):
        return [f"expected rows {sorted(want)}, got {sorted(got)}"]
    fails = []
    for r in rows:
        n, scheme = int(r["n_elements"]), r["scheme"]
        where = f"N={n} {r['problem']}"
        if scheme != {"p1": "tep", "p2": "eep"}[r["problem"]]:
            fails.append(f"{where}: scheme {scheme}")
            continue
        aoi, tput = float(r["aoi"]), float(r["sum_throughput"])
        if r["feasible"] != "true" or not aoi <= delta_th:
            fails.append(f"{where}: infeasible, aoi {aoi} > delta_th {delta_th}")
        config = _system_config(snr, rate, n)
        rep = perf_report(scheme, config, _policy(scheme, float(r["alpha"]), float(r["beta_r"])))
        if not _close(tput, rep.sum_throughput, GA_REL):
            fails.append(f"{where}: sum_throughput {tput} != perf_report {rep.sum_throughput!r}")
        if (n, scheme) not in grid_best:
            grid_best[(n, scheme)] = coarse_grid_best(scheme, config, delta_th)
        best = grid_best[(n, scheme)]
        if tput < best * (1.0 - GA_GRID_SLACK):
            fails.append(f"{where}: sum_throughput {tput} below the coarse grid's best {best!r}")
    return fails

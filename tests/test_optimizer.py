"""GA allocator: coding, penalty, evolution loop, and grid-search oracle."""

import dataclasses
import math

import numpy as np
import pytest

from starwpn import analytics, optimizer, system
from starwpn.channel import NakagamiParams
from starwpn.optimizer import (
    GaConfig,
    ga_run,
    evaluate_batch,
    grid_search,
)

NAK2 = NakagamiParams(m=2.0, omega=1.0)


def make_config(snr_db=30.0, rate=2.0, n=8):
    return system.SystemConfig(
        p_ap=1.0, n0=10.0 ** (-snr_db / 10.0), d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=n,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=rate,
    )


def separable_stub(scheme, config, values, delta_th, penalty_coef):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    x, y = values[:, 0], values[:, 1]
    f = -((x - 0.3) ** 2) - (y - 0.7) ** 2
    return f, f.copy(), np.ones_like(f)


def test_gaconfig_validation():
    GaConfig()
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    with pytest.raises(ValueError):
        GaConfig(bits_per_var=3)
    with pytest.raises(ValueError):
        GaConfig(bits_per_var=53)
    GaConfig(bits_per_var=52)
    with pytest.raises(ValueError):
        GaConfig(seed=-1)
    with pytest.raises(ValueError):
        GaConfig(selection_q=1.0)
    with pytest.raises(ValueError):
        GaConfig(crossover_p=0.0)
    with pytest.raises(ValueError):
        GaConfig(mutation_p=1.0)
    for coef in (0.0, -1.0, math.inf, math.nan, 1e300):  # 1e300 times the age cap overflows
        with pytest.raises(ValueError, match="ga.penalty_coef"):
            GaConfig(penalty_coef=coef)
    GaConfig(penalty_coef=1e290)
    with pytest.raises(ValueError):
        GaConfig(population=10, elitism=10)
    # a float or bool count or seed is refused up front, not left to fail
    # inside numpy or to run as 1 (True); numpy's integers are taken
    for name, bad in (("population", 4.5), ("generations", 2.5), ("bits_per_var", 8.5), ("elitism", 1.5),
                      ("seed", 1.5), ("generations", True), ("population", 12.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GaConfig(**{name: bad})
    GaConfig(population=np.int64(12), generations=np.int32(3), bits_per_var=np.int16(8), elitism=np.uint8(1),
             seed=np.uint32(1))
    GaConfig(population=10, elitism=9)


def test_policy_of_ga_variables():
    # the range checks are evaluate_batch's, tested below
    pol = optimizer._policy("tep", 0.6, 0.3)
    assert isinstance(pol, system.TepPolicy)
    assert pol.alpha_ap == 0.6
    assert pol.alpha_t == pytest.approx(0.2, rel=1e-15)
    assert pol.alpha_r == pytest.approx(0.2, rel=1e-15)
    assert pol.beta_t == pytest.approx(0.7, rel=1e-15)

    pol = optimizer._policy("eep", 0.55, 0.45)
    assert isinstance(pol, system.EepPolicy)
    assert pol.alpha_et == 0.55
    assert pol.alpha_it == pytest.approx(0.45, rel=1e-15)
    assert pol.beta_t == pytest.approx(0.55, rel=1e-15)


def gray_bits(level, bits=16):
    """The reflected Gray code of an integer level, most significant bit first."""
    gray = level ^ (level >> 1)
    return np.array([(gray >> shift) & 1 for shift in range(bits - 1, -1, -1)], dtype=np.uint8)


def test_gray_levels_bounds_and_adjacency():
    zeros = np.zeros((1, 32), dtype=np.uint8)
    assert optimizer._bits_to_unit(zeros, 16).tolist() == [[0.01, 0.01]]
    top = np.concatenate([gray_bits(2**16 - 1)] * 2)[None, :]
    alpha, beta_r = optimizer._bits_to_unit(top, 16)[0]
    assert alpha == pytest.approx(0.99, rel=1e-15)
    assert beta_r == pytest.approx(0.99, rel=1e-15)
    # adjacent levels are one bit apart (Gray code), also across the
    # 0x9FFF -> 0xA000 boundary where a plain binary code flips 14 bits, and
    # map to neighbouring values; likewise on an 8-bit code
    for bits, lvl in ((16, 0x9FFF), (8, 0x9F)):
        step = 0.98 / (2**bits - 1)
        lo, hi = (np.concatenate([gray_bits(v, bits), gray_bits(0, bits)]) for v in (lvl, lvl + 1))
        assert int(np.count_nonzero(lo != hi)) == 1
        a, b = optimizer._bits_to_unit(np.stack([lo, hi]), bits)[:, 0]
        assert a == pytest.approx(0.01 + lvl * step, rel=1e-15)
        assert b - a == pytest.approx(step, rel=1e-9)


def fitness_of(scheme, alpha, beta_r, config, delta_th, penalty_coef=1e3):
    """The penalized fitness of one allocation, as a one-row batch."""
    return float(evaluate_batch(scheme, config, [[alpha, beta_r]], delta_th, penalty_coef)[0][0])


def test_penalized_fitness_zero_penalty_branch():
    cfg = make_config(snr_db=60.0)
    rep = analytics.perf_report("tep", cfg, optimizer._policy("tep", 0.5, 0.4))
    delta = 1.0 / rep.success_prob
    fit = fitness_of("tep", 0.5, 0.4, cfg, delta_th=delta + 5.0)
    tput = rep.sum_throughput
    assert fit == pytest.approx(tput, rel=1e-9)


def test_penalized_fitness_linear_penalty_branch():
    cfg = make_config(snr_db=60.0)
    rep = analytics.perf_report("eep", cfg, optimizer._policy("eep", 0.5, 0.4))
    delta = 1.0 / rep.success_prob
    assert delta > 2.0, "test point must violate by a unit margin"
    fit = fitness_of("eep", 0.5, 0.4, cfg, delta_th=delta - 1.0)
    tput = rep.sum_throughput
    assert fit == pytest.approx(tput - 1e3, rel=1e-9)


@pytest.mark.parametrize("scheme", ["tep", "eep"])
@pytest.mark.parametrize("m_r", [2.0, 3.0])
def test_evaluate_batch_matches_scalar_path(scheme, m_r):
    # one array policy prices the batch; every row equals the one-allocation
    # path (_policy, perf_report) bit for bit, the variable bounds
    # 0.01 and 0.99 included, at 35 dB (fig11's operating point) and at a
    # rate whose ages cross the 10-slot threshold, so both penalty branches
    # run; with m_r = 3 the users' laws differ
    cfg = dataclasses.replace(make_config(snr_db=35.0, rate=2.0, n=30), fading_r=NakagamiParams(m=m_r, omega=1.0))
    axis = np.array([0.01, 0.2, 0.45, 0.7, 0.99])
    values = np.array([(a, b) for a in axis for b in axis])
    delta_th, coef = 10.0, 1e3
    fitness, throughput, aoi = optimizer.evaluate_batch(scheme, cfg, values, delta_th, coef)
    assert (aoi < delta_th).any() and (aoi > delta_th).any()
    for row, (alpha, beta_r) in enumerate(values.tolist()):
        rep = analytics.perf_report(scheme, cfg, optimizer._policy(scheme, alpha, beta_r))
        age = 1.0 / max(rep.success_prob, 1e-12)
        assert throughput[row] == rep.sum_throughput
        assert aoi[row] == age
        assert fitness[row] == rep.sum_throughput - coef * max(0.0, age - delta_th)


@pytest.mark.parametrize("scheme", ["tep", "eep"])
def test_evaluate_batch_age_cap_edges(monkeypatch, scheme):
    # success probabilities at and around the cap's edge 1e-12, down to 0 and
    # a subnormal, where the metrics age 1/phi is inf: the fitness's age is
    # 1/max(phi, 1e-12) bit for bit, and its throughput the metrics' sum
    phi = np.array([0.0, 5e-324, 1e-300, np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0), 0.5, 1.0])
    probs = np.column_stack((np.linspace(0.0, 1.0, phi.size), np.linspace(1.0, 0.0, phi.size), phi))
    monkeypatch.setattr(analytics, "closed_forms", lambda cells: probs)
    values = np.column_stack((np.linspace(0.1, 0.9, phi.size), np.linspace(0.8, 0.2, phi.size)))
    cfg, delta_th, coef = make_config(), 10.0, 1e3
    fitness, throughput, aoi = optimizer.evaluate_batch(scheme, cfg, values, delta_th, coef)
    assert aoi.tobytes() == (1.0 / np.maximum(phi, 1e-12)).tobytes()
    policy = optimizer._policy(scheme, values[:, 0], values[:, 1])
    want = analytics.metrics(scheme, cfg.rate, policy, probs.T)["sum_throughput"][0]
    assert throughput.tobytes() == want.tobytes()
    assert fitness.tobytes() == (want - coef * np.maximum(0.0, aoi - delta_th)).tobytes()


@pytest.mark.parametrize("alpha, beta_r", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.2, 0.5),
                                           (math.nan, 0.5)])
def test_evaluate_batch_rejects_variables_outside_unit_interval(alpha, beta_r):
    # one bad row among good ones fails the batch
    cfg = make_config()
    values = np.array([[0.5, 0.4], [alpha, beta_r], [0.3, 0.6]])
    for scheme in ("tep", "eep"):
        with pytest.raises(ValueError, match="must lie strictly inside"):
            optimizer.evaluate_batch(scheme, cfg, values, 10.0, 1e3)
    with pytest.raises(ValueError, match="scheme must be"):
        optimizer.evaluate_batch("tdma", cfg, values[:1], 10.0, 1e3)


def test_constant_objective_returns_it(monkeypatch):
    def const_stub(scheme, config, values, delta_th, penalty_coef):
        n = np.atleast_2d(values).shape[0]
        return np.ones(n), np.ones(n), np.ones(n)

    monkeypatch.setattr(optimizer, "evaluate_batch", const_stub)
    cfg = make_config()
    for gens in (1, 5):
        res = ga_run("p1", cfg, delta_th=10.0, ga=GaConfig(population=8, generations=gens, seed=3))
        assert res.best_fitness == 1.0
        assert res.history == (1.0,) * gens
        assert res.feasible is True


def test_separable_objective_hits_optimum(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    hits = 0
    for seed in range(20):
        res = ga_run("p1", cfg, delta_th=10.0, ga=GaConfig(seed=seed))
        if max(abs(res.alpha - 0.3), abs(res.beta_r - 0.7)) <= 0.02:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds converged"


def test_ga_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    ga = GaConfig(population=20, generations=30, seed=77)
    a = ga_run("p2", cfg, delta_th=10.0, ga=ga)
    b = ga_run("p2", cfg, delta_th=10.0, ga=ga)
    assert a.history == b.history
    assert a == b
    # values of this seeded run; any change to the RNG stream or breeding moves them
    assert a.alpha == 0.29205935759517815
    assert a.beta_r == 0.6947962157625697
    assert a.best_fitness == -9.013317219098269e-05
    assert a.generations_to_best == 30


def test_history_nondecreasing_with_elitism(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    res = ga_run("p1", cfg, delta_th=10.0,
                 ga=GaConfig(population=12, generations=40, seed=5, elitism=1))
    diffs = np.diff(res.history)
    assert np.all(diffs >= 0.0)


def test_infeasible_everywhere_flagged(monkeypatch):
    def infeasible_stub(scheme, config, values, delta_th, penalty_coef):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        x, y = values[:, 0], values[:, 1]
        f = -((x - 0.3) ** 2) - (y - 0.7) ** 2
        return f, f.copy(), np.full(x.shape, 1e6)

    monkeypatch.setattr(optimizer, "evaluate_batch", infeasible_stub)
    cfg = make_config()
    res = ga_run("p1", cfg, delta_th=10.0, ga=GaConfig(population=10, generations=5, seed=11))
    assert res.feasible is False
    assert res.aoi_at_best == 1e6
    assert res.feasible == (res.aoi_at_best < 10.0)


def recording_stub(age_of_alpha, seen):
    """f = alpha + beta_r with the given age; appends every row it is given to seen."""
    def stub(scheme, config, values, delta_th, penalty_coef):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        seen.extend(map(tuple, values))
        f = values[:, 0] + values[:, 1]
        return f, f.copy(), age_of_alpha(values[:, 0])
    return stub


def test_selection_prefers_feasible_over_fitter(monkeypatch):
    seen = []
    monkeypatch.setattr(optimizer, "evaluate_batch", recording_stub(lambda a: 5.0 + 20.0 * a, seen))
    res = ga_run("p1", make_config(), delta_th=10.0,
                 ga=GaConfig(population=16, generations=12, seed=4))
    feasible_fits = [a + b for a, b in seen if 5.0 + 20.0 * a < 10.0]
    assert res.feasible is True
    assert res.best_fitness == max(feasible_fits)
    assert any(a + b > res.best_fitness for a, b in seen if 5.0 + 20.0 * a >= 10.0)
    assert res.generations_to_best == res.history.index(max(res.history)) + 1


def test_selection_least_violation_when_none_feasible(monkeypatch):
    seen = []
    monkeypatch.setattr(optimizer, "evaluate_batch", recording_stub(lambda a: 11.0 + a, seen))
    res = ga_run("p1", make_config(), delta_th=10.0,
                 ga=GaConfig(population=16, generations=12, seed=4))
    assert res.feasible is False
    assert res.alpha == min(a for a, _ in seen)
    assert any(a + b > res.best_fitness for a, b in seen)
    assert res.generations_to_best == res.history.index(max(res.history)) + 1


def test_each_chromosome_priced_once(monkeypatch):
    # 4 bits per variable leave 256 chromosomes, so populations repeat some;
    # evaluate_batch still sees each distinct one exactly once per run
    seen = []
    monkeypatch.setattr(optimizer, "evaluate_batch", recording_stub(lambda a: 5.0 + 20.0 * a, seen))
    ga_run("p1", make_config(), delta_th=10.0, ga=GaConfig(population=16, generations=12, bits_per_var=4, seed=4))
    assert len(seen) == len(set(seen))


def test_ga_real_problem_smoke_and_flags():
    cfg = make_config(snr_db=58.0)
    ga = GaConfig(population=16, generations=12, seed=42)
    res = ga_run("p2", cfg, delta_th=10.0, ga=ga)
    assert res.scheme == "eep"
    assert 0.01 <= res.alpha <= 0.99
    assert 0.01 <= res.beta_r <= 0.99
    assert res.feasible == (res.aoi_at_best < 10.0)
    assert math.isfinite(res.best_fitness)
    assert len(res.history) == 12
    assert np.all(np.diff(res.history) >= 0.0)
    assert 1 <= res.generations_to_best <= 12
    if res.feasible:
        assert res.best_fitness == pytest.approx(res.best_throughput, rel=1e-12)


def test_ga_rejects_bad_inputs():
    cfg = make_config()
    with pytest.raises(ValueError):
        ga_run("p3", cfg, delta_th=10.0, ga=GaConfig())
    with pytest.raises(ValueError, match="problem must be"):
        ga_run("tep", cfg, delta_th=10.0, ga=GaConfig())
    with pytest.raises(ValueError):
        ga_run("p1", cfg, delta_th=1.0, ga=GaConfig())


def test_grid_search_finds_stub_optimum(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    steps = 65
    cell = 0.98 / (steps - 1)
    alpha, beta, fit = grid_search("p1", cfg, delta_th=10.0, steps=steps)
    assert abs(alpha - 0.3) <= cell / 2 + 1e-12
    assert abs(beta - 0.7) <= cell / 2 + 1e-12
    assert fit == pytest.approx(-((alpha - 0.3) ** 2) - (beta - 0.7) ** 2, rel=1e-12)


def test_ga_matches_grid_oracle_on_stub(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    ga_fit = ga_run("p1", cfg, delta_th=10.0, ga=GaConfig(seed=1)).best_fitness
    _, _, grid_fit = grid_search("p1", cfg, delta_th=10.0, steps=256)
    cell = 0.98 / 255
    # Lipschitz bound of the quadratic over the box: |grad| <= 2*sqrt(0.69^2+0.98^2)
    lipschitz = 2.0 * math.hypot(0.98 - 0.3, 0.99 - 0.01)
    assert ga_fit >= grid_fit - lipschitz * cell


def test_memoization_consistency():
    cfg = make_config(snr_db=58.0)
    ga = GaConfig(population=10, generations=6, seed=2)
    res = ga_run("p1", cfg, delta_th=10.0, ga=ga)
    direct = fitness_of(res.scheme, res.alpha, res.beta_r, cfg, delta_th=10.0, penalty_coef=ga.penalty_coef)
    assert direct == pytest.approx(res.best_fitness, rel=1e-12)

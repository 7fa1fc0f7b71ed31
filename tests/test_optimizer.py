"""GA allocator: coding, penalty, evolution loop, and grid-search oracle."""

import dataclasses
import math

import numpy as np
import pytest

from starwpn import analytics, optimizer, system
from starwpn.channel import NakagamiParams, gauss_hermite_rule
from starwpn.optimizer import (
    Allocation,
    GaConfig,
    decode,
    encode,
    ga_run,
    grid_search,
    penalized_fitness,
)

NAK2 = NakagamiParams(m=2.0, omega=1.0)
QUAD = gauss_hermite_rule(30)


def make_config(snr_db=30.0, rate=2.0, n=8):
    return system.SystemConfig(
        p_ap=1.0, n0=10.0 ** (-snr_db / 10.0), d0=30.0, d_t=2.0, d_r=4.0,
        exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=n,
        fading_ris=NAK2, fading_t=NAK2, fading_r=NAK2, rate=rate,
    )


def separable_stub(scheme, config, values, delta_th, quad, penalty_coef):
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
    for coef in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="penalty_coef"):
            GaConfig(penalty_coef=coef)
    with pytest.raises(ValueError):
        GaConfig(population=10, elitism=10)
    GaConfig(population=10, elitism=9)


def test_allocation_validation_and_policy():
    with pytest.raises(ValueError):
        Allocation(scheme="fdma", alpha=0.5, beta_r=0.5)
    with pytest.raises(ValueError):
        Allocation(scheme="tep", alpha=0.0, beta_r=0.5)
    with pytest.raises(ValueError):
        Allocation(scheme="eep", alpha=0.5, beta_r=1.0)

    pol = Allocation(scheme="tep", alpha=0.6, beta_r=0.3).policy()
    assert isinstance(pol, system.TepPolicy)
    assert pol.alpha_ap == 0.6
    assert pol.alpha_t == pytest.approx(0.2, rel=1e-15)
    assert pol.alpha_r == pytest.approx(0.2, rel=1e-15)
    assert pol.beta_t == pytest.approx(0.7, rel=1e-15)

    pol = Allocation(scheme="eep", alpha=0.55, beta_r=0.45).policy()
    assert isinstance(pol, system.EepPolicy)
    assert pol.alpha_et == 0.55
    assert pol.alpha_it == pytest.approx(0.45, rel=1e-15)
    assert pol.beta_t == pytest.approx(0.55, rel=1e-15)


def test_encode_decode_bounds():
    zeros = np.zeros(32, dtype=np.uint8)
    a = decode(zeros, "tep")
    assert a.alpha == 0.01 and a.beta_r == 0.01
    top = encode(Allocation(scheme="eep", alpha=0.99, beta_r=0.99))
    a = decode(top, "eep")
    assert a.alpha == pytest.approx(0.99, rel=1e-15)
    assert a.beta_r == pytest.approx(0.99, rel=1e-15)
    # adjacent levels encode one bit apart (Gray code), also across the
    # 0x9FFF -> 0xA000 boundary where a plain binary code flips 14 bits
    step = 0.98 / (2**16 - 1)
    lo, hi = (Allocation(scheme="tep", alpha=0.01 + lvl * step, beta_r=0.5)
              for lvl in (0x9FFF, 0xA000))
    assert int(np.count_nonzero(encode(lo) != encode(hi))) == 1


def test_decode_rejects_bad_length():
    with pytest.raises(ValueError):
        decode(np.zeros(31, dtype=np.uint8), "tep")
    with pytest.raises(ValueError):
        decode(np.zeros((2, 16), dtype=np.uint8), "tep")
    with pytest.raises(ValueError):
        decode(np.zeros(32, dtype=np.uint8), "tep", bits_per_var=12)


def test_encode_decode_roundtrip_quantization():
    rng = np.random.default_rng(99)
    step = 0.98 / (2**16 - 1)
    for _ in range(1000):
        alpha, beta = rng.uniform(0.01, 0.99, size=2)
        a = Allocation(scheme="tep", alpha=float(alpha), beta_r=float(beta))
        b = decode(encode(a), "tep")
        assert abs(b.alpha - a.alpha) <= step
        assert abs(b.beta_r - a.beta_r) <= step


def test_encode_decode_roundtrip_short_code():
    a = Allocation(scheme="eep", alpha=0.62, beta_r=0.38)
    b = decode(encode(a, bits_per_var=8), "eep", bits_per_var=8)
    step = 0.98 / (2**8 - 1)
    assert abs(b.alpha - a.alpha) <= step
    assert abs(b.beta_r - a.beta_r) <= step


def test_penalized_fitness_zero_penalty_branch():
    cfg = make_config(snr_db=60.0)
    alloc = Allocation(scheme="tep", alpha=0.5, beta_r=0.4)
    pol = alloc.policy()
    phi = analytics.success_prob("tep", cfg, pol, QUAD)
    delta = 1.0 / phi
    fit = penalized_fitness(alloc, cfg, delta_th=delta + 5.0, quad=QUAD)
    p_t, p_r = analytics.outage("tep", cfg, pol, QUAD)
    tput = analytics.sum_throughput("tep", (p_t, p_r), cfg.rate, pol)
    assert fit == pytest.approx(tput, rel=1e-9)


def test_penalized_fitness_linear_penalty_branch():
    cfg = make_config(snr_db=60.0)
    alloc = Allocation(scheme="eep", alpha=0.5, beta_r=0.4)
    pol = alloc.policy()
    phi = analytics.success_prob("eep", cfg, pol, QUAD)
    delta = 1.0 / phi
    assert delta > 2.0, "test point must violate by a unit margin"
    fit = penalized_fitness(alloc, cfg, delta_th=delta - 1.0, quad=QUAD)
    p_t, p_r = analytics.outage("eep", cfg, pol, QUAD)
    tput = analytics.sum_throughput("eep", (p_t, p_r), cfg.rate, pol)
    assert fit == pytest.approx(tput - 1e3, rel=1e-9)


@pytest.mark.parametrize("scheme", ["tep", "eep"])
@pytest.mark.parametrize("m_r", [2.0, 3.0])
def test_evaluate_batch_matches_scalar_path(scheme, m_r):
    # one array policy prices the batch; every row equals the one-allocation
    # path (Allocation.policy, perf_report) bit for bit, the variable bounds
    # 0.01 and 0.99 included, at 35 dB (fig11's operating point) and at a
    # rate whose ages cross the 10-slot threshold, so both penalty branches
    # run; with m_r = 3 the users' laws differ
    cfg = dataclasses.replace(make_config(snr_db=35.0, rate=2.0, n=30), fading_r=NakagamiParams(m=m_r, omega=1.0))
    axis = np.array([0.01, 0.2, 0.45, 0.7, 0.99])
    values = np.array([(a, b) for a in axis for b in axis])
    delta_th, coef = 10.0, 1e3
    fitness, throughput, aoi = optimizer.evaluate_batch(scheme, cfg, values, delta_th, QUAD, coef)
    assert (aoi < delta_th).any() and (aoi > delta_th).any()
    for row, (alpha, beta_r) in enumerate(values.tolist()):
        rep = analytics.perf_report(scheme, cfg, Allocation(scheme, alpha, beta_r).policy(), QUAD)
        age = 1.0 / max(rep.success_prob, 1e-12)
        assert throughput[row] == rep.sum_throughput
        assert aoi[row] == age
        assert fitness[row] == rep.sum_throughput - coef * max(0.0, age - delta_th)


@pytest.mark.parametrize("alpha, beta_r", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.2, 0.5),
                                           (math.nan, 0.5)])
def test_evaluate_batch_rejects_variables_outside_unit_interval(alpha, beta_r):
    # one bad row among good ones fails the batch, as its Allocation would
    cfg = make_config()
    values = np.array([[0.5, 0.4], [alpha, beta_r], [0.3, 0.6]])
    for scheme in ("tep", "eep"):
        with pytest.raises(ValueError):
            Allocation(scheme, alpha, beta_r)
        with pytest.raises(ValueError, match="must lie strictly inside"):
            optimizer.evaluate_batch(scheme, cfg, values, 10.0, QUAD, 1e3)
    with pytest.raises(ValueError, match="scheme must be"):
        optimizer.evaluate_batch("tdma", cfg, values[:1], 10.0, QUAD, 1e3)


def test_penalized_fitness_validates_threshold():
    cfg = make_config()
    alloc = Allocation(scheme="tep", alpha=0.5, beta_r=0.4)
    with pytest.raises(ValueError):
        penalized_fitness(alloc, cfg, delta_th=1.0, quad=QUAD)


def test_constant_objective_returns_it(monkeypatch):
    def const_stub(scheme, config, values, delta_th, quad, penalty_coef):
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
        if max(abs(res.best.alpha - 0.3), abs(res.best.beta_r - 0.7)) <= 0.02:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds converged"


def test_ga_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    ga = GaConfig(population=20, generations=30, seed=77)
    a = ga_run("p2", cfg, delta_th=10.0, ga=ga)
    b = ga_run("p2", cfg, delta_th=10.0, ga=ga)
    assert a.history == b.history
    assert a.best == b.best
    assert a.best_fitness == b.best_fitness
    # values of this seeded run; any change to the RNG stream or breeding moves them
    assert a.best.alpha == 0.29205935759517815
    assert a.best.beta_r == 0.6947962157625697
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
    def infeasible_stub(scheme, config, values, delta_th, quad, penalty_coef):
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
    def stub(scheme, config, values, delta_th, quad, penalty_coef):
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
    assert res.best.alpha == min(a for a, _ in seen)
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
    res = ga_run("p2", cfg, delta_th=10.0, ga=ga, quad=QUAD)
    assert 0.01 <= res.best.alpha <= 0.99
    assert 0.01 <= res.best.beta_r <= 0.99
    assert isinstance(res.best.policy(), system.EepPolicy)
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
    alpha, beta, fit = grid_search("p1", cfg, delta_th=10.0, quad=QUAD, steps=steps)
    assert abs(alpha - 0.3) <= cell / 2 + 1e-12
    assert abs(beta - 0.7) <= cell / 2 + 1e-12
    assert fit == pytest.approx(-((alpha - 0.3) ** 2) - (beta - 0.7) ** 2, rel=1e-12)


def test_ga_matches_grid_oracle_on_stub(monkeypatch):
    monkeypatch.setattr(optimizer, "evaluate_batch", separable_stub)
    cfg = make_config()
    ga_fit = ga_run("p1", cfg, delta_th=10.0, ga=GaConfig(seed=1)).best_fitness
    _, _, grid_fit = grid_search("p1", cfg, delta_th=10.0, quad=QUAD, steps=256)
    cell = 0.98 / 255
    # Lipschitz bound of the quadratic over the box: |grad| <= 2*sqrt(0.69^2+0.98^2)
    lipschitz = 2.0 * math.hypot(0.98 - 0.3, 0.99 - 0.01)
    assert ga_fit >= grid_fit - lipschitz * cell


def test_memoization_consistency():
    cfg = make_config(snr_db=58.0)
    ga = GaConfig(population=10, generations=6, seed=2)
    res = ga_run("p1", cfg, delta_th=10.0, ga=ga, quad=QUAD)
    direct = penalized_fitness(res.best, cfg, delta_th=10.0, quad=QUAD,
                               penalty_coef=ga.penalty_coef)
    assert direct == pytest.approx(res.best_fitness, rel=1e-12)

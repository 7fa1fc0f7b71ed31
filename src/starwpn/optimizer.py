"""Genetic-algorithm allocation of time and power under an age constraint.

Two problems are solved, one per NOMA scheme.  P1 (time-switching scheme)
optimizes (alpha_ap, beta_r) with the two charging fractions tied equal,
alpha_t = alpha_r = (1 - alpha_ap)/2; P2 (energy-splitting scheme) optimizes
(alpha_et, beta_r) with alpha_it = 1 - alpha_et.  Both decision variables
live in (0.01, 0.99) on 2^bits evenly spaced levels, so the protocol
equality constraints hold for every individual by construction.  Each level
is stored in reflected Gray code: neighbouring levels differ in one bit, so
mutation can always step to an adjacent level (a plain binary code needs many
simultaneous flips to cross boundaries such as 0x9FFF -> 0xA000).  The age
constraint is enforced through an additive penalty on the fitness.

Chromosomes are fixed-length bit arrays; selection is truncation-style (a
top fraction of the ranked population fathers children, mothers are drawn
uniformly), crossover is single-point, mutation is per-bit, and a configured
number of elites survives unchanged.  Each chromosome is priced once:
evaluate_batch prices a generation's fresh chromosomes as one policy whose
fields are arrays, one batch cell of the checked closed forms whose
throughput and age analytics.metrics derives, with no per-row Python.  The
run keeps one record of everything it priced, a column of (fitness,
throughput, age) per chromosome in order of first evaluation.  The result
is the record's fittest column that meets the age constraint, or, if none
does, the least-violating one (fitness breaks ties, then the earlier
evaluation wins).  generations_to_best is the first generation whose best
fitness equals the best of the whole run.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, channel, system

VAR_LO = 0.01
VAR_HI = 0.99

_AOI_CAP = 1e12  # the fitness's age cap, reached where phi <= 1e-12 (the metrics age 1/phi is inf at phi = 0)

PROBLEM_SCHEME = {"p1": "tep", "p2": "eep"}

# GA variables (alpha, beta_r) -> policy fields
_POLICY_FIELDS = {
    "tep": lambda a, b: dict(
        alpha_t=(1.0 - a) / 2.0, alpha_r=(1.0 - a) / 2.0, alpha_ap=a, beta_t=1.0 - b, beta_r=b
    ),
    "eep": lambda a, b: dict(alpha_et=a, alpha_it=1.0 - a, beta_t=1.0 - b, beta_r=b),
}


@dataclass(frozen=True)
class GaConfig:
    """Hyperparameters of the binary-coded GA."""

    population: int = 50
    generations: int = 100
    bits_per_var: int = 16
    selection_q: float = 0.8
    crossover_p: float = 0.8
    mutation_p: float = 0.01
    penalty_coef: float = 1e3
    seed: int = 20240811
    elitism: int = 1

    def __post_init__(self):
        for name in ("population", "generations", "bits_per_var", "elitism", "seed"):
            channel._require_int(name, getattr(self, name))
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not (4 <= self.bits_per_var <= 52):  # wider levels in (0.01, 0.99) collide as doubles
            raise ValueError(f"bits_per_var must lie in [4, 52], got {self.bits_per_var}")
        if not (0.0 < self.selection_q < 1.0):
            raise ValueError("selection_q must lie in (0,1)")
        if not (0.0 < self.crossover_p <= 1.0):
            raise ValueError("crossover_p must lie in (0,1]")
        if not (0.0 <= self.mutation_p < 1.0):
            raise ValueError("mutation_p must lie in [0,1)")
        # the penalty of an age at the cap, the largest there is, must be finite; NaN fails the first test
        if not (0.0 < self.penalty_coef and self.penalty_coef * _AOI_CAP < math.inf):
            raise ValueError(f"penalty_coef must be > 0 and its product with the age cap {_AOI_CAP:g} finite, "
                             f"got {self.penalty_coef}: ga.penalty_coef is out of range")
        if not (0 <= self.elitism < self.population):
            raise ValueError("elitism must satisfy 0 <= elitism < population")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _policy(scheme: str, alpha, beta_r):
    """The scheme's policy of the GA variables; arrays of them give one policy whose fields are arrays."""
    try:
        fields = _POLICY_FIELDS[scheme](alpha, beta_r)
    except KeyError:
        raise ValueError(f"scheme must be 'tep' or 'eep', got {scheme!r}") from None
    return system.SCHEMES[scheme].policy(**fields)


@dataclass(frozen=True)
class GaResult:
    """Best allocation found, its metrics, and the per-generation trace.

    alpha is the uplink fraction alpha_ap for the time-switching scheme and
    the charging fraction alpha_et for the energy-splitting scheme; the
    remaining protocol fractions follow from the equality constraints.
    """

    scheme: str
    alpha: float
    beta_r: float
    best_fitness: float
    best_throughput: float
    feasible: bool
    history: tuple
    aoi_at_best: float
    generations_to_best: int


def _bits_to_unit(bits: np.ndarray, bits_per_var: int) -> np.ndarray:
    """Rows of Gray-coded bits -> per-variable values in (VAR_LO, VAR_HI)."""
    # Gray -> binary: each binary digit is the XOR of all Gray digits above it
    binary = np.bitwise_xor.accumulate(bits.reshape(bits.shape[0], -1, bits_per_var), axis=-1)
    weights = 2.0 ** np.arange(bits_per_var - 1, -1, -1)
    levels = binary @ weights
    return VAR_LO + (VAR_HI - VAR_LO) * levels / (2.0**bits_per_var - 1.0)


def evaluate_batch(
    scheme: str,
    config: system.SystemConfig,
    values: np.ndarray,
    delta_th: float,
    penalty_coef: float,
):
    """Penalized fitness, raw throughput, and age for rows of (alpha, beta_r).

    The rows are priced as one policy whose fields are arrays: one batch
    cell of analytics.closed_forms, whose sum throughput and age
    analytics.metrics derives; the age is capped at _AOI_CAP.  A row whose
    alpha or beta_r lies outside (0, 1) raises ValueError.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    policy = _policy(scheme, values[:, 0], values[:, 1])
    cols = analytics.metrics(scheme, config.rate, policy, analytics.closed_forms([(scheme, config, policy)]).T)
    throughput, aoi = cols["sum_throughput"][0], np.minimum(cols["aoi"][0], _AOI_CAP)
    return throughput - penalty_coef * np.maximum(0.0, aoi - delta_th), throughput, aoi


def grid_search(
    problem: str,
    config: system.SystemConfig,
    delta_th: float,
    steps: int = 256,
    penalty_coef: float = 1e3,
):
    """Exhaustive penalized-fitness search on a steps x steps variable grid.

    Returns (alpha, beta_r, fitness) of the best cell; used as the oracle
    the GA is checked against.
    """
    scheme = _problem_scheme(problem)
    axis = np.linspace(VAR_LO, VAR_HI, steps)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    values = np.column_stack([aa.ravel(), bb.ravel()])
    fitness, _, _ = evaluate_batch(scheme, config, values, delta_th, penalty_coef)
    best = int(np.argmax(fitness))
    return float(values[best, 0]), float(values[best, 1]), float(fitness[best])


def _problem_scheme(problem: str) -> str:
    try:
        return PROBLEM_SCHEME[problem.lower()]
    except KeyError:
        raise ValueError(f"problem must be 'p1' or 'p2', got {problem!r}") from None


def ga_run(
    problem: str,
    config: system.SystemConfig,
    delta_th: float,
    ga: GaConfig,
) -> GaResult:
    """Run the GA and return the best allocation with its audit trail.

    Deterministic in ga.seed.  Of every chromosome evaluated, the result is
    the fittest with age < delta_th (feasible=True), or else the one with
    the least age violation, fitness breaking ties (feasible=False); equal
    keys go to the earliest evaluated.  generations_to_best is the first
    generation that reaches the best fitness in history.
    """
    if not (delta_th > 1.0):
        raise ValueError(f"delta_th must exceed 1, got {delta_th}")
    scheme = _problem_scheme(problem)
    width = 2 * ga.bits_per_var
    rng = np.random.default_rng(np.random.SeedSequence(ga.seed))
    pop = rng.integers(0, 2, size=(ga.population, width), dtype=np.uint8)

    column = {}  # chromosome bytes -> its column of record, in order of first evaluation
    record = np.empty((3, 0))  # (fitness, throughput, age) of every chromosome priced
    history = []

    for gen in range(1, ga.generations + 1):
        keys = [row.tobytes() for row in pop]
        fresh = {k: i for i, k in enumerate(keys) if k not in column}  # each new chromosome once, first seen first
        if fresh:
            column.update(zip(fresh, range(len(column), len(column) + len(fresh))))
            values = _bits_to_unit(pop[list(fresh.values())], ga.bits_per_var)
            priced = evaluate_batch(scheme, config, values, delta_th, ga.penalty_coef)
            record = np.concatenate([record, priced], axis=1)
        fitness = record[0, [column[k] for k in keys]]
        order = np.argsort(-fitness, kind="stable")
        history.append(float(fitness[order[0]]))
        if gen == ga.generations:
            break

        pool = order[: max(1, math.ceil(ga.selection_q * ga.population))]
        children = ga.population - ga.elitism
        fathers = pop[pool[rng.integers(0, pool.size, size=children)]]
        mothers = pop[rng.integers(0, ga.population, size=children)]
        cross = rng.random(children) < ga.crossover_p
        cuts = rng.integers(1, width, size=children)
        kids = np.where(cross[:, None] & (np.arange(width) >= cuts[:, None]), mothers, fathers)
        kids ^= (rng.random((children, width)) < ga.mutation_p).astype(np.uint8)
        pop = np.concatenate([pop[order[: ga.elitism]], kids])

    # the last key sorts first: feasible before infeasible, then the least violation, then fitness, then the earliest
    fit, _, age = record
    best = int(np.lexsort((-np.arange(age.size), fit, np.minimum(0.0, delta_th - age), age < delta_th))[-1])
    fit_val, tput_val, age_val = map(float, record[:, best])
    chosen = np.frombuffer(list(column)[best], dtype=np.uint8)
    alpha, beta_r = _bits_to_unit(chosen[None, :], ga.bits_per_var)[0]
    return GaResult(
        scheme=scheme,
        alpha=float(alpha),
        beta_r=float(beta_r),
        best_fitness=fit_val,
        best_throughput=tput_val,
        feasible=age_val < delta_th,
        history=tuple(history),
        aoi_at_best=age_val,
        generations_to_best=history.index(max(history)) + 1,
    )

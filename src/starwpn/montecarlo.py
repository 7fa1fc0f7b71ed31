"""Simulation oracle: channel sampling, SIC event counting, slot-level AoI.

Results are deterministic in (config, seed) and independent of how work is
parallelized: trials are cut into fixed-size chunks, and each chunk draws
from its own generator spawned as SeedSequence(entropy=seed, spawn_key=
(chunk,)).  `mc_counts` decodes every cell on each chunk as soon as it is
drawn and keeps only integer event counts, which sum to the same totals in
any order; so chunks run on worker threads, cells that share a gain
ensemble share its draws, and memory holds one chunk of gains per worker
whatever the trial count.  `mc_gains` concatenates the same chunks in chunk
order.

Within a chunk, gains are drawn in blocks of _BLOCK rows (`_chunk_gains`
gives the draw order), so memory holds one block of envelope draws per
worker besides the chunk's gains.
Integer Nakagami shapes up to _PRODUCT_MAX draw their Gamma variates
exactly as -log of a product of uniforms, which beats `standard_gamma`
there; other shapes call `standard_gamma` (`_unit_gamma`).  The stream is
part of the package version: the same version, config and seed give the
same bytes.

Two gain modes exist because the analytic model treats the two users'
combined channels as independent, while physically both cascades share the
same first-segment fades h_i.  `independent_gains` matches the analytic
assumption and is the default oracle mode; `shared_h` realizes the common
first segment so the modeling gap can be measured.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import system

GAIN_MODES = ("independent_gains", "shared_h")

_CHUNK = 1 << 16  # fixed chunk size, part of the determinism contract
_BLOCK = 1 << 12  # rows of envelopes drawn at a time; divides _CHUNK
_PRODUCT_MAX = 4  # integer Gamma shapes up to this draw as products of uniforms


@dataclass(frozen=True)
class McConfig:
    """Simulation size, master seed, and gain correlation mode."""

    trials: int
    seed: int
    gain_mode: str = "independent_gains"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"gain_mode must be one of {GAIN_MODES}, got {self.gain_mode!r}")


@dataclass(frozen=True)
class AoiTrace:
    """Outcome of a slot-level age simulation."""

    slots: int
    successes: int
    average_age: float

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if not (0 <= self.successes <= self.slots):
            raise ValueError("successes must lie in [0, slots]")
        if self.average_age < 1.0:
            raise ValueError("average age below 1 is impossible")


@dataclass(frozen=True)
class McCounts:
    """Decode counts of one cell: trials, users t and r not decoded, both decoded."""

    trials: int
    out_t: int
    out_r: int
    both_ok: int

    def _rate(self, count: int):
        """(p, se) of an event seen `count` times in `trials`."""
        p = count / self.trials
        return p, math.sqrt(p * (1.0 - p) / self.trials)

    def outage(self):
        """Empirical per-user outage (p_t, p_r, se_t, se_r)."""
        (p_t, se_t), (p_r, se_r) = self._rate(self.out_t), self._rate(self.out_r)
        return p_t, p_r, se_t, se_r

    def success(self):
        """Empirical probability (phi, se) that both users decode in one block."""
        return self._rate(self.both_ok)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _unit_gamma(rng: np.random.Generator, m: float, shape: tuple) -> np.ndarray:
    """Gamma(m, 1) draws of the given shape.

    An integer m <= _PRODUCT_MAX is drawn exactly as -log of the product of
    m factors 1 - U (U from `rng.random`, one block of uniforms per factor),
    a sum of m unit exponentials; each factor lies in (0, 1], so every draw
    is finite.  Other shapes call `rng.standard_gamma`.
    """
    if m == int(m) and m <= _PRODUCT_MAX:
        u = rng.random((int(m), *shape))
        p = np.subtract(1.0, u, out=u).prod(axis=0)
        return np.negative(np.log(p, out=p), out=p)
    return rng.standard_gamma(m, size=shape)


def _chunk_gains(config: system.SystemConfig, mc: McConfig, index: int):
    """(G_t, G_r) of one full chunk, drawn in blocks of _BLOCK rows.

    Each block draws the surface-side Gamma(m, 1) matrix x, then t's hop
    y_t, then (with `independent_gains`) a fresh x, then r's hop y_r, and
    adds the row sums of sqrt(x * y) to the user's chunk sums.  The
    envelope scales sqrt(omega/m) of both hops multiply each user's sums
    once at the end, so memory holds one block of draws at a time.
    """
    rng = _chunk_rng(mc.seed, index)
    ris, hops = config.fading_ris, (config.fading_t, config.fading_r)
    shape = (_BLOCK, config.n_elements)
    sums = np.empty((2, _CHUNK))
    for start in range(0, _CHUNK, _BLOCK):
        x = _unit_gamma(rng, ris.m, shape)
        for user, hop in enumerate(hops):
            if user and mc.gain_mode == "independent_gains":
                x = _unit_gamma(rng, ris.m, shape)
            xy = x * _unit_gamma(rng, hop.m, shape)
            sums[user, start : start + _BLOCK] = np.sqrt(xy, out=xy).sum(axis=1)
    for user, hop in enumerate(hops):
        sums[user] *= math.sqrt(ris.omega / ris.m * hop.omega / hop.m)
    return sums[0], sums[1]


def mc_gains(config: system.SystemConfig, mc: McConfig):
    """Draw `trials` realizations of the co-phased sums (G_t, G_r).

    Every chunk draws its full width even when fewer trials remain, so the
    first `k` trials of any run are bit-identical for every trials >= k: a
    longer simulation strictly refines a shorter one with the same seed.
    """
    chunks = [_chunk_gains(config, mc, idx) for idx in range(math.ceil(mc.trials / _CHUNK))]
    return tuple(np.concatenate(parts)[: mc.trials] for parts in zip(*chunks))


def mc_counts(cells, mc: McConfig, threads: int = 1) -> list:
    """McCounts of every (scheme, config, policy) cell, in the order given.

    Cells whose configs agree on the channel law (N and the three fading
    laws, `system.cell_groups`) share one gain ensemble.  Each chunk of an
    ensemble is drawn once, every cell of the ensemble is decoded on it
    once, and the chunk is dropped; chunks run on `threads` workers.
    """
    chunks = [(idx, min(_CHUNK, mc.trials - start)) for idx, start in enumerate(range(0, mc.trials, _CHUNK))]
    tasks = [(group, chunk) for group in system.cell_groups(cells) for chunk in chunks]

    def count(task):
        (config, index, *decoders), (idx, rows) = task
        q_t, q_r = (x[:rows] ** 4 for x in _chunk_gains(config, mc, idx))
        out = []
        for noma, c_t, c_r, g in zip(*decoders):
            gamma_t, gamma_r = c_t * q_t, c_r * q_r
            t_ok, r_ok = system.sic_outcome(gamma_t, gamma_r, g) if noma else (gamma_t >= g, gamma_r >= g)
            ok_t, ok_r = np.count_nonzero(t_ok), np.count_nonzero(r_ok)
            out.append((rows - ok_t, rows - ok_r, np.count_nonzero(t_ok & r_ok)))
        return index, out

    totals = np.zeros((len(cells), 3), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index, counts in pool.map(count, tasks):
            totals[index] += counts
    return [McCounts(mc.trials, *map(int, row)) for row in totals]


def mc_outage(scheme: str, config: system.SystemConfig, policy, mc: McConfig):
    """Empirical per-user outage (p_t, p_r, se_t, se_r) of one cell."""
    return mc_counts([(scheme, config, policy)], mc)[0].outage()


def mc_success(scheme: str, config: system.SystemConfig, policy, mc: McConfig):
    """Empirical probability (phi, se) that both users decode in one block."""
    return mc_counts([(scheme, config, policy)], mc)[0].success()


def aoi_simulate(source, slots: int, seed: int = 0) -> AoiTrace:
    """Simulate the per-slot age process and return its time average.

    The age grows by one each slot and resets to one on a successful update.
    `source` is either a success probability (slots become iid Bernoulli) or
    a boolean per-slot event array of length >= slots.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if np.ndim(source) == 0:
        phi = float(source)
        if not (0.0 <= phi <= 1.0):
            raise ValueError(f"success probability must lie in [0,1], got {phi}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        events = rng.random(slots) < phi
    else:
        events = np.asarray(source, dtype=bool)
        if events.size < slots:
            raise ValueError(f"event source has {events.size} slots, need {slots}")
        events = events[:slots]
    idx = np.arange(1, slots + 1)
    last_success = np.maximum.accumulate(np.where(events, idx, 0))
    age = np.where(last_success > 0, idx - last_success + 1, idx)
    return AoiTrace(slots=slots, successes=int(events.sum()), average_age=float(age.mean()))

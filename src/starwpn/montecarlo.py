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
gives the draw order).  A chunk allocates its scratch once and reuses it
for every block and every cell: three blocks of draws (x, y and one factor
of uniforms) for the gains, then two SNR rows, a quotient row and four
boolean masks for the decode.  The last chunk of a run draws only the
blocks that hold its trials; blocks come in stream order, so a partial
chunk is a prefix of the full one.
Integer Nakagami shapes up to _PRODUCT_MAX draw their Gamma variates
exactly as -log of a product of uniforms, which beats `standard_gamma`
there; other shapes call `standard_gamma` (`_neg_unit_gamma`).  The stream
is part of the package version: the same version, config and seed give the
same bytes.

Two gain modes exist because the analytic model treats the two users'
combined channels as independent, while physically both cascades share the
same first-segment fades h_i.  `independent_gains` matches the analytic
assumption and is the default oracle mode; `shared_h` realizes the common
first segment so the modeling gap can be measured.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, system

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
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _neg_unit_gamma(rng: np.random.Generator, m: float, out: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Fill `out` with negated Gamma(m, 1) draws; `factor` is scratch of its shape.

    An integer m <= _PRODUCT_MAX is drawn exactly as the log of the product
    of m factors 1 - U (U from `rng.random`, one block of uniforms per
    factor in turn), which is minus a sum of m unit exponentials; each
    factor lies in (0, 1], so every draw is finite.  Other shapes negate
    `rng.standard_gamma`.  Callers multiply two such blocks, and
    (-a) * (-b) == a * b exactly, so no negation is needed on the product
    path.
    """
    if m == int(m) and m <= _PRODUCT_MAX:
        np.subtract(1.0, rng.random(out=out), out=out)
        for _ in range(int(m) - 1):
            out *= np.subtract(1.0, rng.random(out=factor), out=factor)
        return np.log(out, out=out)
    return np.negative(rng.standard_gamma(m, out=out), out=out)


def _chunk_gains(law: channel.ChannelLaw, mc: McConfig, index: int, rows: int) -> np.ndarray:
    """(G_t, G_r) under `law` of the first `rows` trials of a chunk, as a (2, rows) array.

    The chunk is drawn in blocks of _BLOCK rows, only as many blocks as hold
    `rows` trials.  Each block draws the surface-side Gamma(m, 1) matrix x,
    then t's hop y_t, then (with `independent_gains`) a fresh x, then r's
    hop y_r, and writes the row sums of sqrt(x * y) to the user's chunk
    sums.  The envelope scales sqrt(omega/m) of both hops multiply each
    user's sums once at the end.  Three scratch blocks, x, y and one factor
    of uniforms, serve every block of the chunk.
    """
    rng = _chunk_rng(mc.seed, index)
    ris, hops = law.fading_ris, (law.fading_t, law.fading_r)
    x, y, factor = np.empty((3, _BLOCK, law.n_elements))
    sums = np.empty((2, -(-rows // _BLOCK) * _BLOCK))
    for start in range(0, sums.shape[1], _BLOCK):
        _neg_unit_gamma(rng, ris.m, x, factor)
        for user, hop in enumerate(hops):
            if user and mc.gain_mode == "independent_gains":
                _neg_unit_gamma(rng, ris.m, x, factor)
            xy = np.multiply(x, _neg_unit_gamma(rng, hop.m, y, factor), out=y)
            np.sum(np.sqrt(xy, out=xy), axis=1, out=sums[user, start : start + _BLOCK])
    for user, hop in enumerate(hops):
        sums[user] *= math.sqrt(ris.omega / ris.m * hop.omega / hop.m)
    return sums[:, :rows]


def _chunks(trials: int) -> list:
    """(index, rows) of every chunk of a `trials`-trial run."""
    return [(idx, min(_CHUNK, trials - start)) for idx, start in enumerate(range(0, trials, _CHUNK))]


def mc_gains(config: system.SystemConfig, mc: McConfig):
    """Draw `trials` realizations of the co-phased sums (G_t, G_r).

    A chunk's streams depend only on (seed, chunk), and a partial last
    chunk draws whole blocks in the same order as a full one, so the first
    `k` trials of any run are bit-identical for every trials >= k: a
    longer simulation strictly refines a shorter one with the same seed.
    """
    g_t, g_r = np.concatenate([_chunk_gains(config.law, mc, idx, rows) for idx, rows in _chunks(mc.trials)], axis=1)
    return g_t, g_r


def mc_counts(cells, mc: McConfig, threads: int = 1) -> list:
    """McCounts of every row of (scheme, config, policy) cells, rows in cell order.

    A batch cell gives one row per element (`system.cell_groups`, which
    groups the rows by `config.law`: N and the three fading laws).  Rows of
    one law share one gain ensemble, drawn from that law.  Each chunk of an
    ensemble is drawn once, every row of the ensemble is decoded on it
    once, and the chunk is dropped; chunks run on `threads` workers.  Each
    chunk's decode reuses one set of scratch rows for every row: the SNRs
    c * q, the cross-SINR quotient and four boolean masks.
    """
    groups = system.cell_groups(cells)
    tasks = [(group, chunk) for group in groups for chunk in _chunks(mc.trials)]

    def count(task):
        (law, index, *decoders), (idx, rows) = task
        q = _chunk_gains(law, mc, idx, rows)
        q_t, q_r = np.power(q, 4, out=q)
        gamma_t, gamma_r, quotient = np.empty((3, rows))
        masks = np.empty((4, rows), dtype=bool)
        out = []
        for noma, c_t, c_r, g in zip(*decoders):
            np.multiply(c_t, q_t, out=gamma_t)
            np.multiply(c_r, q_r, out=gamma_r)
            if noma:
                t_ok, r_ok = system.sic_outcome(gamma_t, gamma_r, g, scratch=(quotient, masks))
            else:
                t_ok, r_ok = np.greater_equal(gamma_t, g, out=masks[2]), np.greater_equal(gamma_r, g, out=masks[3])
            ok_t, ok_r = np.count_nonzero(t_ok), np.count_nonzero(r_ok)
            out.append((rows - ok_t, rows - ok_r, np.count_nonzero(np.logical_and(t_ok, r_ok, out=masks[0]))))
        return index, out

    totals = np.zeros((sum(group[1].size for group in groups), 3), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index, counts in pool.map(count, tasks):
            totals[index] += counts
    return [McCounts(mc.trials, *map(int, row)) for row in totals]


def mc_outage(scheme: str, config: system.SystemConfig, policy, mc: McConfig):
    """Empirical per-user outage (p_t, p_r, se_t, se_r) of a one-row cell; a batch cell raises ValueError."""
    (counts,) = mc_counts([(scheme, config, policy)], mc)
    return counts.outage()


def mc_success(scheme: str, config: system.SystemConfig, policy, mc: McConfig):
    """Empirical probability (phi, se) that both users decode in one block, of a one-row cell (not a batch)."""
    (counts,) = mc_counts([(scheme, config, policy)], mc)
    return counts.success()


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

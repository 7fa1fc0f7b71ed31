"""Simulation oracle: channel sampling, SIC event counting, slot-level AoI.

Results are deterministic in (config, seed) and independent of how work is
parallelized: trials are cut into fixed-size chunks, each chunk draws from
its own generator spawned as SeedSequence(entropy=seed, spawn_key=(chunk,)),
and per-chunk outputs are concatenated in chunk order.  Any scheduler that
evaluates chunks concurrently reproduces the serial stream bit for bit.

Two gain modes exist because the analytic model treats the two users'
combined channels as independent, while physically both cascades share the
same first-segment fades h_i.  `independent_gains` matches the analytic
assumption and is the default oracle mode; `shared_h` realizes the common
first segment so the modeling gap can be measured.
"""

from dataclasses import dataclass

import numpy as np

from . import system
from .channel import NakagamiParams

GAIN_MODES = ("independent_gains", "shared_h")

_CHUNK = 1 << 16  # fixed chunk size, part of the determinism contract


@dataclass(frozen=True)
class McConfig:
    """Simulation size, master seed, and gain correlation mode."""

    trials: int
    seed: int
    gain_mode: str = "independent_gains"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
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


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _envelopes(rng: np.random.Generator, params: NakagamiParams, shape) -> np.ndarray:
    return np.sqrt(rng.gamma(params.m, params.omega / params.m, size=shape))


def mc_gains(config: system.SystemConfig, mc: McConfig):
    """Draw `trials` realizations of the co-phased sums (G_t, G_r).

    Every chunk draws its full width even when fewer trials remain, so the
    first `k` trials of any run are bit-identical for every trials >= k: a
    longer simulation strictly refines a shorter one with the same seed.
    """
    g_t = np.empty(mc.trials)
    g_r = np.empty(mc.trials)
    n = config.n_elements
    for idx, start in enumerate(range(0, mc.trials, _CHUNK)):
        stop = min(start + _CHUNK, mc.trials)
        rows = stop - start
        rng = _chunk_rng(mc.seed, idx)
        if mc.gain_mode == "shared_h":
            h = _envelopes(rng, config.fading_ris, (_CHUNK, n))
            g_t[start:stop] = (h * _envelopes(rng, config.fading_t, (_CHUNK, n))).sum(axis=1)[:rows]
            g_r[start:stop] = (h * _envelopes(rng, config.fading_r, (_CHUNK, n))).sum(axis=1)[:rows]
        else:
            h1 = _envelopes(rng, config.fading_ris, (_CHUNK, n))
            g_t[start:stop] = (h1 * _envelopes(rng, config.fading_t, (_CHUNK, n))).sum(axis=1)[:rows]
            h2 = _envelopes(rng, config.fading_ris, (_CHUNK, n))
            g_r[start:stop] = (h2 * _envelopes(rng, config.fading_r, (_CHUNK, n))).sum(axis=1)[:rows]
    return g_t, g_r


def _decode_events(scheme: str, config: system.SystemConfig, policy, gains):
    gamma_t, gamma_r = system.uplink_snrs(scheme, policy, config, *gains)
    g = config.snr_threshold
    if system.scheme_spec(scheme).noma:
        return system.sic_outcome(gamma_t, gamma_r, g)
    return gamma_t >= g, gamma_r >= g


def _rate_and_se(events: np.ndarray):
    n = events.size
    p = events.mean()
    return float(p), float(np.sqrt(p * (1.0 - p) / n))


def mc_outage(scheme: str, config: system.SystemConfig, policy, mc: McConfig, gains=None):
    """Empirical per-user outage (p_t, p_r, se_t, se_r).

    `gains` may carry a precomputed mc_gains result so that several schemes
    or SNR points reuse one channel ensemble (the gains do not depend on
    powers, rates, or policy).
    """
    if gains is None:
        gains = mc_gains(config, mc)
    t_ok, r_ok = _decode_events(scheme, config, policy, gains)
    p_t, se_t = _rate_and_se(~t_ok)
    p_r, se_r = _rate_and_se(~r_ok)
    return p_t, p_r, se_t, se_r


def mc_success(scheme: str, config: system.SystemConfig, policy, mc: McConfig, gains=None):
    """Empirical probability (phi, se) that both users decode in one block."""
    if gains is None:
        gains = mc_gains(config, mc)
    t_ok, r_ok = _decode_events(scheme, config, policy, gains)
    return _rate_and_se(t_ok & r_ok)


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

"""The regularized incomplete gamma functions of channel against a 40-digit reference, with scipy as a second oracle.

tests/gamma_reference.json is written by tests/make_gamma_reference.py
(mpmath at 40 digits, each value rounded once to double precision).
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from starwpn import channel

REFERENCE = json.loads((Path(__file__).resolve().parent / "gamma_reference.json").read_text(encoding="utf-8"))


def _by_shape(rows):
    """{a: columns of the rows with that a} from rows of hex floats whose first entry is a."""
    table = np.array([[float.fromhex(v) for v in row] for row in rows])
    return {a: table[table[:, 0] == a, 1:].T for a in np.unique(table[:, 0])}


TAILS = _by_shape(REFERENCE["tails"])
INVERSE = _by_shape(REFERENCE["inverse"])


def _smaller_tail_error(p, q, p_ref, q_ref):
    """Relative error of the smaller tail, and absolute error of the larger, both against the reference."""
    lower = p_ref < q_ref
    small, small_ref = np.where(lower, p, q), np.where(lower, p_ref, q_ref)
    large, large_ref = np.where(lower, q, p), np.where(lower, q_ref, p_ref)
    return np.abs(small / small_ref - 1.0), np.abs(large - large_ref)


def test_reference_covers_the_shapes_and_tails_it_claims():
    assert REFERENCE["digits"] == 40
    shapes = sorted(TAILS)
    assert shapes[0] == 0.5 and shapes[-1] == 800.0 and len(shapes) >= 15
    for a, (x, p, q) in TAILS.items():
        # from the 1e-300 lower quantile (or the smallest normal double) to the 1e-300 upper quantile
        assert q.min() < 1e-299 and (x.min() < 2.3e-308 or p.min() < 1e-299)
        assert np.sum(np.abs(x / a - 1.0) <= 0.4) >= 25  # denser near x = a
    assert all(q.min() == 1e-300 and q.max() > 0.999 for q, _ in INVERSE.values())


def test_tails_match_the_reference():
    # the smaller tail within 1e-13 relative up to a = 200; above, no worse
    # than scipy, which is off by about 1.2e-12 at a = 700.  Measured: ours
    # within 8.4e-15 up to a = 200 and 3e-14 up to a = 800, so 4e-14 holds
    # everywhere; the larger tail, 1 - the smaller, within 1e-15 absolute
    for a, (x, p_ref, q_ref) in TAILS.items():
        p, q = channel._IncGamma(a).tails(x)
        rel, absolute = _smaller_tail_error(p, q, p_ref, q_ref)
        assert np.all(absolute <= 1e-15), a
        if a <= 200.0:
            assert rel.max() <= 1e-13, (a, rel.max())
        else:
            scipy_rel, _ = _smaller_tail_error(special.gammainc(a, x), special.gammaincc(a, x), p_ref, q_ref)
            assert rel.max() <= max(scipy_rel.max(), 1e-13), (a, rel.max(), scipy_rel.max())
        assert rel.max() <= 4e-14, (a, rel.max())


def test_inverse_matches_the_reference_and_round_trips():
    # x with Q(a, x) = q within 1e-13 of the reference; and x -> the smaller
    # tail at x -> its inverse gives x back within 1e-13 at every reference x
    for a, (q, x_ref) in INVERSE.items():
        gamma = channel._IncGamma(a)
        x = gamma.inverse(q, upper=True)
        assert np.all(np.abs(x / x_ref - 1.0) <= 1e-13), (a, np.abs(x / x_ref - 1.0).max())
    for a, (x, p_ref, q_ref) in TAILS.items():
        gamma = channel._IncGamma(a)
        p, q = gamma.tails(x)
        lower = p_ref < q_ref
        back = np.where(lower, gamma.inverse(p, upper=False), gamma.inverse(q, upper=True))
        assert np.all(np.abs(back / x - 1.0) <= 1e-13), (a, np.abs(back / x - 1.0).max())


def test_tails_agree_with_scipy_between_the_reference_shapes():
    # scipy as the second oracle, at shapes and points the file does not hold:
    # within scipy's own error: 3e-12 relative on the smaller tail, 4e-15 absolute on the larger
    rng = np.random.default_rng(32)
    for a in np.exp(rng.uniform(np.log(0.5), np.log(800.0), 40)):
        lo, hi = special.gammaincinv(a, 1e-280), special.gammainccinv(a, 1e-280)
        x = np.exp(rng.uniform(np.log(max(lo, 1e-300)), np.log(hi), 200))
        p, q = channel._IncGamma(a).tails(x)
        p_sp, q_sp = special.gammainc(a, x), special.gammaincc(a, x)
        rel, absolute = _smaller_tail_error(p, q, p_sp, q_sp)
        assert rel.max() <= 3e-12 and absolute.max() <= 4e-15, a


@pytest.mark.parametrize("a", [0.5, 0.68, 1e3, 1e6, 1e17])
def test_extremes_give_finite_values_or_the_documented_ends_without_warnings(a):
    # x = 0, a subnormal, a and inf; mass 0, 1e-300 and 1.  No loop grows
    # with a, so a = 1e17 costs what a = 1e3 does
    gamma = channel._IncGamma(a)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        p, q = gamma.tails(np.array([0.0, 5e-324, a, np.inf]))
        upper = gamma.inverse(np.array([0.0, 1e-300, 1.0]), upper=True)
        lower = gamma.inverse(np.array([0.0, 1e-300, 1.0]), upper=False)
    assert (p[0], q[0], p[-1], q[-1]) == (0.0, 1.0, 1.0, 0.0)
    assert 0.0 <= p[1] < 1e-150 and q[1] == 1.0 - p[1]
    assert 0.3 < q[2] < 0.5 < p[2] < 0.7 and p[2] + q[2] == pytest.approx(1.0, abs=1e-15)
    assert upper[0] == np.inf and upper[2] == 0.0 and lower[0] == 0.0 and lower[2] == np.inf
    assert 0.0 < upper[1] < np.inf and 0.0 <= lower[1] < upper[1]
    # to the conditioning of x: at a = 1e17 one ulp of x moves Q(a, x) by 1e-6
    assert gamma.tails(upper[1])[1] == pytest.approx(1e-300, rel=1e-3)
    if lower[1] > 0.0:
        assert gamma.tails(lower[1])[0] == pytest.approx(1e-300, rel=1e-3)
    assert math.isnan(gamma.tails(np.nan)[0]) and np.isnan(gamma.inverse(np.array([-0.5, 1.5, np.nan]), True)).all()


def test_missed_tolerance_raises(monkeypatch):
    # a continued fraction cut at 4 terms cannot reach 2^-52, and it says so
    # instead of returning what it has; the CLI turns this into exit code 3
    monkeypatch.setattr(channel, "_TERMS", 4)
    with pytest.raises(channel.ConvergenceError):
        channel._continued_fraction(0.5, np.array([1.6, 40.0]))
    with pytest.raises(channel.ConvergenceError):
        channel._IncGamma(50.0)
    monkeypatch.undo()
    monkeypatch.setattr(channel, "_NEWTON", 1)
    with pytest.raises(channel.ConvergenceError):
        channel._IncGamma(3.56).inverse(np.array([1e-200]), upper=True)


def test_routines_keep_no_module_state():
    # worker threads call them: the per-shape constants live on the
    # _IncGamma of each fit, and the module's arrays are read-only constants
    before = {name: value.copy() for name, value in vars(channel).items() if isinstance(value, np.ndarray)}
    gamma = channel._IncGamma(106.8)
    gamma.tails(np.geomspace(1.0, 1e3, 50))
    gamma.inverse(np.geomspace(1e-300, 0.9, 20), upper=True)
    after = {name: value for name, value in vars(channel).items() if isinstance(value, np.ndarray)}
    assert before.keys() == after.keys()
    assert all(np.array_equal(before[name], after[name]) for name in before)

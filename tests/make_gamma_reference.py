"""Reference values of the regularized incomplete gamma functions, and the constants channel's routines use.

Regenerate the data file that tests/test_gamma.py reads with

    python3 tests/make_gamma_reference.py

which needs mpmath (1.3.0 was used) and writes tests/gamma_reference.json
in under a minute.  Everything is computed by mpmath at 40 significant
digits and rounded once to double precision; floats are stored in their
hex form.  The file holds, for shapes a from 0.5 to 800:

- "tails": rows (a, x, P(a, x), Q(a, x)), x log-spaced from the 1e-300
  lower quantile (or the smallest normal double, where that quantile
  underflows) to the 1e-300 upper quantile, and denser near x = a: x / a
  from 0.6 to 1.4 and a + j sqrt(a) for |j| <= 6;
- "inverse": rows (a, q, x) with Q(a, x) = q, q from 1e-300 to 1 - 1e-6.

    python3 tests/make_gamma_reference.py --coefficients

prints instead the two tables that src/starwpn/channel.py holds: the
Taylor coefficients in eta of Temme's C_k(eta) (DiDonato and Morris 1986,
from the recursion C_k = C_(k-1)' / eta + gamma_k / mu with the pole
cancelled, mu = lambda - 1 and eta^2 / 2 = mu - ln(1 + mu) reverted by
Lagrange's formula), and the Chebyshev series of (K + z) erfcx(z) in
t = (z - K) / (z + K), K = 3.75.  Tier-1 tests never import mpmath.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40
OUT = Path(__file__).resolve().parent / "gamma_reference.json"
SHAPES = (0.5, 0.68, 1.0, 1.78, 3.56, 10.0, 17.8, 19.9, 20.1, 35.6, 50.0, 106.8, 178.0, 200.0,
          356.0, 500.0, 676.4, 712.0, 800.0)
MASSES = (1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1e-50, 1e-28, 1e-15, 1e-6, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9,
          1.0 - 1e-6)
TEMME_K, TEMME_N = 12, 15  # C_0 .. C_11, each to eta^14: the dropped terms are below 1e-17 for a >= 20, |eta| <= 0.34
ERFCX_K, ERFCX_TERMS = 3.75, 25


def q_upper(a, x):
    return mp.gammainc(a, x, mp.inf, regularized=True)


def p_lower(a, x):
    return mp.gammainc(a, 0, x, regularized=True)


def quantile(tail, a, target, lo, hi):
    """x in [lo, hi] with tail(a, x) = target, by bisection in ln x on ln tail (monotone)."""
    lo, hi, goal = mp.log(lo), mp.log(hi), mp.log(target)
    rising = tail is p_lower
    for _ in range(400):
        mid = (lo + hi) / 2
        value = mp.log(tail(a, mp.exp(mid)))
        if (value < goal) == rising:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf(10) ** -36:
            break
    return mp.exp((lo + hi) / 2)


def tail_rows(a):
    am = mp.mpf(a)
    smallest = mp.mpf(2.0**-1022)
    x_lo = quantile(p_lower, am, mp.mpf("1e-300"), mp.mpf("1e-400"), am)
    x_lo = max(x_lo, smallest)
    x_hi = quantile(q_upper, am, mp.mpf("1e-300"), am, am + 2000 + 50 * mp.sqrt(am))
    xs = {float(v) for v in mp.linspace(mp.log(x_lo), mp.log(x_hi), 48)}
    xs = {float(mp.exp(v)) for v in xs}
    xs |= {float(am * (mp.mpf(6) / 10 + mp.mpf(8) / 10 * j / 24)) for j in range(25)}
    xs |= {float(am + j * mp.sqrt(am)) for j in range(-6, 7) if am + j * mp.sqrt(am) > 0}
    rows = []
    for x in sorted(xs):
        xm = mp.mpf(x)
        rows.append([float(a).hex(), x.hex(), float(p_lower(am, xm)).hex(), float(q_upper(am, xm)).hex()])
    return rows


def inverse_rows(a):
    am = mp.mpf(a)
    rows = []
    for q in MASSES:
        lo = mp.mpf("1e-320")
        hi = am + 2000 + 50 * mp.sqrt(am)
        x = quantile(q_upper, am, mp.mpf(q), lo, hi)
        rows.append([float(a).hex(), float(q).hex(), float(x).hex()])
    return rows


def temme_coefficients(k_max, n_max):
    """d[k][n], the Taylor coefficients in eta of Temme's C_k(eta), k < k_max, n < n_max."""
    m = n_max + 2 * k_max + 2

    def mul(p, q):
        return [mp.fsum(p[i] * q[n - i] for i in range(n + 1)) for n in range(m + 1)]

    def inv(p):
        out = [1 / p[0]]
        for n in range(1, m + 1):
            out.append(-mp.fsum(p[j] * out[n - j] for j in range(1, n + 1)) / p[0])
        return out

    def log(p):  # p[0] = 1
        dp = [(j + 1) * p[j + 1] for j in range(m)] + [mp.mpf(0)]
        q = mul(dp, inv(p))
        return [mp.mpf(0)] + [q[j - 1] / j for j in range(1, m + 1)]

    def exp(p):  # p[0] = 0
        out = [mp.mpf(1)]
        dp = [(j + 1) * p[j + 1] for j in range(m)]
        for n in range(1, m + 1):
            out.append(mp.fsum(dp[j] * out[n - 1 - j] for j in range(n)) / n)
        return out

    # eta = mu sqrt(g(mu)), g(mu) = 2 (mu - ln(1 + mu)) / mu^2; Lagrange: mu = sum_n eta^n [w^(n-1)] g^(-n/2) / n
    log_g = log([mp.mpf(2) * (-1) ** j / (j + 2) for j in range(m + 1)])
    mu = [mp.mpf(0)] + [exp([-mp.mpf(n) / 2 * c for c in log_g])[n - 1] / n for n in range(1, m + 2)]
    u = inv(mu[1:m + 2])  # eta / mu
    c = [u[n + 1] for n in range(m)]  # C_0 = 1 / mu - 1 / eta
    table = [c[:n_max]]
    for _ in range(1, k_max):
        gamma = -c[1]  # the coefficient of 1 / mu that cancels the pole of C_(k-1)' / eta
        c = [(j + 2) * c[j + 2] + gamma * u[j + 1] for j in range(len(c) - 2)]
        table.append(c[:n_max])
    return table


def erfcx_chebyshev(k, terms, nodes=120):
    """Chebyshev coefficients of (k + z) erfcx(z) in t = (z - k) / (z + k) on [-1, 1], the first halved."""
    def g(t):
        if t == 1:
            return 1 / mp.sqrt(mp.pi)
        z = k * (1 + t) / (1 - t)
        return (k + z) * mp.exp(z * z) * mp.erfc(z)

    theta = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
    values = [g(mp.cos(th)) for th in theta]
    coef = [2 * mp.fsum(v * mp.cos(n * th) for v, th in zip(values, theta)) / nodes for n in range(terms)]
    coef[0] /= 2
    return coef


def _rows(values, indent):
    """The floats of values as source lines of at most 116 characters."""
    lines, line = [], indent
    for text in (repr(float(v)) + "," for v in values):
        if len(line) + len(text) + 1 > 116:
            lines.append(line.rstrip())
            line = indent
        line += text + " "
    return lines + [line.rstrip()]


def print_coefficients():
    print("_TEMME = np.array((")
    for row in temme_coefficients(TEMME_K, TEMME_N):
        body = _rows(row, "     ")
        print("\n".join(["    (" + body[0].lstrip(), *body[1:]])[:-1] + "),")
    print("))")
    print("_ERFCX = np.array((")
    print("\n".join(_rows(erfcx_chebyshev(mp.mpf(ERFCX_K), ERFCX_TERMS), "    ")))
    print("))")


def main():
    if "--coefficients" in sys.argv[1:]:
        print_coefficients()
        return
    data = {"digits": mp.mp.dps, "tails": [], "inverse": []}
    for a in SHAPES:
        data["tails"] += tail_rows(a)
        data["inverse"] += inverse_rows(a)
        print(f"a = {a}: {len(data['tails'])} tail rows, {len(data['inverse'])} inverse rows", flush=True)
    OUT.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()

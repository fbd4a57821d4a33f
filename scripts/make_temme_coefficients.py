#!/usr/bin/env python3
"""Print the coefficient block of the Poisson tail in ``bmdlimits.kernels``.

Usage: python scripts/make_temme_coefficients.py

For k >= 50, ``kernels.poisson_tail`` evaluates P{Pois(m) >= k} = P(k, m) by
Temme's uniform asymptotic expansion (DLMF §8.12; Temme 1987):

    P(k, m) = erfc(-eta sqrt(k/2)) / 2
              - exp(-k eta**2 / 2) / sqrt(2 pi k) * sum_j c_j(eta) k**-j,

with lambda = m / k and eta**2 / 2 = lambda - 1 - log(lambda).  Each c_j is a
power series sum_n d[j][n] eta**n, and this script derives the d[j][n]
exactly in rational arithmetic:

1. lambda - 1 = sum_n a_n eta**n, from mu * dmu/deta = eta (1 + mu) with
   mu = lambda - 1 (the series reversion of eta**2 / 2 = mu - log(1 + mu));
2. c_0 = 1 / mu - 1 / eta;
3. c_j = c_{j-1}'(eta) / eta + (-1)**j g_j / mu, where g_j are the Stirling
   coefficients of Gamma(z) ~ sqrt(2 pi / z) (z / e)**z sum_j g_j z**-j,
   computed from the Bernoulli numbers.  The 1/eta poles cancel, which the
   script checks.

The block it prints holds two truncations of the table, written as unrolled
Horner expressions: one for k >= 500 and one for 50 <= k < 500 (``TIERS``).
Each keeps the fewest terms for which the dropped ones move no tail at a k
in its range by more than 2e-15 of the tail plus 1e-22, on a grid of means
out to 20 standard deviations.  ``kernels.py`` embeds the block verbatim
between its BEGIN/END markers; tests/test_kernels.py regenerates it and
compares, and checks the tails against 50-digit oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

#: (smallest k, terms kept of each c_j) for each tier, widest k range last.
TIERS = (
    (500, (11, 9, 6, 4, 2)),
    (50, (19, 17, 15, 12, 10, 9, 7)),
)


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def stirling_g(count: int) -> list[Fraction]:
    """g_0 .. g_{count-1}: exp of log Gamma*(z) = sum_j B_2j / (2j (2j - 1) z**(2j-1))."""
    b = bernoulli(count + 1)
    log_series = [Fraction(0)] * count
    for i in range(1, count, 2):
        log_series[i] = b[i + 1] / ((i + 1) * i)
    g = [Fraction(1)]
    for n in range(1, count):  # n g_n = sum_i i a_i g_{n-i}, from g' = a' g
        g.append(sum(i * log_series[i] * g[n - i] for i in range(1, n + 1)) / n)
    return g


def lambda_series(count: int) -> list[Fraction]:
    """a_0 .. a_{count-1} of lambda - 1 = sum_n a_n eta**n."""
    a = [Fraction(0), Fraction(1)]
    for p in range(2, count):
        # eta**p in mu mu' = eta (1 + mu): (p + 1) a_p + sum_{n=2}^{p-1} n a_n a_{p+1-n} = a_{p-1}
        a.append((a[p - 1] - sum(n * a[n] * a[p + 1 - n] for n in range(2, p))) / (p + 1))
    return a


def temme_d(rows: int, cols: int) -> list[list[Fraction]]:
    """d[j][n] for j < rows and n < cols."""
    size = cols + 2 * rows  # each step of the recursion uses two more terms
    a = lambda_series(size + 2)
    # s_n of eta / mu = sum_n s_n eta**n, so 1 / mu = sum_n s_n eta**(n-1)
    s = [Fraction(1)]
    for n in range(1, size + 1):
        s.append(-sum(a[i + 1] * s[n - i] for i in range(1, n + 1)))
    g = stirling_g(rows)
    d = [s[1:size]]
    for j in range(1, rows):
        prev, sign_g = d[-1], (-1) ** j * g[j]
        if prev[1] + sign_g != 0:  # the eta**-1 terms of c_{j-1}'/eta and g_j/mu
            raise ArithmeticError(f"c_{j} has a pole")
        d.append([(n + 2) * prev[n + 2] + sign_g * s[n + 1] for n in range(len(prev) - 2)])
    return [row[:cols] for row in d]


def horner(coeffs: list[Fraction], indent: str) -> str:
    """c0 + eta * (c1 + eta * (...)), one coefficient a line."""
    lines = [f"{indent}{float(coeffs[0])!r}"]
    lines += [f"{indent}+ eta * ({float(c)!r}" for c in coeffs[1:]]
    return "\n".join(lines) + ")" * (len(coeffs) - 1)


def render() -> str:
    d = temme_d(max(len(r) for _, r in TIERS), max(max(r) for _, r in TIERS))
    out = [
        "# BEGIN generated by scripts/make_temme_coefficients.py",
        f"_TEMME_MIN_K = {TIERS[-1][0]}",
        "",
        "",
        "def _temme_sum(eta: float, k: int) -> float:",
        '    """sum_j c_j(eta) k**-j, with c_j(eta) = sum_n d[j][n] eta**n truncated by k."""',
        "    x = 1.0 / k",
    ]
    for i, (start, rows) in enumerate(TIERS):
        body = "    " if i == len(TIERS) - 1 else "        "
        if i < len(TIERS) - 1:
            out.append(f"    if k >= {start}:")
        for j, n in enumerate(rows):
            out.append(f"{body}c{j} = (")
            out.append(horner(d[j][:n], body + "    "))
            out.append(f"{body})")
        nested = f"c{len(rows) - 2} + x * c{len(rows) - 1}"
        for j in range(len(rows) - 3, -1, -1):
            nested = f"c{j} + x * ({nested})"
        out.append(f"{body}return {nested}")
    out.append("# END generated")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    print(render(), end="")

"""Exact log-space probability primitives shared by all solvers.

Poisson tails P{Pois(m) >= k} are regularized incomplete gamma functions
P(k, m), evaluated on the standard library by ``poisson_tail``: pmf sums below
k = 50 and Temme's uniform asymptotic expansion from there on, at every mean.
Searches start from closed-form normal guesses on ``statistics.NormalDist``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import copysign, erfc, exp, log1p, sqrt
from typing import Callable

from .errors import DomainError

#: Absolute tolerance documented for tail probabilities.
TAIL_ABS_TOL = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def check_float_range(**values: int | None) -> None:
    """``DomainError`` naming the first integer past the float range; ``None`` passes."""
    for name, value in values.items():
        if value is not None and value > sys.float_info.max:
            raise DomainError(f"{name} is too large to convert to a float (above 1.8e308)")


def poisson_tail(mean: float, k: int) -> float:
    """P{X >= k} for X ~ Poisson(mean), with mean finite and >= 0.

    This is the regularized lower incomplete gamma function P(k, mean).
    Below k = ``_TEMME_MIN_K`` it is a sum of pmf terms (``_pmf_tail``):
    outward from k when mean < k, else one minus the k terms below k.  From
    there on it is Temme's expansion (DLMF 8.12) in s = (mean - k) / k and
    eta = sign(s) sqrt(2 (s - log(1 + s))),

        erfc(-eta sqrt(k/2)) / 2 - exp(-k eta**2 / 2) / sqrt(2 pi k) * sum_j c_j(eta) k**-j,

    at every mean, with the c_j truncated by k (``_temme_sum``); nothing
    there loops.  Against 50-digit oracles the error stays within
    ``TAIL_ABS_TOL``, and within 1e-9 of the tail wherever it is at least
    1e-12 (tests/test_kernels.py).
    """
    if k < _TEMME_MIN_K:
        return _pmf_tail(mean, k)
    if k > 2**53:  # float(k) may be k - 1 or k + 1 here: subtract exactly
        from fractions import Fraction

        s = float(Fraction(mean) - k) / k
    else:
        s = (mean - k) / k
    if -0.3 < s < 0.3:
        # eta**2 / 2 = s - log(1 + s) = s t - 2 (atanh(t) - t) with
        # t = s / (2 + s): the series of atanh(t) - t keeps the digits that
        # s - log1p(s) cancels near s = 0
        t = s / (2.0 + s)
        t2 = t * t
        half_eta_sq = s * t - 2.0 * t * t2 * (
            1 / 3 + t2 * (1 / 5 + t2 * (1 / 7 + t2 * (1 / 9 + t2 * (1 / 11 + t2 * (
                1 / 13 + t2 * (1 / 15 + t2 * (1 / 17 + t2 * (1 / 19 + t2 * (1 / 21 + t2 / 23)))))))))
        )
    elif s > -1.0:
        half_eta_sq = s - log1p(s)
    else:  # mean < k * 2**-53: the tail is below exp(-35 k)
        return 0.0
    u = k * half_eta_sq
    if u > 750.0:  # exp(-u) underflows: the tail is 0 or 1 in double precision
        return 1.0 if s > 0.0 else 0.0
    eta = copysign(sqrt(2.0 * half_eta_sq), s)
    return 0.5 * erfc(-copysign(sqrt(u), s)) - exp(-u) * _INV_SQRT_2PI / sqrt(k) * _temme_sum(eta, k)


def _pmf_tail(mean: float, k: int) -> float:
    """``poisson_tail`` below ``_TEMME_MIN_K``: at most ~100 pmf terms."""
    if k <= 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    if mean < k:  # pmf terms from k upward, each mean / i of the last
        term = total = exp(-mean) * mean**k / _FACTORIALS[k]
        i = k
        while term > 1e-17 * total:
            i += 1
            term *= mean / i
            total += term
        return total
    term = total = exp(-mean)  # P{X < k}, summed from 0
    for i in range(1, k):
        term *= mean / i
        total += term
    return 1.0 - total


@lru_cache(maxsize=64)
def upper_normal_point(p: float) -> float:
    """z with P{Z > z} = p for a standard normal Z; the searches' seeds ask
    for a few budgets many times, and ``statistics`` loads on the first call."""
    from statistics import NormalDist

    return -NormalDist().inv_cdf(p)


# ``PoissonModel`` and ``poisson_sf`` have no caller in the library; they stay
# only because perfbench/run.py and perfbench/tracer.py import them by name
# (ROADMAP item 3).
@dataclass(frozen=True)
class PoissonModel:
    """Poisson count model with a known mean; mean = 0 is a point mass at zero."""

    mean: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or self.mean < 0:
            raise DomainError(f"Poisson mean must be finite and >= 0, got {self.mean}")


def poisson_sf(model: PoissonModel, k: int) -> float:
    """P{X >= k} for X ~ Poisson(model.mean): ``poisson_tail(model.mean, k)``."""
    return poisson_tail(model.mean, k)


def poisson_upper_quantile(mean: float, alpha: float) -> int:
    """Smallest integer k with ``poisson_tail(mean, k) <= alpha``.

    Satisfies ``poisson_tail(mean, k - 1) > alpha`` whenever k > 0.
    The search starts at the continuity-corrected Cornish-Fisher guess
    mean + z sqrt(mean) + (z**2 + 2) / 6, with z the normal upper alpha point.
    """
    if not math.isfinite(mean) or mean < 0:
        raise DomainError(f"Poisson mean must be finite and >= 0, got {mean}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    z = upper_normal_point(alpha)
    guess = math.ceil(mean + z * math.sqrt(mean) + (z * z + 2.0) / 6.0)
    return smallest_int_where(lambda k: poisson_tail(mean, k) <= alpha, guess=guess)


#: Largest population the solvers pass to ``log_no_replacement_miss_prob``:
#: ``math.lgamma`` overflows past about 2.56e305, where x ln x leaves the
#: float range.
_LGAMMA_LIMIT = 2.5e305


def log_no_replacement_miss_prob(population: int, flawed: int, draws: int) -> float:
    """Natural log of the probability that a simple random sample of ``draws``
    units misses every flawed one (``-inf`` when it is zero).

    The probability is prod_{i=0}^{draws-1} (population - flawed - i) / (population - i),
    i.e. C(population - flawed, draws) / C(population, draws).  Past
    ``_LGAMMA_LIMIT`` the population overflows ``math.lgamma``.
    """
    if population < 1:
        raise DomainError(f"population must be >= 1, got {population}")
    if flawed < 0 or flawed > population:
        raise DomainError(f"flawed must be in [0, population], got {flawed}")
    if draws < 0:
        raise DomainError(f"draws must be >= 0, got {draws}")
    if flawed == 0 or draws == 0:
        return 0.0
    if draws > population - flawed:
        return -math.inf  # the sample cannot avoid every flawed unit
    good = population - flawed
    return (
        math.lgamma(good + 1)
        - math.lgamma(good - draws + 1)
        - math.lgamma(population + 1)
        + math.lgamma(population - draws + 1)
    )


def smallest_int_where(
    pred: Callable[[int], bool], guess: int = 1, hi_limit: int | None = None
) -> int:
    """Smallest integer n >= 1 with ``pred(n)`` true, for predicates that are
    monotone (false below the answer, true at and above it).

    Gallops from ``guess`` by doubling steps, down while ``pred`` holds and up
    while it fails, then bisects the bracket: an exact guess costs 2
    evaluations and a guess d off at most 2 * ceil(log2(d + 1)) + 2.
    """
    limit = math.inf if hi_limit is None else hi_limit
    hi = max(1, min(guess, limit))
    lo, step = hi, 1
    if pred(hi):
        # the answer is >= 1, so pred(0) counts as false
        while (lo := max(0, hi - step)) > 0 and pred(lo):
            hi, step = lo, step * 2
    else:
        while lo < limit and not pred(hi := min(lo + step, limit)):
            lo, step = hi, step * 2
        if lo >= limit:
            raise DomainError(f"no satisfying integer found below {hi_limit}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# BEGIN generated by scripts/make_temme_coefficients.py
_TEMME_MIN_K = 50


def _temme_sum(eta: float, k: int) -> float:
    """sum_j c_j(eta) k**-j, with c_j(eta) = sum_n d[j][n] eta**n truncated by k."""
    x = 1.0 / k
    if k >= 500:
        c0 = (
            -0.3333333333333333
            + eta * (0.08333333333333333
            + eta * (-0.014814814814814815
            + eta * (0.0011574074074074073
            + eta * (0.0003527336860670194
            + eta * (-0.0001787551440329218
            + eta * (3.919263178522438e-05
            + eta * (-2.185448510679992e-06
            + eta * (-1.85406221071516e-06
            + eta * (8.296711340953087e-07
            + eta * (-1.7665952736826078e-07))))))))))
        )
        c1 = (
            -0.001851851851851852
            + eta * (-0.003472222222222222
            + eta * (0.0026455026455026454
            + eta * (-0.0009902263374485596
            + eta * (0.00020576131687242798
            + eta * (-4.018775720164609e-07
            + eta * (-1.8098550334489977e-05
            + eta * (7.64916091608111e-06
            + eta * (-1.6120900894563446e-06))))))))
        )
        c2 = (
            0.004133597883597883
            + eta * (-0.0026813271604938273
            + eta * (0.0007716049382716049
            + eta * (2.0093878600823047e-06
            + eta * (-0.0001073665322636516
            + eta * (5.2923448829120125e-05)))))
        )
        c3 = (
            0.0006494341563786008
            + eta * (0.00022947209362139917
            + eta * (-0.0004691894943952557
            + eta * (0.00026772063206283885)))
        )
        c4 = (
            -0.0008618882909167117
            + eta * (0.0007840392217200666)
        )
        return c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
    c0 = (
        -0.3333333333333333
        + eta * (0.08333333333333333
        + eta * (-0.014814814814814815
        + eta * (0.0011574074074074073
        + eta * (0.0003527336860670194
        + eta * (-0.0001787551440329218
        + eta * (3.919263178522438e-05
        + eta * (-2.185448510679992e-06
        + eta * (-1.85406221071516e-06
        + eta * (8.296711340953087e-07
        + eta * (-1.7665952736826078e-07
        + eta * (6.707853543401498e-09
        + eta * (1.0261809784240309e-08
        + eta * (-4.382036018453353e-09
        + eta * (9.14769958223679e-10
        + eta * (-2.5514193994946248e-11
        + eta * (-5.830772132550426e-11
        + eta * (2.4361948020667415e-11
        + eta * (-5.0276692801141755e-12))))))))))))))))))
    )
    c1 = (
        -0.001851851851851852
        + eta * (-0.003472222222222222
        + eta * (0.0026455026455026454
        + eta * (-0.0009902263374485596
        + eta * (0.00020576131687242798
        + eta * (-4.018775720164609e-07
        + eta * (-1.8098550334489977e-05
        + eta * (7.64916091608111e-06
        + eta * (-1.6120900894563446e-06
        + eta * (4.647127802807434e-09
        + eta * (1.378633446915721e-07
        + eta * (-5.752545603517705e-08
        + eta * (1.1951628599778148e-08
        + eta * (-1.7543241719747647e-11
        + eta * (-1.0091543710600413e-09
        + eta * (4.162792991842583e-10
        + eta * (-8.56390702649298e-11))))))))))))))))
    )
    c2 = (
        0.004133597883597883
        + eta * (-0.0026813271604938273
        + eta * (0.0007716049382716049
        + eta * (2.0093878600823047e-06
        + eta * (-0.0001073665322636516
        + eta * (5.2923448829120125e-05
        + eta * (-1.2760635188618728e-05
        + eta * (3.423578734096138e-08
        + eta * (1.3721957309062934e-06
        + eta * (-6.298992138380055e-07
        + eta * (1.4280614206064242e-07
        + eta * (-2.0477098421990866e-10
        + eta * (-1.409252991086752e-08
        + eta * (6.228974084922022e-09
        + eta * (-1.3670488396617114e-09))))))))))))))
    )
    c3 = (
        0.0006494341563786008
        + eta * (0.00022947209362139917
        + eta * (-0.0004691894943952557
        + eta * (0.00026772063206283885
        + eta * (-7.561801671883977e-05
        + eta * (-2.396505113867297e-07
        + eta * (1.1082654115347302e-05
        + eta * (-5.6749528269915965e-06
        + eta * (1.4230900732435883e-06
        + eta * (-2.7861080291528143e-11
        + eta * (-1.6958404091930278e-07
        + eta * (8.099464905388083e-08)))))))))))
    )
    c4 = (
        -0.0008618882909167117
        + eta * (0.0007840392217200666
        + eta * (-0.0002990724803031902
        + eta * (-1.4638452578843418e-06
        + eta * (6.641498215465122e-05
        + eta * (-3.968365047179435e-05
        + eta * (1.1375726970678419e-05
        + eta * (2.507497226237533e-10
        + eta * (-1.6954149536558305e-06
        + eta * (8.907507532205309e-07)))))))))
    )
    c5 = (
        -0.00033679855336635813
        + eta * (-6.972813758365857e-05
        + eta * (0.0002772753244959392
        + eta * (-0.00019932570516188847
        + eta * (6.797780477937208e-05
        + eta * (1.419062920643967e-07
        + eta * (-1.3594048189768693e-05
        + eta * (8.018470256334202e-06
        + eta * (-2.291481176508095e-06))))))))
    )
    c6 = (
        0.0005313079364639922
        + eta * (-0.0005921664373536939
        + eta * (0.0002708782096718045
        + eta * (7.902353232660328e-07
        + eta * (-8.153969367561969e-05
        + eta * (5.61168275310625e-05
        + eta * (-1.8329116582843375e-05))))))
    )
    return c0 + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * c6)))))
# END generated

#: k! for the pmf sums below ``_TEMME_MIN_K``
_FACTORIALS = tuple(float(math.factorial(i)) for i in range(_TEMME_MIN_K))

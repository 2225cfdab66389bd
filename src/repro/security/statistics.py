"""Statistical tests used by the obliviousness analyzers.

Only the pieces the analyzers need: Pearson's chi-square statistic against
a uniform (or given) expectation, and its p-value via the regularized
upper incomplete gamma function Q(k/2, x/2).  The incomplete gamma is
implemented with the standard series / continued-fraction split (Numerical
Recipes style) so the library itself has no SciPy dependency; the test
suite cross-checks it against ``scipy.stats`` where SciPy is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_MAX_ITERATIONS = 500
_EPSILON = 3.0e-12


def _gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series (x < a+1)."""
    if x <= 0:
        return 0.0
    term = 1.0 / a
    total = term
    denominator = a
    for _ in range(_MAX_ITERATIONS):
        denominator += 1.0
        term *= x / denominator
        total += term
        if abs(term) < abs(total) * _EPSILON:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    return total * math.exp(log_prefactor)


def _gamma_continued_fraction(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a+1)."""
    tiny = 1.0e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    return math.exp(log_prefactor) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), the upper regularized incomplete gamma."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_continued_fraction(a, x)


def chi_square_statistic(
    observed: Sequence[float], expected: Sequence[float] | None = None
) -> float:
    """Pearson's chi-square; uniform expectation when ``expected`` is None."""
    if not observed:
        raise ValueError("observed counts must be non-empty")
    total = float(sum(observed))
    if total <= 0:
        raise ValueError("observed counts must sum to a positive value")
    if expected is None:
        expected = [total / len(observed)] * len(observed)
    if len(expected) != len(observed):
        raise ValueError("observed and expected lengths differ")
    statistic = 0.0
    for obs, exp in zip(observed, expected):
        if exp <= 0:
            raise ValueError("expected counts must be positive")
        diff = obs - exp
        statistic += diff * diff / exp
    return statistic


def chi_square_p_value(statistic: float, dof: int) -> float:
    """P(X >= statistic) for a chi-square with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if statistic < 0:
        raise ValueError("the statistic is non-negative")
    return regularized_gamma_q(dof / 2.0, statistic / 2.0)


@dataclass(frozen=True)
class UniformTestResult:
    statistic: float
    dof: int
    p_value: float
    bins: int
    samples: int

    @property
    def uniform_at(self) -> float:
        """Largest alpha at which uniformity is NOT rejected."""
        return self.p_value


def chi_square_uniform_test(counts: Sequence[int]) -> UniformTestResult:
    """Test a histogram against the uniform distribution."""
    statistic = chi_square_statistic(counts)
    dof = len(counts) - 1
    return UniformTestResult(
        statistic=statistic,
        dof=dof,
        p_value=chi_square_p_value(statistic, dof) if dof >= 1 else 1.0,
        bins=len(counts),
        samples=int(sum(counts)),
    )


def histogram(values: Sequence[int], bins: int) -> list[int]:
    """Counts of values assumed to lie in [0, bins)."""
    counts = [0] * bins
    for value in values:
        if not 0 <= value < bins:
            raise ValueError(f"value {value} outside [0, {bins})")
        counts[value] += 1
    return counts


def binned_histogram(values: Sequence[int], domain: int, bins: int) -> list[int]:
    """Coarse histogram: domain [0, domain) folded into ``bins`` buckets."""
    if bins <= 0 or domain <= 0:
        raise ValueError("domain and bins must be positive")
    counts = [0] * bins
    for value in values:
        if not 0 <= value < domain:
            raise ValueError(f"value {value} outside [0, {domain})")
        counts[min(bins - 1, value * bins // domain)] += 1
    return counts


def fold_histogram(counts: Sequence[int], bins: int) -> list[int]:
    """Per-value counts over [0, len(counts)) folded into ``bins`` buckets
    (what :func:`binned_histogram` gives for the values themselves)."""
    domain = len(counts)
    if bins <= 0 or domain <= 0:
        raise ValueError("domain and bins must be positive")
    folded = [0] * bins
    for value, count in enumerate(counts):
        folded[min(bins - 1, value * bins // domain)] += count
    return folded

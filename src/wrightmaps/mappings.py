"""Harmonic mappings as finite coefficient data, and the coefficient convolution.

A mapping f = h + conj(g) is stored by the coefficients of its analytic part
h(z) = z + sum_{n>=2} A_n z^n and co-analytic part g(z) = sum_{n>=1} B_n z^n
with |B_1| < 1.  The convolution operator multiplies coefficientwise with the
normalized-series coefficients of two parameter quadruples and folds the
co-analytic weight sigma in, producing the image H(z) + conj(sigma*G(z)).
Absent tail coefficients are exactly zero, so all criterion sums downstream
are exact finite sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer
from .wright import WrightParams, norm_coeffs


class CoefficientSeq:
    """Coefficients (A_2..A_N, B_1..B_M) of a mapping f = h + conj(g)."""

    def __init__(self, a=(), b=()):
        self.a = np.atleast_1d(np.asarray(a, dtype=complex))
        self.b = np.atleast_1d(np.asarray(b, dtype=complex))
        if self.a.ndim != 1 or self.b.ndim != 1:
            raise DomainError("coefficient sequences must be one-dimensional")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise DomainError("coefficients must be finite")
        if self.b.size and abs(self.b[0]) >= 1:
            raise DomainError(f"|B_1| must be < 1, got {abs(self.b[0])}")

    def __repr__(self):
        return f"CoefficientSeq(a={self.a!r}, b={self.b!r})"


@dataclass(frozen=True)
class ConvolutionSpec:
    """Kernel parameters for the analytic / co-analytic sides plus the weight sigma."""

    p1: WrightParams
    p2: WrightParams
    sigma: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_sigma(self.sigma))


def check_sigma(sigma) -> complex:
    """The co-analytic weight as a complex number; DomainError unless |sigma| < 1."""
    sigma = complex(sigma)
    if not abs(sigma) < 1:
        raise DomainError(f"|sigma| must be < 1, got {abs(sigma)}")
    return sigma


@dataclass(frozen=True)
class EvalPoint:
    """Polar point r*e^{i*theta} of the open unit disk, 0 <= r < 1."""

    r: float
    theta: float

    def __post_init__(self):
        if not (0 <= self.r < 1) or not math.isfinite(self.theta):
            raise DomainError(f"need 0 <= r < 1 and finite theta, got r={self.r}, theta={self.theta}")

    @property
    def z(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


class ImageCoefficients:
    """Image of the convolution: H(z) + conj(sigma*G(z)) in power-indexed form.

    `h[k]` is the z^k coefficient of H (h[0] = 0, h[1] = 1); `g[k]` is the z^k
    coefficient of sigma*G (g[0] = 0).  `ha` / `gb` view the tails starting at
    n = 2 and n = 1 respectively.
    """

    def __init__(self, ha=(), gb=()):
        ha = np.atleast_1d(np.asarray(ha, dtype=complex))
        gb = np.atleast_1d(np.asarray(gb, dtype=complex))
        self.h = np.concatenate([np.array([0.0, 1.0], dtype=complex), ha])
        self.g = np.concatenate([np.array([0.0], dtype=complex), gb])

    @property
    def ha(self) -> np.ndarray:
        return self.h[2:]

    @property
    def gb(self) -> np.ndarray:
        return self.g[1:]

    def __repr__(self):
        return f"ImageCoefficients(ha={self.ha!r}, gb={self.gb!r})"


def identity_image() -> ImageCoefficients:
    """The image with H(z) = z and no co-analytic part."""
    return ImageCoefficients()


def convolve(f: CoefficientSeq, spec: ConvolutionSpec) -> ImageCoefficients:
    """Coefficientwise products: ha[n] = c_n(p1) A_n, gb[n] = sigma c_n(p2) B_n."""
    return next(convolve_each([f], spec))


def convolve_each(fs, spec: ConvolutionSpec):
    """convolve(f, spec) for each f of the iterable fs in turn, lazily.

    Each kernel's coefficients are computed once per length and kept until the
    generator is closed.
    """
    c1 = functools.cache(lambda n: norm_coeffs(spec.p1, n))  # [c_1, ..., c_n] of p1, by n
    c2 = functools.cache(lambda n: norm_coeffs(spec.p2, n))
    for f in fs:
        yield ImageCoefficients(c1(1 + f.a.size)[1:] * f.a, spec.sigma * c2(f.b.size) * f.b)


def derivative(c, order: int = 1):
    """Power-indexed coefficients of the order-th derivative of sum_k c_k z^k."""
    for _ in range(order):
        c = c[1:] * np.arange(1, c.size)
    return c


def power_sum(c, z) -> complex:
    """sum_k c_k z^k at the point z, by Horner's rule."""
    return complex(np.polyval(c[::-1], z))


def harmonic_sum(a, b, z) -> complex:
    """sum_k a_k z^k + conj(sum_k b_k z^k) at the point z."""
    return power_sum(a, z) + power_sum(b, z).conjugate()


def eval_map(img: ImageCoefficients, pt: EvalPoint) -> complex:
    """Value H(z) + conj(sigma*G(z)) at z = r*e^{i*theta}."""
    return harmonic_sum(img.h, img.g, pt.z)


def eval_derivs(img: ImageCoefficients, pt: EvalPoint):
    """(H'(z), H''(z), (sigma G)'(z), (sigma G)''(z)) by term-wise differentiation."""
    return tuple(power_sum(derivative(c, order), pt.z) for c in (img.h, img.g) for order in (1, 2))


def random_coefficients(rng: np.random.Generator, n_max: int = 50) -> CoefficientSeq:
    """Coefficients drawn uniformly from the closed unit disk, A_2..A_{n_max}, B_1..B_{n_max}."""
    n_max = check_integer(n_max, 2, "n_max")

    def disk(k):
        return np.sqrt(rng.random(k)) * np.exp(2j * np.pi * rng.random(k))

    return CoefficientSeq(disk(n_max - 1), disk(n_max))

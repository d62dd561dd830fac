"""Polar-grid geometric verification, independent of the coefficient criteria.

Three pointwise quantities are sampled on circles |z| = r < 1, each formed
from sums sum a_k z^k + conj(sum b_k z^k) of weighted coefficients of
H and S = sigma*G:

* ``dtheta_arg_f``       - d/dtheta arg f(r e^{i theta}),
  Re[(z H' - conj(z S')) / f] with z H' = sum k h_k z^k; starlikeness of
  order alpha means this stays above alpha.
* ``dtheta_arg_ftheta``  - d/dtheta arg of the tangent f_theta = i(z H' - conj(z S')),
  Re[(z H' + z^2 H'' + conj(z S' + z^2 S'')) / (z H' - conj(z S'))] with
  z H' + z^2 H'' = sum k^2 h_k z^k; convexity of order alpha means this stays
  above alpha.
* ``jacobian_margin``    - |H'(z)| - |S'(z)|; positive means sense-preserving.

Sampling probes the defining inequalities directly, so it can only ever
*refute* a criterion's sufficiency claim, never certify necessity: a failed
coefficient criterion alongside a clean sweep is a legitimate outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError, check_integer
from .mappings import EvalPoint, ImageCoefficients, derivative, harmonic_sum

QUANTITIES = ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin")

# Below this magnitude a denominator counts as a zero: the point is singular.
SINGULAR_EPS = 1e-13


@dataclass(frozen=True)
class SampleGrid:
    """Radii in (0, 1) times equally spaced angles theta_k = 2 pi k / theta_count."""

    radii: tuple = (0.5, 0.9, 0.99)
    theta_count: int = 4096

    def __post_init__(self):
        radii = tuple(sorted(float(r) for r in self.radii))
        if not radii or not all(0 < r < 1 for r in radii):
            raise DomainError(f"need one or more radii, each in (0, 1), got {radii}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "theta_count", check_integer(self.theta_count, 8, "theta_count"))

    def thetas(self):
        """The angles theta_j = 2 pi j / theta_count."""
        return 2 * np.pi * np.arange(self.theta_count) / self.theta_count

    def circle_values(self, a, b):
        """sum_k a_k z^k + conj(sum_k b_k z^k) at z = r e^{i theta_j}, one row per radius.

        On equally spaced angles this is an inverse DFT: a_k r^k enters bin
        k mod theta_count and conj(b_k) r^k bin -k mod theta_count (so a series
        longer than theta_count folds onto the bins), and one inverse FFT over
        the angle axis evaluates every radius.  The rounding error is of order
        u log(theta_count) sum_k (|a_k| + |b_k|) r^k, with u the unit roundoff.
        """
        # A convolved image ends in exact zeros where c_n underflows; they add nothing.
        a = np.trim_zeros(a, "b") if len(a) and a[-1] == 0 else a
        b = np.trim_zeros(b, "b") if len(b) and b[-1] == 0 else b
        n, r = self.theta_count, np.array(self.radii)[:, None]
        size = n * max(1, -(-max(len(a), len(b)) // n))  # a multiple of n that holds both
        k = np.arange(max(len(a), len(b)))
        spectrum = np.zeros((r.size, size), dtype=complex)
        spectrum[:, : len(a)] = a * r ** k[: len(a)]
        spectrum[:, -k[: len(b)] % size] += np.conj(b) * r ** k[: len(b)]
        folded = spectrum.reshape(r.size, -1, n).sum(axis=1)
        return np.fft.ifft(folded, axis=1, norm="forward", out=folded)


@dataclass(frozen=True)
class Violation:
    """One sub-threshold site; kind 'singular' marks a vanishing denominator,
    'nonfinite' a value that is NaN or infinite."""

    point: EvalPoint
    value: float
    kind: str = "value"


@dataclass
class OracleReport:
    """Sweep outcome: global minimum, its location, and all sub-threshold sites."""

    quantity: str
    min_value: float
    argmin: EvalPoint | None
    violations: list = field(default_factory=list)
    threshold: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.violations


def _ratio(num, den):
    """(num / den, singular_mask), with den treated as zero below SINGULAR_EPS."""
    singular = np.abs(den) < SINGULAR_EPS
    return num / np.where(singular, 1.0, den), singular


def _quantity_values(img: ImageCoefficients, quantity, values):
    """(quantity, singular_mask) from values(a, b) = sum a_k z^k + conj(sum b_k z^k) at the sample points."""
    h, g = img.h, img.g
    kh, kg = np.arange(h.size) * h, np.arange(g.size) * g  # z H', z S'
    if quantity == "jacobian_margin":
        margin = np.abs(values(derivative(h), ())) - np.abs(values(derivative(g), ()))
        return margin, np.zeros(np.shape(margin), dtype=bool)
    if quantity == "dtheta_arg_f":
        ratio, singular = _ratio(values(kh, -kg), values(h, g))
        return np.real(ratio), singular
    if quantity == "dtheta_arg_ftheta":
        k2h, k2g = np.arange(h.size) * kh, np.arange(g.size) * kg  # z H' + z^2 H'', z S' + z^2 S''
        ratio, singular = _ratio(values(k2h, k2g), values(kh, -kg))
        return np.real(ratio), singular
    raise DomainError(f"unknown quantity {quantity!r}; known: {', '.join(QUANTITIES)}")


def _scalar(img, pt, quantity):
    value, singular = _quantity_values(img, quantity, lambda a, b: harmonic_sum(a, b, pt.z))
    if singular:
        raise SingularPointError(f"{quantity} undefined at r={pt.r}, theta={pt.theta}")
    return float(value)


def dtheta_arg_f(img: ImageCoefficients, pt: EvalPoint) -> float:
    """Rate of advance of arg f along the circle of radius pt.r, at pt.theta."""
    return _scalar(img, pt, "dtheta_arg_f")


def dtheta_arg_ftheta(img: ImageCoefficients, pt: EvalPoint) -> float:
    """Rate of advance of the tangent direction along the circle at pt."""
    return _scalar(img, pt, "dtheta_arg_ftheta")


def jacobian_margin(img: ImageCoefficients, pt: EvalPoint) -> float:
    """|H'(z)| - |(sigma G)'(z)| at pt; positive means locally sense-preserving."""
    return _scalar(img, pt, "jacobian_margin")


def sweep(img: ImageCoefficients, grid: SampleGrid, quantity: str, threshold: float) -> OracleReport:
    """Evaluate `quantity` on the whole grid; record minimum and sub-threshold sites.

    Singular points and non-finite values (NaN, or an overflow) are recorded as
    violations of kind 'singular' or 'nonfinite' with value -inf, never raised:
    a zero of f off the origin is itself a failure, and a value that is not a
    number cannot show that the inequality holds.  Violations are ordered
    radius-major, then by angle.  A NaN threshold is a DomainError.
    """
    threshold = float(threshold)
    if np.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    thetas = grid.thetas()
    vals, singular = _quantity_values(img, quantity, grid.circle_values)
    finite = np.isfinite(vals)
    vals = np.where(singular | ~finite, -np.inf, vals)
    violations = [
        Violation(
            EvalPoint(grid.radii[i], float(thetas[j])),
            float(vals[i, j]),
            "singular" if singular[i, j] else "value" if finite[i, j] else "nonfinite",
        )
        for i, j in np.argwhere(vals < threshold)
    ]
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    argmin = EvalPoint(grid.radii[i], float(thetas[j]))
    return OracleReport(quantity, float(vals[i, j]), argmin, violations, threshold)

"""Polar-grid geometric verification, independent of the coefficient criteria.

Three pointwise quantities are sampled on circles |z| = r < 1:

* ``dtheta_arg_f``       - d/dtheta arg f(r e^{i theta}), assembled as
  Re[(z H'(z) - conj(z S'(z))) / f(z)] with S = sigma*G; starlikeness of
  order alpha means this stays above alpha.
* ``dtheta_arg_ftheta``  - d/dtheta arg of the tangent f_theta, assembled as
  Im(f_thth / f_th) with f_th = i(z H' - conj(z S')) and
  f_thth = -(z H' + z^2 H'' + conj(z S' + z^2 S'')); convexity of order alpha
  means this stays above alpha.
* ``jacobian_margin``    - |H'(z)| - |S'(z)|; positive means sense-preserving.

Sampling probes the defining inequalities directly, so it can only ever
*refute* a criterion's sufficiency claim, never certify necessity: a failed
coefficient criterion alongside a clean sweep is a legitimate outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError
from .mappings import EvalPoint, ImageCoefficients, eval_parts

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
        if self.theta_count < 8 or int(self.theta_count) != self.theta_count:
            raise DomainError(f"theta_count must be an integer >= 8, got {self.theta_count}")
        object.__setattr__(self, "theta_count", int(self.theta_count))

    def points(self):
        """(thetas, z): the angles, and the points r e^{i theta} with one row per radius."""
        thetas = 2 * np.pi * np.arange(self.theta_count) / self.theta_count
        return thetas, np.array(self.radii)[:, None] * np.exp(1j * thetas)


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


def _quantity_values(img: ImageCoefficients, z, quantity):
    """Vectorized evaluation; returns (values, singular_mask)."""
    hp, sp = eval_parts(img, z, 1)
    if quantity == "jacobian_margin":
        return np.abs(hp) - np.abs(sp), np.zeros(np.shape(z), dtype=bool)
    if quantity == "dtheta_arg_f":
        h, s = eval_parts(img, z)
        ratio, singular = _ratio(z * hp - np.conj(z * sp), h + np.conj(s))
        return np.real(ratio), singular
    if quantity == "dtheta_arg_ftheta":
        hpp, spp = eval_parts(img, z, 2)
        f_th = 1j * (z * hp - np.conj(z * sp))
        f_thth = -(z * hp + z * z * hpp + np.conj(z * sp + z * z * spp))
        ratio, singular = _ratio(f_thth, f_th)
        return np.imag(ratio), singular
    raise DomainError(f"unknown quantity {quantity!r}; known: {', '.join(QUANTITIES)}")


def _scalar(img, pt, quantity):
    vals, singular = _quantity_values(img, np.array([pt.z]), quantity)
    if singular[0]:
        raise SingularPointError(f"{quantity} undefined at r={pt.r}, theta={pt.theta}")
    return float(vals[0])


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
    radius-major, then by angle.
    """
    threshold = float(threshold)
    thetas, z = grid.points()
    vals, singular = _quantity_values(img, z, quantity)
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

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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError, check_integer
from .mappings import EvalPoint, ImageCoefficients, derivative, harmonic_sum

QUANTITIES = ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin")

# At or below this magnitude, relative to its series' scale sum_k (|a_k| + |b_k|) r^k on
# the circle, a denominator counts as a zero: the point is singular.
SINGULAR_EPS = 1e-13

# Spectrum values a long series folds per step, past its first block (4 MiB of complex).
_FOLD_VALUES = 1 << 18


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

        a and b are two series, or two stacks of as many series along a leading
        axis; a stack gives one (radii, theta_count) block per series.  On equally
        spaced angles this is an inverse DFT: a_k r^k enters bin k mod theta_count
        and conj(b_k) r^k bin -k mod theta_count, and one inverse FFT over the
        angle axis evaluates every radius of every series.  A series longer than
        theta_count folds onto the bins block by block, as many blocks of
        theta_count terms per step as _FOLD_VALUES values hold (at least one), so
        no array it makes is larger than _FOLD_VALUES plus twice series x radii x
        theta_count values, whatever the series' length.  The rounding error is of order
        u log(theta_count) sum_k (|a_k| + |b_k|) r^k, with u the unit roundoff.
        """
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        # A convolved image ends in exact zeros where c_n underflows; they add nothing.
        len_a, len_b = _support(a), _support(b)
        n, r = self.theta_count, np.array(self.radii)[:, None]
        size = n * max(1, -(-max(len_a, len_b) // n))  # a multiple of n that holds both
        zero_from = _zero_from(self.radii[-1])

        def fill(seg, start):
            """Add the unfolded spectrum's entries start, start + 1, ... to the zeros of seg."""
            stop = start + seg.shape[-1]
            k = np.arange(start, min(stop, len_a))
            seg[..., : k.size] = a[..., None, start : start + k.size] * _powers(r, k, zero_from)
            # conj(b_k) r^k enters entry 0 for k = 0 and entry size - k for k >= 1, so
            # the k >= 1 in range, lo <= k < hi, fill a slice of seg in descending order.
            lo, hi = max(1, size - stop + 1), min(len_b, size - start + 1)
            seg[..., size - start - hi + 1 : size - start - lo + 1][..., ::-1] += np.conj(
                b[..., None, lo:hi]
            ) * _powers(r, np.arange(lo, hi), zero_from)
            if start == 0 and len_b:  # times r^0 like every other term, for the bits of 0 * inf
                seg[..., :1] += np.conj(b[..., None, :1]) * r**0

        folded = np.zeros((*a.shape[:-1], r.size, n), dtype=complex)
        fill(folded, 0)
        # Later blocks, up to _FOLD_VALUES values of them at a time, go after the sum so
        # far as rows, which are added in order, as summing the unfolded spectrum would.
        step = n * max(1, _FOLD_VALUES // folded.size)
        for start in range(n, size, step):
            block = np.zeros((*folded.shape[:-1], n + min(step, size - start)), dtype=complex)
            block[..., :n] = folded
            fill(block[..., n:], start)
            folded = block.reshape(*folded.shape[:-1], -1, n).sum(axis=-2)
        return np.fft.ifft(folded, axis=-1, norm="forward", out=folded)


def _zero_from(r):
    """The least k from which pow rounds r^k to 0, for 0 <= r < 1.

    From k = 1080 / -log2(r) on, r^k is below 2^-1080, 64 times below the least
    subnormal, so pow rounds it to 0; it takes pow about 15 times longer to say so.
    """
    return math.ceil(1080 / -math.log2(r)) if r else 1


def _powers(r, k, zero_from):
    """r**k for ascending k, with 0.0 for every k >= zero_from, where pow is not called.

    If every k is at least zero_from, one row of zeros stands for every radius, so
    a product with it is formed once and broadcast.
    """
    live = np.searchsorted(k, zero_from)
    if live == k.size:
        return r**k
    if not live:
        return np.zeros((1, k.size))
    powers = np.zeros((r.size, k.size))
    powers[:, :live] = r ** k[:live]
    return powers


def _support(c):
    """1 + the last index k with some c[..., k] != 0, or 0 if every coefficient is 0."""
    nonzero = np.atleast_2d(c).any(axis=0).nonzero()[0]
    return int(nonzero[-1]) + 1 if nonzero.size else 0


@dataclass(frozen=True)
class Violation:
    """One sub-threshold site; kind 'singular' marks a vanishing denominator,
    'nonfinite' a value that is NaN or infinite."""

    point: EvalPoint
    value: float
    kind: str = "value"


@dataclass
class OracleReport:
    """Sweep outcome: global minimum, its location, and the sub-threshold sites
    (every one, unless the sweep was given a limit)."""

    quantity: str
    min_value: float
    argmin: EvalPoint | None
    violations: list = field(default_factory=list)
    threshold: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.violations


def _scale(a, b, radii):
    """sum_k (|a_k| + |b_k|) r^k at each radius, as a column: the size that bounds
    sum a_k z^k + conj(sum b_k z^k) on |z| = r, and that scales its rounding error."""
    c = np.zeros(max(a.size, b.size))
    c[: a.size] += np.abs(a)
    c[: b.size] += np.abs(b)
    r = np.array(radii)[:, None]
    c = c[: min(_support(c), _zero_from(r.max()))]
    step = max(1, _FOLD_VALUES // max(1, c.size))  # radii per block of at most _FOLD_VALUES powers
    return np.concatenate([r[i : i + step] ** np.arange(c.size) @ c for i in range(0, r.size, step)])[:, None]


def _ratio(values, a, b, radii):
    """(values[0] / values[1], singular_mask), the quotient written over values[0].

    values[1] holds sum a_k z^k + conj(sum b_k z^k) on the circles of radii; a value
    no larger than SINGULAR_EPS times _scale(a, b, radii) counts as a zero and is
    replaced by 1.
    """
    num, den = values
    size = np.abs(den)
    # _scale is at most sum_k (|a_k| + |b_k|), so it is needed only where twice that flags a point.
    singular = size <= 2 * SINGULAR_EPS * (np.abs(a).sum() + np.abs(b).sum())
    if singular.any():
        singular = size <= SINGULAR_EPS * _scale(a, b, radii)
    den[singular] = 1
    return np.divide(num, den, out=num), singular


def _quantity_values(img: ImageCoefficients, quantity, values, radii):
    """(quantity, singular_mask) from one call of values(a, b), which evaluates
    sum a_k z^k + conj(sum b_k z^k) at the sample points, one row per radius of
    radii, for each series of the stacks a and b."""
    h, g = img.h, img.g
    kh, kg = np.arange(h.size) * h, np.arange(g.size) * g  # z H', z S'
    if quantity == "jacobian_margin":
        derivs = np.zeros((2, max(h.size, g.size) - 1), dtype=complex)  # H', S'
        derivs[0, : h.size - 1], derivs[1, : g.size - 1] = derivative(h), derivative(g)
        hp, sp = np.abs(values(derivs, derivs[:, :0]))
        return hp - sp, np.zeros(np.shape(hp), dtype=bool)
    if quantity == "dtheta_arg_f":
        ratio, singular = _ratio(values(np.array([kh, h]), np.array([-kg, g])), h, g, radii)
        return np.real(ratio), singular
    if quantity == "dtheta_arg_ftheta":
        k2h, k2g = np.arange(h.size) * kh, np.arange(g.size) * kg  # z H' + z^2 H'', z S' + z^2 S''
        ratio, singular = _ratio(values(np.array([k2h, kh]), np.array([k2g, -kg])), kh, kg, radii)
        return np.real(ratio), singular
    raise DomainError(f"unknown quantity {quantity!r}; known: {', '.join(QUANTITIES)}")


def _scalar(img, pt, quantity):
    def at_point(a, b):  # a (series, 1, 1) array, which _ratio can write to
        return np.array([[[harmonic_sum(x, y, pt.z)]] for x, y in zip(a, b)])

    [[value]], [[singular]] = _quantity_values(img, quantity, at_point, (pt.r,))
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


def sweep(
    img: ImageCoefficients, grid: SampleGrid, quantity: str, threshold: float, limit: int | None = None
) -> OracleReport:
    """Evaluate `quantity` on the whole grid; record minimum and sub-threshold sites.

    Singular points and non-finite values (NaN, or an overflow) are recorded as
    violations of kind 'singular' or 'nonfinite' with value -inf, never raised:
    a zero of f off the origin is itself a failure, and a value that is not a
    number cannot show that the inequality holds.  Violations are ordered
    radius-major, then by angle; with a limit (at least 1) only the first
    `limit` of them are built.  A NaN threshold is a DomainError.
    """
    threshold = float(threshold)
    if np.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    if limit is not None:
        limit = check_integer(limit, 1, "limit")
    thetas = grid.thetas()
    vals, singular = _quantity_values(img, quantity, grid.circle_values, grid.radii)
    finite = np.isfinite(vals)
    failed = singular | ~finite
    if failed.any():
        vals = np.where(failed, -np.inf, vals)
    least = np.unravel_index(np.argmin(vals), vals.shape)
    # Some value is below the threshold exactly when the least one is.
    below = np.argwhere(vals < threshold)[:limit] if vals[least] < threshold else ()
    violations = [
        Violation(
            EvalPoint(grid.radii[i], float(thetas[j])),
            float(vals[i, j]),
            "singular" if singular[i, j] else "value" if finite[i, j] else "nonfinite",
        )
        for i, j in below
    ]
    argmin = EvalPoint(grid.radii[least[0]], float(thetas[least[1]]))
    return OracleReport(quantity, float(vals[least]), argmin, violations, threshold)

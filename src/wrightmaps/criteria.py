"""Coefficient sufficiency criteria and the per-theorem hypothesis checkers.

Two layers live here.  The lemma layer evaluates exact finite coefficient
sums: the (n -+ alpha)-weighted starlikeness test, its n(n -+ alpha) convexity
analog, the sum n|t_n| <= 1 starlike-range test, and the extremal coefficient
growth bounds of the classical mapping classes.  The theorem layer evaluates,
for each identifier T3.1..T5.4 (plus the gamma = delta = 1 specializations C1
and R1), a sufficient condition on the derivative values W(1)..W'''(1) of the
two kernel series.  Every checker reports two forms:

* ``as_stated``  - the inequality transcribed exactly as conventionally quoted,
* ``as_derived`` - the sharp bound reassembled from the weighted coefficient
  series that the condition actually controls, compared against what the
  underlying lemma requires.

For several identifiers the two forms disagree (weights dropped, an offset of
1 lost, a wrong subscript, or a wrong right-hand side); both are reported so
the discrepancies can be probed rather than silently inherited.  Acceptance
checks gate on ``as_derived``, whose passing provably implies the exact image
criterion for the matching coefficient class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer
from .mappings import ConvolutionSpec, ImageCoefficients, check_sigma
from .wright import DEFAULT_CONTROL, DerivativeValues, SeriesControl, WrightParams, derivs_at_one

FORM_STATED = "as_stated"
FORM_DERIVED = "as_derived"
FORM_EXACT = "exact"


@dataclass(frozen=True)
class TheoremRoute:
    """How one identifier is evaluated and how the CLI cross-checks it."""

    uses_b1: bool = False  # the condition reads |B_1|; all other identifiers ignore it
    reduces_to: str | None = None  # force gamma_i = delta_i = 1, then use these formulas
    quantity: str | None = None  # oracle quantity to keep above the order; None: epsilon probe


THEOREMS = {
    "T3.1": TheoremRoute(quantity="dtheta_arg_f"),
    "T3.2": TheoremRoute(quantity="dtheta_arg_f"),
    "T3.3": TheoremRoute(quantity="dtheta_arg_f"),
    "T4.1": TheoremRoute(quantity="dtheta_arg_ftheta"),
    "T4.2": TheoremRoute(quantity="dtheta_arg_ftheta"),
    "T4.3": TheoremRoute(quantity="dtheta_arg_ftheta"),
    "T5.1": TheoremRoute(uses_b1=True),
    "T5.2": TheoremRoute(),
    "T5.3": TheoremRoute(),
    "T5.4": TheoremRoute(uses_b1=True),
    "C1": TheoremRoute(reduces_to="T3.1", quantity="dtheta_arg_f"),
    "R1": TheoremRoute(reduces_to="T4.1", quantity="dtheta_arg_ftheta"),
}
THEOREM_IDS = tuple(THEOREMS)


@dataclass(frozen=True)
class CriterionReport:
    """One checked inequality lhs <= rhs with its slack margin = rhs - lhs."""

    id: str
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    form: str


def _report(rid: str, lhs: float, rhs: float, form: str) -> CriterionReport:
    lhs = float(lhs)
    rhs = float(rhs)
    # Strict comparison on computed doubles; callers apply their own slack.
    return CriterionReport(rid, lhs, rhs, lhs <= rhs, rhs - lhs, form)


def _check_order(order: float) -> float:
    order = float(order)
    if not (0 <= order < 1):
        raise DomainError(f"order must lie in [0, 1), got {order}")
    return order


def _lemma_sum(rid: str, a_abs, b_abs, order: float, power: int) -> CriterionReport:
    """sum n^power (n - order)|A_n| + sum n^power (n + order)|B_n|  vs  1 - order."""
    order = _check_order(order)
    a_abs = np.atleast_1d(np.asarray(a_abs, dtype=float))
    b_abs = np.atleast_1d(np.asarray(b_abs, dtype=float))
    n_a = np.arange(2, 2 + a_abs.size)
    n_b = np.arange(1, 1 + b_abs.size)
    lhs = np.sum(n_a**power * (n_a - order) * a_abs) + np.sum(n_b**power * (n_b + order) * b_abs)
    return _report(rid, lhs, 1.0 - order, FORM_EXACT)


def lemma1_sum(a_abs, b_abs, order: float) -> CriterionReport:
    """sum (n - order)|A_n| + sum (n + order)|B_n|  vs  1 - order."""
    return _lemma_sum("L1", a_abs, b_abs, order, 0)


def lemma2_sum(a_abs, b_abs, order: float) -> CriterionReport:
    """sum n(n - order)|A_n| + sum n(n + order)|B_n|  vs  1 - order."""
    return _lemma_sum("L2", a_abs, b_abs, order, 1)


def _starlike_range_lhs(t_abs):
    """sum_{n>=2} n |t_n| along the last axis: one value per row of t_abs."""
    return np.sum(np.arange(2, 2 + t_abs.shape[-1]) * t_abs, axis=-1)


def lemma5_sum(t_abs) -> CriterionReport:
    """sum_{n>=2} n |t_n|  vs  1 (starlike range of z + sum t_n z^n)."""
    t_abs = np.atleast_1d(np.asarray(t_abs, dtype=float))
    return _report("L5", _starlike_range_lhs(t_abs), 1.0, FORM_EXACT)


def lemma6_membership(a_abs, b_abs, order: float, klass: str) -> CriterionReport:
    """Membership test for the fixed-sign classes; the sum criterion is iff here.

    klass 'SRH' uses the lemma1 weights, 'KRH' the lemma2 weights.
    """
    if klass not in ("SRH", "KRH"):
        raise DomainError(f"class must be 'SRH' or 'KRH', got {klass!r}")
    return _lemma_sum(f"L6:{klass}", a_abs, b_abs, order, ("SRH", "KRH").index(klass))


def class_bound_coeffs(klass: str, b1: float = 0.0, n_max: int = 50):
    """Extremal coefficient-bound sequences (|A_n| for n=2..n_max, |B_n| for n=1..n_max).

    klass 'KH0':        (n+1)/2            and (n-1)/2
    klass 'CH0_family': (2n+1)(n+1)/6      and (2n-1)(n-1)/6
    klass 'CH':         the CH0_family pair cross-mixed with weight |b1|
    """
    n_max = check_integer(n_max, 2, "n_max")
    b1 = abs(b1)
    if not b1 < 1:
        raise DomainError(f"|b1| must be < 1, got {b1}")
    n_a = np.arange(2, n_max + 1, dtype=float)
    n_b = np.arange(1, n_max + 1, dtype=float)
    if klass == "KH0":
        return (n_a + 1) / 2, (n_b - 1) / 2
    grow_a = (2 * n_a + 1) * (n_a + 1) / 6
    fall_a = (2 * n_a - 1) * (n_a - 1) / 6
    grow_b = (2 * n_b + 1) * (n_b + 1) / 6
    fall_b = (2 * n_b - 1) * (n_b - 1) / 6
    if klass == "CH0_family":
        return grow_a, fall_b
    if klass == "CH":
        return grow_a + fall_a * b1, fall_b + grow_b * b1
    raise DomainError(f"class must be 'KH0', 'CH0_family' or 'CH', got {klass!r}")


def _formulas(tid, d1, d2, s, a, b):
    """(stated_lhs, stated_rhs, derived_lhs, derived_rhs) for one identifier."""
    w1, wp1, wpp1, wppp1 = d1.w1, d1.wp1, d1.wpp1, d1.wppp1
    w2, wp2, wpp2, wppp2 = d2.w1, d2.wp1, d2.wpp1, d2.wppp1
    if tid == "T3.1":
        lhs = (wp1 - 1) - a * (w1 - 1) + s * (wp2 + a * w2)
        return lhs, 1 - a, lhs, 1 - a
    if tid == "T3.2":
        # Quoted form compares against 2; the chain bounds the weighted sum by
        # (W1(1) - 1) + s*W2(1), which the membership lemma caps at 1 - a.
        return w1 + s * w2, 2.0, (w1 - 1) + s * w2, 1 - a
    if tid == "T3.3":
        # Quoted form repeats (W1'(1)-1) where the index shift yields (W1(1)-1)
        # and leaves the co-analytic order term outside the s weight.
        stated = wpp1 + (2 - a) * (wp1 - 1) - a * (wp1 - 1) + s * wpp2 + a * (wp2 - w2)
        derived = 0.5 * (wpp1 + (2 - a) * (wp1 - 1) - a * (w1 - 1) + s * (wpp2 + a * (wp2 - w2)))
        return stated, 2 * (1 - a), derived, 1 - a
    if tid == "T4.1":
        # Quoted form has rhs = a and drops the -1 offset of W1'(1).
        stated = wpp1 + (1 - a) * wp1 + s * (wpp2 + (1 + a) * wp2)
        derived = wpp1 + (1 - a) * (wp1 - 1) + s * (wpp2 + (1 + a) * wp2)
        return stated, a, derived, 1 - a
    if tid == "T4.2":
        lhs = wppp1 + (4 - a) * wpp1 + 2 * (1 - a) * (wp1 - 1) + s * (wppp2 + (2 + a) * wpp2)
        return lhs, 2 * (1 - a), 0.5 * lhs, 1 - a
    if tid == "T4.3":
        return w1 + s * w2, 2.0 - a, (w1 - 1) + s * w2, 1 - a
    if tid == "T5.1":
        return w1 + w2 - 2, 1 - b, (w1 + w2 - 2) / (1 - b), 1.0
    if tid == "T5.2":
        return wpp1 + 2 * wp1 + wpp2, 4.0, 0.5 * (wpp1 + 2 * (wp1 - 1) + wpp2), 1.0
    if tid == "T5.3":
        # Quoted form carries a subscript-2 first derivative and weight 1 on
        # the second kernel's third derivative; the chain uses subscript 1 and 2.
        stated = 2 * wppp1 + 9 * wpp1 + 6 * (wp2 - 1) + wppp2 + 3 * wpp2
        derived = (2 * wppp1 + 9 * wpp1 + 6 * (wp1 - 1) + 2 * wppp2 + 3 * wpp2) / 6
        return stated, 6.0, derived, 1.0
    if tid == "T5.4":
        cross1 = 2 * wppp1 + 3 * wpp1
        full2 = 2 * wppp2 + 9 * wpp2 + 6 * (wp2 - 1)
        stated = (
            2 * wppp1 + 9 * wpp1 + 6 * (wp2 - 1) + b * cross1 + 2 * wppp2 + 3 * wpp2 + b * full2
        )
        derived = (
            2 * wppp1 + 9 * wpp1 + 6 * (wp1 - 1) + b * cross1 + 2 * wppp2 + 3 * wpp2 + b * full2
        ) / (6 * (1 - b))
        return stated, 6 * (1 - b), derived, 1.0


def _route(theorem_id: str) -> TheoremRoute:
    if theorem_id not in THEOREM_IDS:
        raise DomainError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    return THEOREMS[theorem_id]


def _check_b1(theorem_id: str, b1) -> float:
    """|b1|, which must be < 1 for the identifiers whose condition reads it."""
    b = abs(b1)
    if THEOREMS[theorem_id].uses_b1 and not b < 1:
        raise DomainError(f"|B_1| must be < 1 for {theorem_id}, got {b}")
    return b


def _kernel(route: TheoremRoute, p: WrightParams) -> WrightParams:
    """The quadruple whose derivatives the formulas read: gamma = delta = 1 if the route reduces."""
    return WrightParams(p.alpha, p.beta, 1.0, 1.0) if route.reduces_to else p


def stated_hypothesis(
    theorem_id: str,
    spec: ConvolutionSpec,
    order: float = 0.0,
    b1: float = 0.0,
    ctrl: SeriesControl = DEFAULT_CONTROL,
):
    """Evaluate one identifier's condition; returns (as_stated, as_derived) reports."""
    route = _route(theorem_id)
    order = _check_order(order)
    b = _check_b1(theorem_id, b1)
    d1 = derivs_at_one(_kernel(route, spec.p1), ctrl)
    d2 = derivs_at_one(_kernel(route, spec.p2), ctrl)
    sl, sr, dl, dr = _formulas(route.reduces_to or theorem_id, d1, d2, abs(spec.sigma), order, b)
    return (
        _report(theorem_id, sl, sr, FORM_STATED),
        _report(theorem_id, dl, dr, FORM_DERIVED),
    )


def _per_distinct(fn, rows):
    """fn(*row), or the DomainError it raises, once per distinct row of the 2-D `rows`.

    Rows are compared bit for bit and results come in order of first occurrence;
    also returns each row's index into the results.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    results = []
    for row in rows[first[by_first]].tolist():
        try:
            results.append(fn(*row))
        except DomainError as exc:
            results.append(exc)
    return results, np.argsort(by_first)[inverse]


def hypothesis_columns(theorem_id: str, kernels1, kernels2, sigma, order, b1, ctrl=DEFAULT_CONTROL):
    """stated_hypothesis at every row of a grid given as columns.

    kernels1 and kernels2 hold an (alpha, beta, gamma, delta) row per point, sigma,
    order and b1 a real value each.  Returns ((lhs, rhs, satisfied) as stated,
    (lhs, rhs, satisfied) as derived), arrays with the bits stated_hypothesis gives
    point by point; derivs_at_one runs once per distinct kernel.  A faulty grid
    raises the first error of the point-by-point loop: in each row in turn p1, p2,
    sigma, order and b1 are checked, then the two kernels evaluated.
    """
    route = _route(theorem_id)
    sigma, order, b1 = (np.asarray(column, dtype=float) for column in (sigma, order, b1))
    n = len(order)
    pairs = np.stack([np.asarray(kernels1, dtype=float), np.asarray(kernels2, dtype=float)], axis=1)
    kernels, kernel_of = _per_distinct(WrightParams, pairs.reshape(2 * n, 4))  # p1, p2 of row 0, ...
    kernel_of = kernel_of.reshape(n, 2)
    scalar_checks = ((check_sigma, sigma), (_check_order, order), (lambda b: _check_b1(theorem_id, b), b1))
    checked = [(kernels, kernel_of[:, 0]), (kernels, kernel_of[:, 1])] + [
        _per_distinct(fn, column[:, None]) for fn, column in scalar_checks
    ]
    faults = np.flatnonzero(np.stack(
        [np.array([isinstance(r, DomainError) for r in results])[index] for results, index in checked], axis=1
    ))  # row-major: row k's checks in the order the loop meets them
    stop = faults[0] // len(checked) if faults.size else n
    # Ids count up in order of first occurrence, so the kernels met before row stop are a prefix.
    met = kernels[: kernel_of[:stop].max(initial=-1) + 1]
    derivs = functools.cache(lambda p: derivs_at_one(p, ctrl))  # by reduced quadruple
    values = [tuple(vars(derivs(_kernel(route, p))).values()) for p in met]
    if faults.size:
        results, index = checked[faults[0] % len(checked)]
        raise results[index[stop]]
    table = np.reshape(values, (-1, 4))[kernel_of]  # (n, 2, 4): each row's p1 and p2 derivative values
    d1, d2 = (DerivativeValues(*table[:, side].T) for side in (0, 1))
    with np.errstate(all="ignore"):  # overflow and nan pass silently, as in float arithmetic
        sl, sr, dl, dr = _formulas(route.reduces_to or theorem_id, d1, d2, np.abs(sigma), order, np.abs(b1))
        return tuple((lhs, np.broadcast_to(rhs, n), lhs <= rhs) for lhs, rhs in ((sl, sr), (dl, dr)))


def exact_image_criterion(img: ImageCoefficients, order: float, target: str) -> CriterionReport:
    """Ground-truth sufficiency check on the image's own coefficients."""
    if target not in ("starlike_L1", "convex_L2"):
        raise DomainError(f"target must be 'starlike_L1' or 'convex_L2', got {target!r}")
    power = ("starlike_L1", "convex_L2").index(target)
    return _lemma_sum(target, np.abs(img.ha), np.abs(img.gb), order, power)


def _unit_moduli(epsilons) -> np.ndarray:
    """epsilons as a 1-D complex array; DomainError unless every |epsilon| is 1 (to 1e-12)."""
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=complex))
    if not np.all(np.abs(np.abs(epsilons) - 1) <= 1e-12):
        raise DomainError(f"every |epsilon| must equal 1, got moduli {np.abs(epsilons)}")
    return epsilons


# 64 equally spaced unit-modulus probes plus +-1 and +-i, checked once; read-only,
# since every probe without its own epsilons reads this one array.
DEFAULT_EPSILONS = _unit_moduli(
    np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64), np.array([1, -1, 1j, -1j], dtype=complex)])
)
DEFAULT_EPSILONS.flags.writeable = False


def default_epsilons() -> np.ndarray:
    """A fresh copy of the 68 default probes: 64 equally spaced unit-modulus values plus +-1 and +-i."""
    return DEFAULT_EPSILONS.copy()


def close_to_convex_lhs(img: ImageCoefficients, b1=None, epsilons=None) -> np.ndarray:
    """Starlike-range lhs sum n|t_n| of (H + eps*sigma*G)/(1 + eps*b1) per unit-modulus eps.

    One entry per epsilon, in input order (the 68 default probes if None); b1
    defaults to the image's own first co-analytic coefficient.  The probe passes
    at an epsilon when its entry is <= 1, so a NaN entry fails.
    """
    if b1 is None:
        b1 = img.g[1] if img.g.size > 1 else 0j
    b1 = complex(b1)
    if not abs(b1) < 1:
        raise DomainError(f"|b1| must be < 1, got {abs(b1)}")
    eps = (DEFAULT_EPSILONS if epsilons is None else _unit_moduli(epsilons))[:, None]
    size = max(img.h.size, img.g.size)
    h = np.zeros(size, dtype=complex)
    h[: img.h.size] = img.h
    g = np.zeros(size, dtype=complex)
    g[: img.g.size] = img.g
    # Row k holds |t_n| for epsilons[k]; |1 + eps*b1| >= 1 - |b1| > 0.
    t_abs = np.abs((h[2:] + eps * g[2:]) / (1 + eps * b1))
    return _starlike_range_lhs(t_abs)


def close_to_convex_probe(img: ImageCoefficients, b1=None, epsilons=None):
    """close_to_convex_lhs as one L5[eps<k>] report per epsilon, in input order.

    The probe certifies close-to-convexity only if every report passes.
    """
    lhs = close_to_convex_lhs(img, b1, epsilons)
    return [_report(f"L5[eps{k}]", v, 1.0, FORM_EXACT) for k, v in enumerate(lhs)]

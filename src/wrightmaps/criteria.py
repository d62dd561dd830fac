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

from .errors import DomainError, check_integer
from .wright import (DEFAULT_CONTROL, ConvolutionSpec, DerivativeValues, SeriesControl, WrightParams, check_sigma,
                     derivs_at_one, derivs_table)

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
    import numpy as np
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
    import numpy as np
    return np.sum(np.arange(2, 2 + t_abs.shape[-1]) * t_abs, axis=-1)


def lemma5_sum(t_abs) -> CriterionReport:
    """sum_{n>=2} n |t_n|  vs  1 (starlike range of z + sum t_n z^n)."""
    import numpy as np
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
    import numpy as np
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


def gated_spec(route: TheoremRoute, spec: ConvolutionSpec) -> ConvolutionSpec:
    """spec with the kernels the route's condition reads, the ones f is convolved with to check it."""
    return ConvolutionSpec(_kernel(route, spec.p1), _kernel(route, spec.p2), spec.sigma)


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
    spec = gated_spec(route, spec)
    d1 = derivs_at_one(spec.p1, ctrl)
    d2 = derivs_at_one(spec.p2, ctrl)
    sl, sr, dl, dr = _formulas(route.reduces_to or theorem_id, d1, d2, abs(spec.sigma), order, b)
    return (
        _report(theorem_id, sl, sr, FORM_STATED),
        _report(theorem_id, dl, dr, FORM_DERIVED),
    )


def _valid_params(kernels):
    """Which (alpha, beta, gamma, delta) rows of an (n, 4) array WrightParams accepts."""
    import numpy as np
    alpha, beta, gamma, delta = kernels.T
    finite = np.isfinite(kernels).all(axis=1)
    return finite & (alpha > 0) & (gamma > 0) & (beta >= 0) & (delta >= 0) & (beta + delta > 0)


def hypothesis_columns(theorem_id: str, kernels1, kernels2, sigma, order, b1, ctrl=DEFAULT_CONTROL):
    """stated_hypothesis at every row of a grid given as columns.

    kernels1 and kernels2 hold an (alpha, beta, gamma, delta) row per point, sigma,
    order and b1 a real value each.  Returns ((lhs, rhs, satisfied) as stated,
    (lhs, rhs, satisfied) as derived), arrays with the bits stated_hypothesis gives
    point by point.  The distinct reduced kernels are summed in one derivs_table
    pass, and derivs_at_one runs only on the rows it flags.  A faulty grid raises
    the first error of the point-by-point loop: in each row in turn p1, p2, sigma,
    order and b1 are checked, then the two kernels evaluated.
    """
    import numpy as np
    route = _route(theorem_id)
    sigma, order, b1 = (np.asarray(column, dtype=float) for column in (sigma, order, b1))
    n = len(order)
    pairs = np.stack([np.asarray(kernels1, dtype=float), np.asarray(kernels2, dtype=float)], axis=1)
    valid = np.stack([
        _valid_params(pairs[:, 0]),
        _valid_params(pairs[:, 1]),
        np.abs(sigma) < 1,
        (0 <= order) & (order < 1),
        (np.abs(b1) < 1) | (not route.uses_b1),
    ], axis=1)  # the loop's checks of each row, in its order
    faults = np.flatnonzero(~valid)  # row-major, as the loop meets them
    stop = faults[0] // valid.shape[1] if faults.size else n
    rows = pairs[:stop].reshape(2 * stop, 4)  # p1, p2 of row 0, ...
    if route.reduces_to:
        rows = np.concatenate([rows[:, :2], np.ones((2 * stop, 2))], axis=1)  # gamma = delta = 1
    keys = rows.view(np.dtype((np.void, rows.itemsize * 4))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    kernels = rows[first[by_first]]  # in order of first occurrence
    table = derivs_table(kernels, ctrl)
    for k in np.flatnonzero(np.isnan(table[:, 0])).tolist():  # the first that raises is the loop's error
        table[k] = tuple(vars(derivs_at_one(WrightParams(*kernels[k].tolist()), ctrl)).values())
    if faults.size:  # the scalar check raises the loop's error, in its words
        (
            lambda: WrightParams(*pairs[stop, 0].tolist()),
            lambda: WrightParams(*pairs[stop, 1].tolist()),
            lambda: check_sigma(float(sigma[stop])),
            lambda: _check_order(float(order[stop])),
            lambda: _check_b1(theorem_id, float(b1[stop])),
        )[faults[0] % valid.shape[1]]()
    table = table[np.argsort(by_first)[inverse].reshape(n, 2)]  # (n, 2, 4): each row's p1 and p2 values
    d1, d2 = (DerivativeValues(*table[:, side].T) for side in (0, 1))
    with np.errstate(all="ignore"):  # overflow and nan pass silently, as in float arithmetic
        sl, sr, dl, dr = _formulas(route.reduces_to or theorem_id, d1, d2, np.abs(sigma), order, np.abs(b1))
        return tuple((lhs, np.broadcast_to(rhs, n), lhs <= rhs) for lhs, rhs in ((sl, sr), (dl, dr)))


def exact_image_criterion(img, order: float, target: str) -> CriterionReport:
    """Ground-truth sufficiency check on an ImageCoefficients' own coefficients."""
    if target not in ("starlike_L1", "convex_L2"):
        raise DomainError(f"target must be 'starlike_L1' or 'convex_L2', got {target!r}")
    power = ("starlike_L1", "convex_L2").index(target)
    return _lemma_sum(target, abs(img.ha), abs(img.gb), order, power)


def _unit_moduli(epsilons):
    """epsilons as a 1-D complex array; DomainError unless every |epsilon| is 1 (to 1e-12)."""
    import numpy as np
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=complex))
    if not np.all(np.abs(np.abs(epsilons) - 1) <= 1e-12):
        raise DomainError(f"every |epsilon| must equal 1, got moduli {np.abs(epsilons)}")
    return epsilons


# 64 equally spaced unit-modulus probes plus +-1 and +-i, built on first use and checked once;
# read-only, since every probe without its own epsilons reads this one array.
@functools.cache
def _default_epsilons():
    import numpy as np
    epsilons = _unit_moduli(
        np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64), np.array([1, -1, 1j, -1j], dtype=complex)])
    )
    epsilons.flags.writeable = False
    return epsilons


def __getattr__(name):  # PEP 562: DEFAULT_EPSILONS is _default_epsilons()
    if name == "DEFAULT_EPSILONS":
        return _default_epsilons()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def default_epsilons():
    """A fresh copy of the 68 default probes: 64 equally spaced unit-modulus values plus +-1 and +-i."""
    return _default_epsilons().copy()


def _probe_b1(img, b1):
    """b1 as a complex number, the image's own g[1] if None; DomainError unless |b1| < 1."""
    if b1 is None:
        b1 = img.g[1] if img.g.size > 1 else 0j
    b1 = complex(b1)
    if not abs(b1.real) + abs(b1.imag) < 2 or not abs(b1) < 1:  # the sum first, so abs cannot overflow
        raise DomainError(f"|b1| must be < 1, got b1 = {b1}")
    return b1


def close_to_convex_bound(img, b1=None) -> float:
    """T = sum_{n>=2} n(|h_n| + |g_n|) / (1 - |b1|), a bound on close_to_convex_lhs at every |eps| = 1.

    |h_n + eps*g_n| <= |h_n| + |g_n| and |1 + eps*b1| >= 1 - |b1|, so T <= 1
    shows the starlike-range test passes on the whole circle of eps, not only
    at the probes.  b1 defaults, and is checked, as in close_to_convex_lhs; a
    NaN or infinite coefficient gives a T that is not <= 1.
    """
    import numpy as np
    b1 = _probe_b1(img, b1)
    return float((_starlike_range_lhs(np.abs(img.h[2:])) + _starlike_range_lhs(np.abs(img.g[2:]))) / (1 - abs(b1)))


def close_to_convex_lhs(img, b1=None, epsilons=None):
    """Starlike-range lhs sum n|t_n| of (H + eps*sigma*G)/(1 + eps*b1) per unit-modulus eps.

    One entry per epsilon, in input order (the 68 default probes if None); b1
    defaults to the image's own first co-analytic coefficient.  The probe passes
    at an epsilon when its entry is <= 1, so a NaN entry fails.
    """
    import numpy as np
    b1 = _probe_b1(img, b1)
    eps = (_default_epsilons() if epsilons is None else _unit_moduli(epsilons))[:, None]
    size = max(img.h.size, img.g.size)
    h = np.zeros(size, dtype=complex)
    h[: img.h.size] = img.h
    g = np.zeros(size, dtype=complex)
    g[: img.g.size] = img.g
    # Row k holds |t_n| for epsilons[k]; |1 + eps*b1| >= 1 - |b1| > 0.
    t_abs = np.abs((h[2:] + eps * g[2:]) / (1 + eps * b1))
    return _starlike_range_lhs(t_abs)


def close_to_convex_probe(img, b1=None, epsilons=None):
    """close_to_convex_lhs as one L5[eps<k>] report per epsilon, in input order.

    The probe certifies close-to-convexity only if every report passes.
    """
    lhs = close_to_convex_lhs(img, b1, epsilons)
    return [_report(f"L5[eps{k}]", v, 1.0, FORM_EXACT) for k, v in enumerate(lhs)]

"""Four-parameter Wright series: plain and normalized evaluation, derivatives at 1.

The base series is

    sum_{n>=0} z^n / (Gamma(alpha + n*beta) * Gamma(gamma + n*delta)),

entire in z whenever beta + delta > 0.  Its normalized companion

    W(z) = z * Gamma(alpha) * Gamma(gamma) * (base series)
         = sum_{n>=1} c_n z^n,   c_n = Gamma(alpha)Gamma(gamma) /
                                       (Gamma(alpha+(n-1)beta) Gamma(gamma+(n-1)delta))

has W(0) = 0 and W'(0) = 1 (c_1 = 1).  Every function here reads its terms
from one certified-sum kernel, `_terms`, which computes each gamma ratio as a
difference of log-gamma values so that no intermediate overflows.  The scalar
functions, and ConvolutionSpec, use the standard library alone; numpy is
imported by the array functions (norm_coeffs, derivs_table) when called.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, check_integer

# Geometric tail-safety factor: summation stops only once consecutive term
# magnitudes have ratio <= 1/2, so the remaining tail is at most one current
# term; the factor 2 turns "term <= tol/2" into "tail < tol".  Log-gamma is
# convex, hence the term ratio is strictly decreasing in n and the observed
# ratio bound stays valid for the whole tail.
_TAIL_SAFETY = 2.0

# log Gamma(x) is log(gamma(x)) for _GAMMA_LO < x < _GAMMA_HI and lgamma(x)
# elsewhere.  Below 12, lgamma is 1-2 ulp less accurate, which moves pinned last
# digits; from 12 up both are within a few ulp of log Gamma, and lgamma is three
# times faster.  gamma(x) overflows below about 5.6e-309.
_GAMMA_LO = 1e-300
_GAMMA_HI = 12.0


@dataclass(frozen=True)
class WrightParams:
    """Parameter quadruple (alpha, beta, gamma, delta) of one series.

    Requires alpha > 0, gamma > 0, beta >= 0, delta >= 0 and beta + delta > 0
    (the last is what makes the series converge absolutely for every z).
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        vals = (self.alpha, self.beta, self.gamma, self.delta)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"parameters must be finite, got {vals}")
        if self.alpha <= 0 or self.gamma <= 0:
            raise DomainError(f"alpha and gamma must be > 0, got alpha={self.alpha}, gamma={self.gamma}")
        if self.beta < 0 or self.delta < 0:
            raise DomainError(f"beta and delta must be >= 0, got beta={self.beta}, delta={self.delta}")
        if self.beta + self.delta <= 0:
            raise DomainError("beta + delta must be > 0 for an absolutely convergent series")


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
    if abs(sigma.real) + abs(sigma.imag) == math.inf:  # abs(sigma) could overflow
        raise DomainError(f"|sigma| must be < 1, got sigma = {sigma}")
    if not abs(sigma) < 1:
        raise DomainError(f"|sigma| must be < 1, got {abs(sigma)}")
    return sigma


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control: hard term budget and absolute tail tolerance."""

    max_terms: int = 2000
    tail_tol: float = 1e-14

    def __post_init__(self):
        object.__setattr__(self, "max_terms", check_integer(self.max_terms, 2, "max_terms"))
        if not 0 < self.tail_tol < math.inf:
            raise DomainError(f"tail_tol must be finite and > 0, got {self.tail_tol}")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class DerivativeValues:
    """Values W(1), W'(1), W''(1), W'''(1) of the normalized series.

    Every term of every sum is positive, so all four fields are >= 0, and
    w1 >= 1, wp1 >= 1 because the leading term z contributes 1 to each.
    """

    w1: float
    wp1: float
    wpp1: float
    wppp1: float


def _terms(p: WrightParams, r: float, normalized=True, weight=0, ctrl=DEFAULT_CONTROL):
    """The certified-sum kernel: term magnitudes t_k for k = 0, 1, ...

    t_k = r^k / (Gamma(alpha + k*beta) Gamma(gamma + k*delta)), or, when
    `normalized`, the normalized series term t_k = c_{k+1} r^(k+1).  Stops right
    after the first t_k whose weighted size (k+1)^weight * t_k is at most half
    the previous one and at most tail_tol / _TAIL_SAFETY, which bounds the
    weighted tail of the sum below tail_tol; ConvergenceError if that takes more
    than ctrl.max_terms terms or a term overflows.  Requires r > 0.
    """
    log, gamma, lgamma, exp = math.log, math.gamma, math.lgamma, math.exp
    alpha, beta, gam, delta = p.alpha, p.beta, p.gamma, p.delta
    lo, hi = _GAMMA_LO, _GAMMA_HI
    log_r = log(r)
    shift, power = 0.0, int(normalized)
    tol = ctrl.tail_tol
    prev = math.nan  # no ratio exists before the second term, and nan compares false
    try:  # outside the loop: entering it costs nothing per term
        for k in range(ctrl.max_terms):
            a = alpha + k * beta
            g = gam + k * delta
            la = log(gamma(a)) if lo < a < hi else lgamma(a)
            lg = log(gamma(g)) if lo < g < hi else lgamma(g)
            if normalized and not k:
                shift = la + lg  # log(Gamma(alpha) Gamma(gamma))
            t = exp(shift + (k + power) * log_r - la - lg)
            yield t
            weighted = (k + 1) ** weight * t
            if weighted <= 0.5 * prev and _TAIL_SAFETY * weighted <= tol:
                return
            prev = weighted
    except OverflowError:
        raise ConvergenceError(f"float overflow while summing the series for {p}, r={r}") from None
    raise ConvergenceError(f"series tail not below {tol} within {ctrl.max_terms} terms for {p}, r={r}")


def norm_coeffs(p: WrightParams, count: int):
    """[c_1, ..., c_count] as a float array, in one pass of the kernel.

    The least positive tolerance stops it only at a c_n that rounds to 0 past the
    peak of the log-concave c_n, where every later one rounds to 0 too.
    """
    import numpy as np
    count = check_integer(count, 0, "count")
    ctrl = SeriesControl(max(count, 2), math.ulp(0.0))
    coeffs = np.zeros(count)
    head = np.fromiter(itertools.islice(_terms(p, 1.0, ctrl=ctrl), count), float)
    coeffs[: head.size] = head
    return coeffs


def norm_coeff(p: WrightParams, n: int) -> float:
    """Coefficient c_n of the normalized series, n >= 1.

    Computed as exp of a log-gamma difference; always > 0, and c_1 == 1.
    """
    return float(norm_coeffs(p, check_integer(n, 1, "coefficient index"))[-1])


def _phase_sum(p: WrightParams, z, normalized: bool, ctrl: SeriesControl) -> complex:
    """The kernel's terms at r = |z|, each times its power of z/|z|."""
    z = complex(z)
    if not abs(z.real) + abs(z.imag) < math.inf:  # this bounds |z|, so abs(z) cannot overflow
        raise DomainError(f"z must be finite, with |re| + |im| in the float range, got {z}")
    if z == 0:
        return 0j if normalized else complex(next(_terms(p, 1.0, normalized=False)))
    phase = z / abs(z)
    term_phase = phase if normalized else 1 + 0j
    total = 0j
    for t in _terms(p, abs(z), normalized=normalized, ctrl=ctrl):
        total += t * term_phase
        term_phase *= phase
    if not cmath.isfinite(total):
        raise ConvergenceError(f"series sum overflows the float range for {p}, z={z}")
    return total


def wright_eval(p: WrightParams, z: complex, ctrl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Partial sum of the base series with certified tail below ctrl.tail_tol."""
    return _phase_sum(p, z, False, ctrl)


def normalized_eval(p: WrightParams, z: complex, ctrl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Normalized series sum_{n>=1} c_n z^n; equals z*Gamma(alpha)*Gamma(gamma)*wright_eval."""
    return _phase_sum(p, z, True, ctrl)


def derivs_at_one(p: WrightParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> DerivativeValues:
    """W(1), W'(1), W''(1), W'''(1) as truncated positive-term sums.

    One pass accumulates sum c_n, sum n c_n, sum n(n-1) c_n, sum n(n-1)(n-2) c_n.
    The stop rule bounds the heaviest tail: the current term is weighted by n^3
    (which dominates all four weights) before comparison against tail_tol.
    """
    w1 = wp1 = wpp1 = wppp1 = 0.0
    for n, c in enumerate(_terms(p, 1.0, weight=3, ctrl=ctrl), start=1):
        w1 += c
        wp1 += n * c
        wpp1 += n * (n - 1) * c
        wppp1 += n * (n - 1) * (n - 2) * c
    if not w1 + wp1 + wpp1 + wppp1 < math.inf:  # one test for all four positive sums
        raise ConvergenceError(f"derivative sums overflow the float range for {p}")
    return DerivativeValues(w1, wp1, wpp1, wppp1)


# derivs_table flags a term whose exp argument or log-gamma argument reaches these,
# below where math.exp (709.78) and math.lgamma (about 2.5e305) overflow.
_EXP_FLAG = 709.0
_LGAMMA_FLAG = 1e300
# Rows x terms of one derivs_table step, unless its rows alone are more: this
# bounds the memory of its term arrays.
_STEP_ELEMENTS = 1 << 14


def _log_gammas(args):
    """log Gamma of every element of an array by _terms' expression, and NaN from _LGAMMA_FLAG up."""
    import numpy as np
    log, gamma, lgamma, lo, hi, top = math.log, math.gamma, math.lgamma, _GAMMA_LO, _GAMMA_HI, _LGAMMA_FLAG
    values = [
        log(gamma(a)) if lo < a < hi else lgamma(a) if a < top else math.nan for a in args.ravel().tolist()
    ]
    return np.array(values).reshape(args.shape)


def derivs_table(rows, ctrl: SeriesControl = DEFAULT_CONTROL):
    """derivs_at_one of each valid (alpha, beta, gamma, delta) row, as a (K, 4) array.

    Row k holds W(1), W'(1), W''(1), W'''(1) with derivs_at_one's bits: the same
    terms, the same stop rule and sums in the same order.  The terms of all rows
    advance together; each distinct half (alpha, beta) or (gamma, delta) gets its
    log-gamma values once.  A row is NaN where derivs_at_one might raise: an exp
    argument of at least _EXP_FLAG, a log-gamma argument of at least _LGAMMA_FLAG,
    sums that are not finite, or a term budget run out.
    """
    import numpy as np
    with np.errstate(all="ignore"):  # overflow marks a row, and never reaches the caller as a warning
        rows = np.asarray(rows, dtype=float).reshape(-1, 4)
        halves = np.ascontiguousarray(rows.reshape(-1, 2))  # row k's (alpha, beta) at 2k, (gamma, delta) at 2k+1
        keys = halves.view(np.dtype((np.void, 2 * halves.itemsize))).ravel()
        _, first, half_of = np.unique(keys, return_index=True, return_inverse=True)
        start, step = halves[first].T
        half_of = half_of.reshape(-1, 2)
        sums = np.zeros((len(rows), 4))
        shift = np.zeros(len(rows))
        prev = np.full(len(rows), math.nan)  # no ratio exists before the second term
        flagged = np.zeros(len(rows), dtype=bool)
        active = np.arange(len(rows))
        k0, width, tol = 0, 8, ctrl.tail_tol
        while active.size and k0 < ctrl.max_terms:
            # 16, 32, ... terms: most kernels stop within the first step, and a slow one takes few steps.
            width = min(2 * width, max(1, _STEP_ELEMENTS // active.size), ctrl.max_terms - k0)
            n = range(k0 + 1, k0 + width + 1)  # n = k + 1 for the step's terms k
            # The weights of the four sums and the stop rule: exact ints rounded once, as in derivs_at_one.
            weights = np.array([[1, m, m * (m - 1), m * (m - 1) * (m - 2), m**3] for m in n], dtype=float).T
            used = np.zeros(len(start), dtype=bool)
            used[half_of[active]] = True
            log_gammas = np.zeros((len(start), width))
            log_gammas[used] = _log_gammas(start[used, None] + np.arange(k0, k0 + width) * step[used, None])
            la, lg = log_gammas[half_of[active, 0]], log_gammas[half_of[active, 1]]
            if not k0:
                shift[active] = la[:, 0] + lg[:, 0]  # log(Gamma(alpha) Gamma(gamma))
            x = shift[active, None] + 0.0 - la - lg
            bad = ~(x < _EXP_FLAG)  # NaN too, which a log-gamma flag makes
            terms = np.fromiter(map(math.exp, np.where(bad, -math.inf, x).ravel().tolist()), float, x.size)
            terms = terms.reshape(x.shape)
            weighted = weights[4] * terms
            before = np.concatenate([prev[active, None], weighted[:, :-1]], axis=1)
            stops = (weighted <= 0.5 * before) & (_TAIL_SAFETY * weighted <= tol)
            stopped = stops.any(axis=1)
            kept = np.arange(width) <= np.where(stopped, stops.argmax(axis=1), width)[:, None]
            flagged[active] = (bad & kept).any(axis=1)
            terms = np.where(kept, terms, 0.0)  # adding +0.0 leaves a nonnegative sum's bits
            parts = np.concatenate([sums[active, :, None], weights[:4] * terms[:, None, :]], axis=2)
            sums[active] = np.add.accumulate(parts, axis=2)[:, :, -1]  # one term at a time, as derivs_at_one adds
            prev[active] = weighted[:, -1]
            active = active[~stopped & ~flagged[active]]
            k0 += width
        flagged[active] = True  # the term budget ran out
        flagged |= ~(sums[:, 0] + sums[:, 1] + sums[:, 2] + sums[:, 3] < math.inf)
        sums[flagged] = math.nan
        return sums

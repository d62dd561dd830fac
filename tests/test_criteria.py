"""Coefficient criteria, class bounds, and the theorem checkers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wrightmaps.criteria
from wrightmaps import (
    ConvergenceError,
    ConvolutionSpec,
    CoefficientSeq,
    DomainError,
    FORM_DERIVED,
    FORM_EXACT,
    FORM_STATED,
    ImageCoefficients,
    SampleGrid,
    SeriesControl,
    THEOREM_IDS,
    WrightParams,
    class_bound_coeffs,
    close_to_convex_bound,
    close_to_convex_lhs,
    close_to_convex_probe,
    convolve,
    default_epsilons,
    exact_image_criterion,
    hypothesis_columns,
    lemma1_sum,
    lemma2_sum,
    lemma5_sum,
    lemma6_membership,
    norm_coeff,
    norm_coeffs,
    normalized_eval,
    random_coefficients,
    stated_hypothesis,
    sweep,
    wright_eval,
)
from wrightmaps.cli import curves_to_svg, sample_boundary_curves
from wrightmaps.criteria import DEFAULT_EPSILONS

P1111 = WrightParams(1, 1, 1, 1)
P2121 = WrightParams(2, 1, 2, 1)
I1_AT_2_MINUS = 0.5906368546373291  # sum_{n>=2} n/(n!)^2, frozen from the 50-digit oracle


def spec_of(p1, p2=None, sigma=0.0):
    return ConvolutionSpec(p1, p2 if p2 is not None else p1, sigma)


def test_lemma1_examples():
    rep = lemma1_sum([], [], 0.3)
    assert rep.satisfied and rep.lhs == 0 and rep.rhs == pytest.approx(0.7)
    rep = lemma1_sum([0.5], [], 0.0)  # A_2 = (1-a)/(2-a) at a = 0
    assert rep.satisfied and rep.margin == pytest.approx(0.0, abs=1e-15)
    rep = lemma1_sum([], [0.5], 0.5)
    assert not rep.satisfied and rep.lhs == pytest.approx(0.75) and rep.rhs == pytest.approx(0.5)
    assert rep.form == FORM_EXACT


def test_lemma2_examples():
    assert lemma2_sum([], [], 0.0).satisfied
    rep = lemma2_sum([0.25], [], 0.0)
    assert rep.satisfied and rep.margin == pytest.approx(0.0, abs=1e-15)
    rep = lemma2_sum([], [0.6], 0.5)
    assert not rep.satisfied and rep.lhs == pytest.approx(0.9)


def test_lemma5_examples():
    assert lemma5_sum([]).satisfied
    rep = lemma5_sum([0.5])
    assert rep.satisfied and rep.lhs == pytest.approx(1.0) and rep.margin == pytest.approx(0.0)
    rep = lemma5_sum([0.4, 0.1])
    assert not rep.satisfied and rep.lhs == pytest.approx(1.1)


def test_order_validation():
    with pytest.raises(DomainError):
        lemma1_sum([], [], 1.0)
    with pytest.raises(DomainError):
        lemma2_sum([], [], -0.2)


def test_lemma6_delegates_both_ways():
    rng = np.random.default_rng(2)
    a_abs, b_abs = rng.uniform(0, 0.2, 5), rng.uniform(0, 0.2, 4)
    for order in (0.0, 0.4):
        srh = lemma6_membership(a_abs, b_abs, order, "SRH")
        ref = lemma1_sum(a_abs, b_abs, order)
        assert (srh.lhs, srh.rhs, srh.satisfied) == (ref.lhs, ref.rhs, ref.satisfied)
        assert srh.id == "L6:SRH"
        krh = lemma6_membership(a_abs, b_abs, order, "KRH")
        ref = lemma2_sum(a_abs, b_abs, order)
        assert (krh.lhs, krh.rhs, krh.satisfied) == (ref.lhs, ref.rhs, ref.satisfied)
    with pytest.raises(DomainError):
        lemma6_membership(a_abs, b_abs, 0.0, "XYZ")


def test_class_bound_examples():
    a_abs, b_abs = class_bound_coeffs("KH0", 0.0, 3)
    assert a_abs[-1] == pytest.approx(2.0) and b_abs[-1] == pytest.approx(1.0)
    a_abs, b_abs = class_bound_coeffs("CH0_family", 0.0, 2)
    assert a_abs[0] == pytest.approx(2.5) and b_abs[-1] == pytest.approx(0.5)
    assert b_abs[0] == 0.0  # B_1 vanishes for the zero-slope family
    a0, b0 = class_bound_coeffs("CH", 0.0, 6)
    a1, b1 = class_bound_coeffs("CH0_family", 0.0, 6)
    assert np.allclose(a0, a1) and np.allclose(b0, b1)
    a2, b2 = class_bound_coeffs("CH", 0.5, 3)
    assert b2[0] == pytest.approx(0.5)  # first co-analytic bound picks up |b1|
    with pytest.raises(DomainError):
        class_bound_coeffs("CH", 1.0, 5)
    with pytest.raises(DomainError):
        class_bound_coeffs("KH0", 0.0, 1)
    with pytest.raises(DomainError):
        class_bound_coeffs("nope", 0.0, 5)


def test_hypothesis_t31_negligible_tail():
    stated, derived = stated_hypothesis("T3.1", spec_of(WrightParams(1, 50, 1, 1)), 0.0)
    assert stated.lhs == pytest.approx(0.0, abs=1e-50)
    assert stated.satisfied and derived.satisfied


def test_hypothesis_t31_value():
    stated, derived = stated_hypothesis("T3.1", spec_of(P2121), 0.0)
    assert stated.lhs == pytest.approx(I1_AT_2_MINUS, abs=1e-10)
    assert stated.lhs == derived.lhs and stated.rhs == derived.rhs == 1.0
    assert stated.form == FORM_STATED and derived.form == FORM_DERIVED


def test_hypothesis_t32_fails_at_base_point():
    stated, derived = stated_hypothesis("T3.2", spec_of(P1111), 0.0)
    assert stated.lhs == pytest.approx(2.2795853023360673, abs=1e-10)
    assert stated.rhs == 2.0 and not stated.satisfied
    assert derived.rhs == 1.0 and not derived.satisfied


def test_hypothesis_t41_two_forms():
    stated, derived = stated_hypothesis("T4.1", spec_of(WrightParams(1, 3, 1, 3)), 0.0)
    # Quoted form keeps the full first derivative and compares against the order.
    assert stated.rhs == 0.0 and derived.rhs == 1.0
    assert stated.lhs - derived.lhs == pytest.approx(1.0, rel=1e-12)
    assert derived.satisfied and not stated.satisfied


def test_hypothesis_b1_only_used_by_t51_t54():
    spec = spec_of(WrightParams(1, 4, 1, 4))
    for tid in ("T3.1", "T4.1", "T5.2", "T5.3"):
        r0 = stated_hypothesis(tid, spec, 0.0, b1=0.0)
        r1 = stated_hypothesis(tid, spec, 0.0, b1=0.7)
        assert (r0[0].lhs, r0[1].lhs) == (r1[0].lhs, r1[1].lhs)
    for tid in ("T5.1", "T5.4"):
        r0 = stated_hypothesis(tid, spec, 0.0, b1=0.0)
        r1 = stated_hypothesis(tid, spec, 0.0, b1=0.7)
        assert r0[0].rhs != r1[0].rhs or r0[1].lhs != r1[1].lhs
        with pytest.raises(DomainError):
            stated_hypothesis(tid, spec, 0.0, b1=1.0)


def test_hypothesis_t5_ignores_sigma():
    p = WrightParams(1, 3, 2, 2)
    for tid in ("T5.1", "T5.2", "T5.3", "T5.4"):
        a = stated_hypothesis(tid, spec_of(p, p, 0.0), 0.0, b1=0.2)
        b = stated_hypothesis(tid, spec_of(p, p, 0.9), 0.0, b1=0.2)
        assert a[0].lhs == b[0].lhs and a[1].lhs == b[1].lhs


def test_monotone_in_sigma():
    p1 = WrightParams(1.3, 1.8, 0.9, 1.1)
    p2 = WrightParams(2.0, 1.2, 1.5, 0.7)
    for tid in THEOREM_IDS:
        prev_stated = prev_derived = -np.inf
        for s in (0.0, 0.3, 0.6, 0.9):
            stated, derived = stated_hypothesis(tid, spec_of(p1, p2, s), 0.2, b1=0.1)
            assert stated.lhs >= prev_stated - 1e-12
            assert derived.lhs >= prev_derived - 1e-12
            prev_stated, prev_derived = stated.lhs, derived.lhs


def test_specialization_consistency():
    p1 = WrightParams(1.4, 2.2, 1.0, 1.0)
    p2 = WrightParams(0.8, 1.6, 1.0, 1.0)
    spec = spec_of(p1, p2, 0.35)
    for full, reduced in (("T3.1", "C1"), ("T4.1", "R1")):
        a = stated_hypothesis(full, spec, 0.15)
        b = stated_hypothesis(reduced, spec, 0.15)
        assert a[0].lhs == b[0].lhs and a[0].rhs == b[0].rhs
        assert a[1].lhs == b[1].lhs and a[1].rhs == b[1].rhs
    # The reduction forces gamma = delta = 1 even when the caller does not.
    base = stated_hypothesis("T3.1", spec, 0.15)
    spec2 = spec_of(WrightParams(1.4, 2.2, 3.0, 0.5), p2, 0.35)
    forced = stated_hypothesis("C1", spec2, 0.15)
    assert forced[0].lhs == base[0].lhs


def test_unknown_theorem_id():
    with pytest.raises(DomainError):
        stated_hypothesis("T9.9", spec_of(P1111), 0.0)


# Faults a grid row can carry, as (column, value): alpha or gamma 0, beta 0 (a
# fault where delta is 0 too), beta 0.05 (too slow for a 60-term budget where
# delta is 0.05), |sigma| = 1, an order outside [0, 1), and |b1| = 1, which
# only T5.1 and T5.4 reject.
_FAULTS = [(0, 0.0), (6, 0.0), (1, 0.0), (5, 0.0), (1, 0.05), (5, 0.05), (8, -1.0), (9, 1.0), (9, -0.25), (10, -1.0)]


@st.composite
def _grids(draw):
    """Rows of (alpha1, ..., delta2, sigma, order, b1) with repeated kernels and up to three faults."""
    size = draw(st.integers(1, 6))
    values = [[1.0, 2.0], [0.5, 1.0], [1.0, 2.0], [0.0, 0.05, 1.0]] * 2 + [[0.0, 0.5], [0.0, 0.5], [0.0, 0.5]]
    rows = [[draw(st.sampled_from(v)) for v in values] for _ in range(size)]
    for row, (column, value) in draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(_FAULTS)), max_size=3)):
        row[column] = value
    return rows


def _point_by_point(tid, rows, ctrl):
    """stated_hypothesis row after row, as a per-point caller runs it: the reports, or the first error."""
    reports = []
    try:
        for row in rows:
            spec = ConvolutionSpec(WrightParams(*row[:4]), WrightParams(*row[4:8]), row[8])
            reports.append(stated_hypothesis(tid, spec, row[9], row[10], ctrl))
    except (DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return [[(r.lhs, r.rhs, r.satisfied) for r in row] for row in reports]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(THEOREM_IDS), _grids())
# Rows with several faults, which the first check met must name: p2, sigma, order.
@example("T5.1", [[1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
@example("T5.4", [[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
@example("T5.1", [[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0]])
def test_hypothesis_columns_matches_point_by_point(tid, rows):
    ctrl = SeriesControl(60)
    expected = _point_by_point(tid, rows, ctrl)
    grid = np.array(rows)
    try:
        forms = hypothesis_columns(tid, grid[:, :4], grid[:, 4:8], *grid[:, 8:].T, ctrl)
    except (DomainError, ConvergenceError) as exc:
        assert (type(exc), str(exc)) == expected
        return
    got = [[(lhs[k], rhs[k], sat[k]) for lhs, rhs, sat in forms] for k in range(len(rows))]
    assert got == expected
    # Bit for bit too: == would let -0.0 pass for 0.0.
    assert np.array([[rep[:2] for rep in row] for row in got]).tobytes() == np.array(
        [[rep[:2] for rep in row] for row in expected]
    ).tobytes()


def _spy_kernels(monkeypatch):
    """The kernels handed to the batched criteria.derivs_table, in order, and those the
    scalar criteria.derivs_at_one is called with."""
    batched, scalar = [], []
    derivs_table, derivs_at_one = wrightmaps.criteria.derivs_table, wrightmaps.criteria.derivs_at_one

    def batch(rows, *args, **kwargs):
        batched.extend(WrightParams(*row) for row in np.asarray(rows).tolist())
        return derivs_table(rows, *args, **kwargs)

    def single(p, *args, **kwargs):
        scalar.append(p)
        return derivs_at_one(p, *args, **kwargs)

    monkeypatch.setattr(wrightmaps.criteria, "derivs_table", batch)
    monkeypatch.setattr(wrightmaps.criteria, "derivs_at_one", single)
    return batched, scalar


def test_hypothesis_columns_evaluates_each_reduced_kernel_once(monkeypatch):
    batched, scalar = _spy_kernels(monkeypatch)
    # Axes alpha1, gamma1, delta1 and alpha2; C1 sets gamma = delta = 1 on both sides.
    alpha1, gamma1, delta1, alpha2 = (
        a.ravel() for a in np.meshgrid([2.0, 3.0], [1.0, 2.0, 3.0], [0.5, 1.5], [2.0, 4.0], indexing="ij")
    )
    ones = np.ones_like(alpha1)
    kernels1 = np.stack([alpha1, ones, gamma1, delta1], axis=1)
    kernels2 = np.stack([alpha2, ones, 3 * ones, 2 * ones], axis=1)
    zeros = np.zeros_like(alpha1)
    hypothesis_columns("C1", kernels1, kernels2, zeros + 0.2, zeros, zeros)
    assert batched == [WrightParams(2, 1, 1, 1), WrightParams(4, 1, 1, 1), WrightParams(3, 1, 1, 1)]
    assert scalar == []  # no kernel of an all-valid grid is flagged


def test_hypothesis_columns_evaluates_no_kernel_past_a_faulty_row(monkeypatch):
    batched, scalar = _spy_kernels(monkeypatch)
    kernels1 = [[2.0, 1.0, 2.0, 1.0], [4.0, 1.0, 2.0, 1.0]]
    kernels2 = [[3.0, 1.0, 2.0, 1.0], [5.0, 1.0, 2.0, 1.0]]
    with pytest.raises(DomainError, match="sigma"):
        hypothesis_columns("T3.1", kernels1, kernels2, [0.5, 1.0], [0.0, 0.0], [0.0, 0.0])
    assert batched == [WrightParams(2, 1, 2, 1), WrightParams(3, 1, 2, 1)]  # row 0's p1 and p2 only
    assert scalar == []


def test_hypothesis_columns_takes_a_flagged_kernel_from_derivs_at_one(monkeypatch):
    batched, scalar = _spy_kernels(monkeypatch)
    # derivs_table flags this kernel (its first exp argument is 709.07); derivs_at_one sums it.
    p = WrightParams(3.5e17, 1, 287.63, 1)
    kernels1 = [[3.5e17, 1.0, 287.63, 1.0]] * 2
    kernels2 = [[2.0, 1.0, 2.0, 1.0]] * 2
    lhs, rhs, sat = hypothesis_columns("T3.1", kernels1, kernels2, [0.0, 0.5], [0.2] * 2, [0.0] * 2)[1]
    assert (batched, scalar) == ([p, P2121], [p])
    reports = [stated_hypothesis("T3.1", spec_of(p, P2121, s), 0.2)[1] for s in (0.0, 0.5)]
    assert lhs.tobytes() == np.array([r.lhs for r in reports]).tobytes()
    assert 1e307 < lhs[0] < np.inf and not sat.any()


def test_exact_image_criterion_examples():
    rep = exact_image_criterion(ImageCoefficients(), 0.3, "starlike_L1")
    assert rep.satisfied and rep.margin == pytest.approx(0.7)
    img = convolve(CoefficientSeq(np.ones(49), []), spec_of(P2121))
    rep = exact_image_criterion(img, 0.0, "starlike_L1")
    assert rep.satisfied and rep.lhs <= I1_AT_2_MINUS
    rep = exact_image_criterion(ImageCoefficients([], [0.9]), 0.2, "convex_L2")
    assert not rep.satisfied and rep.lhs == pytest.approx(1.2 * 0.9)
    with pytest.raises(DomainError):
        exact_image_criterion(img, 0.0, "bogus")


def test_default_epsilons():
    eps = default_epsilons()
    assert eps.size == 68
    assert np.allclose(np.abs(eps), 1.0, atol=1e-15)


def test_close_to_convex_probe_examples():
    reports = close_to_convex_probe(ImageCoefficients())
    assert len(reports) == 68 and all(r.satisfied for r in reports)
    reports = close_to_convex_probe(ImageCoefficients([0.5], []))
    assert all(r.satisfied for r in reports)
    assert min(r.margin for r in reports) == pytest.approx(0.0, abs=1e-12)
    reports = close_to_convex_probe(ImageCoefficients([0.4], [0, 0.2]), epsilons=[-1, 1])
    assert reports[0].lhs == pytest.approx(0.4) and reports[0].satisfied
    assert reports[1].lhs == pytest.approx(1.2) and not reports[1].satisfied


def test_close_to_convex_probe_denominator_and_validation():
    img = ImageCoefficients([0.1], [0.5, 0.05])
    reports = close_to_convex_probe(img)  # b1 defaults to the image's own gb[1]
    assert len(reports) == 68
    with pytest.raises(DomainError):
        close_to_convex_probe(img, b1=1.0)
    with pytest.raises(DomainError):
        close_to_convex_probe(img, epsilons=[0.5])


def per_epsilon_probe(img, epsilons):
    """Reference for close_to_convex_probe: one lemma5_sum per epsilon."""
    b1 = img.g[1] if img.g.size > 1 else 0j
    size = max(img.h.size, img.g.size)
    h = np.zeros(size, dtype=complex)
    h[: img.h.size] = img.h
    g = np.zeros(size, dtype=complex)
    g[: img.g.size] = img.g
    return [lemma5_sum(np.abs((h[2:] + eps * g[2:]) / (1 + eps * b1))) for eps in epsilons]


def test_close_to_convex_probe_matches_per_epsilon_loop():
    eps = default_epsilons()
    rng = np.random.default_rng(3)
    real_images, complex_images = [], []
    for klass in ("KH0", "CH0_family", "CH"):
        for n_max in (2, 7, 30):
            for sigma in (0.0, 0.3, 0.9):
                f = CoefficientSeq(*class_bound_coeffs(klass, 0.4, n_max))
                real_images.append(convolve(f, spec_of(WrightParams(1, 3, 1, 3), sigma=sigma)))
    for k in range(150):
        f = random_coefficients(rng, 2 + k % 40)
        sigma = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        p1, p2 = WrightParams(*rng.uniform(0.5, 3, 4)), WrightParams(*rng.uniform(0.5, 3, 4))
        complex_images.append(convolve(f, ConvolutionSpec(p1, p2, sigma)))
    for images, rel in ((real_images, 0.0), (complex_images, 1e-15)):
        for img in images:
            got, ref = close_to_convex_probe(img), per_epsilon_probe(img, eps)
            assert [r.id for r in got] == [f"L5[eps{k}]" for k in range(eps.size)]
            assert [r.satisfied for r in got] == [r.satisfied for r in ref]
            for r, q in zip(got, ref):
                assert abs(r.lhs - q.lhs) <= rel * q.lhs
                assert (r.rhs, r.form) == (q.rhs, q.form)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: stated_hypothesis("T5.1", spec_of(P2121), 0.0, NAN),
        lambda: stated_hypothesis("T5.4", spec_of(P2121), 0.0, NAN),
        lambda: class_bound_coeffs("CH", NAN),
        lambda: SeriesControl(2000, INF),
        lambda: wright_eval(P1111, complex(NAN, 0)),
        lambda: wright_eval(P1111, complex(0, INF)),
        lambda: normalized_eval(P1111, complex(INF, NAN)),
        lambda: normalized_eval(P1111, complex(1e308, 1e308)),  # |re| + |im| beyond the float range
        lambda: close_to_convex_probe(ImageCoefficients([0.1], [0.2]), b1=NAN),
        lambda: close_to_convex_probe(ImageCoefficients([0.1], [0.2]), epsilons=[1, NAN]),
        # Integer arguments: a bare int() of nan or inf raises ValueError or OverflowError.
        lambda: SampleGrid((0.5,), NAN),
        lambda: SampleGrid((0.5,), INF),
        lambda: SeriesControl(NAN),
        lambda: SeriesControl(INF),
        lambda: norm_coeff(P2121, NAN),
        lambda: norm_coeff(P2121, INF),
        lambda: class_bound_coeffs("KH0", 0, NAN),
        lambda: class_bound_coeffs("KH0", 0, INF),
        # A NaN threshold compares false everywhere, so it would report no violation.
        lambda: sweep(ImageCoefficients([], [0, 0.9]), SampleGrid((0.5,), 64), "jacobian_margin", NAN),
        # Integer arguments below their minimum or not integers at all.
        *(lambda n=n: random_coefficients(np.random.default_rng(0), n) for n in (2.5, NAN, INF, 1)),
        *(lambda n=n: norm_coeffs(P2121, n) for n in (2.5, NAN, INF, -1)),
        *(lambda n=n: sample_boundary_curves(ImageCoefficients(), [0.5], n) for n in (64.5, NAN, INF, 63)),
        *(lambda n=n: curves_to_svg([np.ones(4, dtype=complex)], n, 800) for n in (2.5, NAN, INF, 0)),
        *(lambda n=n: curves_to_svg([np.ones(4, dtype=complex)], 800, n) for n in (2.5, NAN, INF, 0)),
    ],
)
def test_library_rejects_non_finite_inputs(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # The message names this argument and its own minimum, not a callee's.
        (lambda: norm_coeffs(P2121, 2.5), "count must be an integer >= 0, got 2.5"),
        (lambda: sample_boundary_curves(ImageCoefficients(), [0.5], 64.5), "theta_count must be an integer >= 64"),
    ],
)
def test_integer_arguments_name_their_own_bound(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_default_epsilons_returns_a_fresh_array():
    img = ImageCoefficients([0.3, 0.1j], [0.2, 0.05])
    before = close_to_convex_lhs(img)
    expected = np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64), [1, -1, 1j, -1j]])
    eps = default_epsilons()
    eps[:] = -1j  # still of unit modulus, so a probe reading it would accept it
    assert default_epsilons().tobytes() == expected.tobytes()
    assert close_to_convex_lhs(img).tobytes() == before.tobytes()
    assert [r.lhs for r in close_to_convex_probe(img)] == before.tolist()
    with pytest.raises(ValueError):
        DEFAULT_EPSILONS[0] = 1


def test_default_epsilons_is_one_read_only_array():
    # Built on first use, then the same array on every access, by attribute or by import.
    first = wrightmaps.criteria.DEFAULT_EPSILONS
    assert wrightmaps.criteria.DEFAULT_EPSILONS is first and DEFAULT_EPSILONS is first
    assert not first.flags.writeable and first.tobytes() == default_epsilons().tobytes()
    with pytest.raises(AttributeError, match="NO_SUCH_NAME"):
        wrightmaps.criteria.NO_SUCH_NAME


def test_close_to_convex_probe_reports_carry_the_lhs_array():
    rng = np.random.default_rng(9)
    cases = [(ImageCoefficients(), None, None), (ImageCoefficients([np.nan]), None, None)]
    for k in range(40):
        f = random_coefficients(rng, 2 + k % 30)
        sigma = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        img = convolve(f, ConvolutionSpec(P2121, WrightParams(*rng.uniform(0.5, 3, 4)), sigma))
        cases.append((img, None, None))
        cases.append((img, 0.9 * rng.random() * np.exp(2j * np.pi * rng.random()), np.exp(2j * rng.random(5))))
    for img, b1, epsilons in cases:
        lhs = close_to_convex_lhs(img, b1, epsilons)
        reports = close_to_convex_probe(img, b1, epsilons)
        assert [r.id for r in reports] == [f"L5[eps{k}]" for k in range(lhs.size)]
        assert np.array([r.lhs for r in reports]).tobytes() == lhs.tobytes()
        assert [r.satisfied for r in reports] == (lhs <= 1).tolist()  # NaN fails
        assert np.array([r.margin for r in reports]).tobytes() == (1.0 - lhs).tobytes()
        assert {(r.rhs, r.form) for r in reports} == {(1.0, FORM_EXACT)}
    assert np.isnan(close_to_convex_lhs(ImageCoefficients([np.nan]))).all()


@pytest.mark.parametrize(
    "b1, epsilons", [(1.0, None), (NAN, None), (0.0, [0.5]), (0.0, [1, NAN]), (complex(1.7e308, 1.7e308), None)]
)
def test_close_to_convex_lhs_validates_like_the_probe(b1, epsilons):
    with pytest.raises(DomainError):
        close_to_convex_lhs(ImageCoefficients([0.1], [0.5, 0.05]), b1, epsilons)
    if epsilons is None:
        with pytest.raises(DomainError):
            close_to_convex_bound(ImageCoefficients([0.1], [0.5, 0.05]), b1)


def test_close_to_convex_bound_holds_for_every_unit_epsilon():
    rng = np.random.default_rng(26)
    dense = np.exp(2j * np.pi * np.arange(16384) / 16384)
    for k in range(60):
        klass, n = rng.choice(["KH0", "CH0_family", "CH"]), int(rng.integers(2, 81))
        b1 = 0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        a, b = (c.astype(complex) for c in class_bound_coeffs(klass, abs(b1), n))
        kernels = (WrightParams(*rng.uniform([0.8, 1.5, 0.8, 1.5], [2.5, 4.5, 2.5, 4.5])) for _ in "12")
        if k % 4:  # random phases and a complex sigma
            a, b = (c * np.exp(2j * np.pi * rng.random(c.size)) for c in (a, b))
            spec = ConvolutionSpec(*kernels, complex(*rng.uniform(-0.5, 0.5, 2)))
        else:  # real coefficients, nonnegative from n = 2 on, and b_1 <= 0: at eps = 1 the lhs is T
            b[0] = -b[0]
            spec = ConvolutionSpec(*kernels, rng.uniform(0, 0.5))
        img = convolve(CoefficientSeq(a, b), spec)
        for given_b1 in (None, b1):
            bound, lhs = close_to_convex_bound(img, given_b1), close_to_convex_lhs(img, given_b1, dense)
            assert lhs.max() <= bound * (1 + 1e-13), (k, given_b1)
            if k % 4 == 0 and given_b1 is None:
                assert lhs.max() >= bound * (1 - 1e-13), k
    assert close_to_convex_bound(ImageCoefficients([0.3j], [0.5, -0.1]), 0.5j) == (2 * 0.3 + 2 * 0.1) / 0.5
    assert close_to_convex_bound(ImageCoefficients()) == 0.0
    assert np.isnan(close_to_convex_bound(ImageCoefficients([np.nan])))


def test_default_epsilons_lie_within_four_units_in_the_last_place_of_the_circle():
    # The rounding argument behind verify's certificate slack assumes |eps| <= 1 + 4u, u = 2^-53.
    assert np.abs(DEFAULT_EPSILONS).max() <= 1 + 2.0**-51

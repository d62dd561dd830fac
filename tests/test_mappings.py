"""Coefficient mappings: convolution, evaluation, derivatives."""

import math

import numpy as np
import pytest

import wrightmaps.mappings
from wrightmaps import (
    CoefficientSeq,
    ConvolutionSpec,
    DomainError,
    EvalPoint,
    ImageCoefficients,
    WrightParams,
    convolve,
    eval_derivs,
    eval_map,
    identity_image,
    norm_coeff,
    random_coefficients,
)
from wrightmaps.mappings import convolve_each

P1111 = WrightParams(1, 1, 1, 1)


def test_coefficient_seq_validation():
    CoefficientSeq([0.2], [0.99])
    with pytest.raises(DomainError):
        CoefficientSeq([], [1.0])


def test_convolution_spec_validation():
    ConvolutionSpec(P1111, P1111, 0.99j)
    with pytest.raises(DomainError):
        ConvolutionSpec(P1111, P1111, 1.0)


def test_eval_point_validation():
    EvalPoint(0.0, 3.0)
    with pytest.raises(DomainError):
        EvalPoint(1.0, 0.0)
    with pytest.raises(DomainError):
        EvalPoint(-0.1, 0.0)
    pt = EvalPoint(0.5, math.pi / 2)
    assert pt.z == pytest.approx(0.5j, abs=1e-16)


def test_convolve_identity_passthrough():
    img = convolve(CoefficientSeq(), ConvolutionSpec(P1111, P1111, 0.5))
    assert img.ha.size == 0 and img.gb.size == 0
    assert eval_map(img, EvalPoint(0.5, 0)) == pytest.approx(0.5)


def test_convolve_examples():
    spec = ConvolutionSpec(P1111, P1111, 0.5)
    img = convolve(CoefficientSeq([1.0], []), spec)
    assert img.ha[0] == pytest.approx(1.0)  # c_2 = 1/(Gamma(2)Gamma(2))
    img = convolve(CoefficientSeq([], [0.5]), spec)
    assert img.gb[0] == pytest.approx(0.25)  # c_1 = 1 always


def test_convolve_matches_norm_coeff():
    p1 = WrightParams(1.7, 0.9, 2.4, 1.3)
    p2 = WrightParams(0.8, 2.0, 1.1, 0.6)
    spec = ConvolutionSpec(p1, p2, 0.3 - 0.4j)
    rng = np.random.default_rng(3)
    f = random_coefficients(rng, 12)
    img = convolve(f, spec)
    for k in range(f.a.size):
        assert img.ha[k] == pytest.approx(norm_coeff(p1, k + 2) * f.a[k], rel=1e-15)
    for k in range(f.b.size):
        assert img.gb[k] == pytest.approx(spec.sigma * norm_coeff(p2, k + 1) * f.b[k], rel=1e-15)


def test_convolve_linearity():
    spec = ConvolutionSpec(WrightParams(1.2, 1.5, 0.9, 0.4), WrightParams(2, 1, 2, 1), 0.25j)
    rng = np.random.default_rng(11)
    a1, a2 = rng.standard_normal(6) + 1j * rng.standard_normal(6), rng.standard_normal(6)
    b1, b2 = 0.3 * rng.standard_normal(7), 0.3 * (rng.standard_normal(7) * 1j)
    img1 = convolve(CoefficientSeq(a1, b1), spec)
    img2 = convolve(CoefficientSeq(a2, b2), spec)
    both = convolve(CoefficientSeq(a1 + a2, b1 + b2), spec)
    assert np.allclose(both.ha, img1.ha + img2.ha, rtol=0, atol=1e-15)
    assert np.allclose(both.gb, img1.gb + img2.gb, rtol=0, atol=1e-15)


def test_first_co_analytic_coefficient_is_exact():
    sigma = 0.3 + 0.2j
    b1 = 0.5 - 0.1j
    img = convolve(CoefficientSeq([], [b1]), ConvolutionSpec(P1111, P1111, sigma))
    assert img.gb[0] == sigma * b1  # c_1(p2) == 1 exactly


def test_eval_map_examples():
    assert eval_map(identity_image(), EvalPoint(0.5, 0)) == pytest.approx(0.5)
    img = ImageCoefficients([1.0], [])
    assert eval_map(img, EvalPoint(0.5, 0)) == pytest.approx(0.75)
    img = ImageCoefficients([], [0.25])
    # z + conj(0.25 z) at z = 0.4i: 0.4i - 0.1i = 0.3i
    assert eval_map(img, EvalPoint(0.4, math.pi / 2)) == pytest.approx(0.3j, abs=1e-15)


def test_eval_map_origin_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(5):
        img = ImageCoefficients(rng.standard_normal(4), rng.standard_normal(3) * 0.2)
        assert eval_map(img, EvalPoint(0.0, rng.uniform(0, 2 * math.pi))) == 0


def test_eval_derivs_examples():
    hp, hpp, gp, gpp = eval_derivs(identity_image(), EvalPoint(0.7, 1.3))
    assert (hp, hpp, gp, gpp) == (1, 0, 0, 0)
    hp, hpp, gp, gpp = eval_derivs(ImageCoefficients([1.0], []), EvalPoint(0.5, 0))
    assert hp == pytest.approx(2.0) and hpp == pytest.approx(2.0)
    hp, hpp, gp, gpp = eval_derivs(ImageCoefficients([], [0, 0.5]), EvalPoint(0.2, 0))
    assert gp == pytest.approx(0.2) and gpp == pytest.approx(1.0)


def test_eval_derivs_finite_difference_consistency():
    # Analytic and co-analytic parts probed separately through eval_map.
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(10):
        ha = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        gb = rng.uniform(-0.2, 0.2, 5) + 1j * rng.uniform(-0.2, 0.2, 5)
        img = ImageCoefficients(ha, gb)
        img_h = ImageCoefficients(ha, [])
        pt = EvalPoint(rng.uniform(0.1, 0.8), rng.uniform(0, 2 * math.pi))
        z = pt.z
        hp, hpp, gp, gpp = eval_derivs(img, pt)

        def H(w):
            r, th = abs(w), math.atan2(w.imag, w.real)
            return eval_map(img_h, EvalPoint(r, th))

        def S(w):
            r, th = abs(w), math.atan2(w.imag, w.real)
            full = eval_map(img, EvalPoint(r, th))
            return np.conj(full - H(w))

        assert abs((H(z + h) - H(z - h)) / (2 * h) - hp) < 1e-6
        assert abs((S(z + h) - S(z - h)) / (2 * h) - gp) < 1e-6
        # Second derivatives against differences of the first ones.
        hp_p, _, gp_p, _ = eval_derivs(img, EvalPoint(abs(z + h), math.atan2((z + h).imag, (z + h).real)))
        hp_m, _, gp_m, _ = eval_derivs(img, EvalPoint(abs(z - h), math.atan2((z - h).imag, (z - h).real)))
        assert abs((hp_p - hp_m) / (2 * h) - hpp) < 1e-6
        assert abs((gp_p - gp_m) / (2 * h) - gpp) < 1e-6


def test_random_coefficients_shape_and_bounds():
    rng = np.random.default_rng(123)
    f = random_coefficients(rng, 50)
    assert f.a.size == 49 and f.b.size == 50
    assert np.all(np.abs(f.a) <= 1) and np.all(np.abs(f.b) <= 1)
    assert abs(f.b[0]) < 1
    again = random_coefficients(np.random.default_rng(123), 50)
    assert np.array_equal(f.a, again.a) and np.array_equal(f.b, again.b)


def test_coefficient_seq_rejects_non_finite():
    for a, b in (([np.nan], []), ([0.1, np.inf], [0.2]), ([], [0.1, complex(0, -np.inf)])):
        with pytest.raises(DomainError):
            CoefficientSeq(a, b)


def test_convolve_each_computes_each_kernel_once_per_length_and_call(monkeypatch):
    calls = []
    norm_coeffs = wrightmaps.mappings.norm_coeffs

    def counted(p, count):
        calls.append((p, count))
        return norm_coeffs(p, count)

    monkeypatch.setattr(wrightmaps.mappings, "norm_coeffs", counted)
    spec = ConvolutionSpec(WrightParams(2, 1, 2, 1), WrightParams(3, 0.5, 1, 2), 0.4 - 0.2j)
    rng = np.random.default_rng(3)
    fs = [random_coefficients(rng, n) for n in (5, 9, 5, 9)]  # lengths 5 and 9 on both sides
    images = list(convolve_each(fs, spec))
    assert calls == [(spec.p1, 5), (spec.p2, 5), (spec.p1, 9), (spec.p2, 9)]
    again = list(convolve_each(fs, spec))
    assert calls[4:] == calls[:4]  # a new generator starts with no coefficients
    for f, img, img_again in zip(fs, images, again):
        ref = convolve(f, spec)
        for got in (img, img_again):
            assert (got.h.tobytes(), got.g.tobytes()) == (ref.h.tobytes(), ref.g.tobytes())

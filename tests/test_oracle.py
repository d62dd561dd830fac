"""Geometric sampling oracle: pointwise quantities and grid sweeps."""

import math

import numpy as np
import pytest

import wrightmaps
from wrightmaps import (
    ConvolutionSpec,
    DomainError,
    EvalPoint,
    ImageCoefficients,
    SampleGrid,
    SingularPointError,
    WrightParams,
    convolve,
    dtheta_arg_f,
    dtheta_arg_ftheta,
    eval_map,
    identity_image,
    jacobian_margin,
    random_coefficients,
    sweep,
)
from wrightmaps.mappings import derivative
from wrightmaps.oracle import QUANTITIES


def random_safe_image(rng, n=8, budget=0.9):
    """Random image whose weighted coefficient sum stays below the univalence bound."""
    ha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gb = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    n_a = np.arange(2, 2 + n)
    n_b = np.arange(1, 1 + n)
    total = np.sum(n_a * np.abs(ha)) + np.sum(n_b * np.abs(gb))
    scale = budget / total
    return ImageCoefficients(ha * scale, gb * scale)


def test_identity_values():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pt = EvalPoint(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        assert dtheta_arg_f(identity_image(), pt) == pytest.approx(1.0, abs=1e-14)
        assert dtheta_arg_ftheta(identity_image(), pt) == pytest.approx(1.0, abs=1e-14)
        assert jacobian_margin(identity_image(), pt) == pytest.approx(1.0, abs=1e-15)


def test_dtheta_arg_f_reflection_example():
    # f = z + conj(c z): value (1 - c^2)/(1 + c^2) at theta = pi/4, any radius.
    c = 0.5
    img = ImageCoefficients([], [c])
    for r in (0.2, 0.6, 0.95):
        assert dtheta_arg_f(img, EvalPoint(r, math.pi / 4)) == pytest.approx(0.6, abs=1e-13)


def test_jacobian_examples():
    assert jacobian_margin(ImageCoefficients([], [0.5]), EvalPoint(0.3, 1.0)) == pytest.approx(0.5)
    img = ImageCoefficients([0.5], [0.9])
    assert jacobian_margin(img, EvalPoint(0.9, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_finite_difference_agreement():
    rng = np.random.default_rng(99)
    h = 1e-5
    for _ in range(10):
        img = random_safe_image(rng)
        for _ in range(10):
            r = rng.uniform(0.05, 0.95)
            th = rng.uniform(0, 2 * math.pi)

            f_p = eval_map(img, EvalPoint(r, th + h))
            f_m = eval_map(img, EvalPoint(r, th - h))
            fd = np.angle(f_p / f_m) / (2 * h)
            assert abs(dtheta_arg_f(img, EvalPoint(r, th)) - fd) < 1e-6

            def f_theta(theta):
                z = r * np.exp(1j * theta)
                hp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(img.h))
                sp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(img.g))
                return 1j * (z * hp - np.conj(z * sp))

            fd2 = np.angle(f_theta(th + h) / f_theta(th - h)) / (2 * h)
            assert abs(dtheta_arg_ftheta(img, EvalPoint(r, th)) - fd2) < 1e-5


def test_sample_grid_validation():
    with pytest.raises(DomainError):
        SampleGrid((), 64)
    with pytest.raises(DomainError):
        SampleGrid((0.5, 1.0), 64)
    with pytest.raises(DomainError):
        SampleGrid((0.5,), 4)
    grid = SampleGrid((0.9, 0.5), 64)
    assert grid.radii == (0.5, 0.9)  # stored sorted


def test_sweep_identity_clean():
    rep = sweep(identity_image(), SampleGrid((0.5, 0.9), 256), "dtheta_arg_f", 0.0)
    assert rep.min_value == pytest.approx(1.0, abs=1e-13)
    assert rep.violations == [] and rep.clean
    assert rep.argmin is not None


def test_sweep_equality_case_starlike():
    # Boundary case of the starlike coefficient test: still clean at threshold 0.
    img = ImageCoefficients([0.5], [])
    rep = sweep(img, SampleGrid((0.9, 0.99), 4096), "dtheta_arg_f", 0.0)
    assert rep.min_value >= 0 and rep.clean


def test_sweep_equality_case_convex():
    img = ImageCoefficients([0.25], [])
    rep = sweep(img, SampleGrid((0.99,), 4096), "dtheta_arg_ftheta", 0.0)
    assert rep.min_value >= 0 and rep.clean


def test_sweep_detects_sense_reversal():
    # |(sigma G)'| = 1.8 r exceeds |H'| = 1 once r > 5/9.
    img = ImageCoefficients([], [0, 0.9])
    rep = sweep(img, SampleGrid((0.5, 0.9, 0.99), 512), "jacobian_margin", 0.0)
    assert rep.min_value == pytest.approx(1 - 1.782, abs=1e-12)
    assert rep.argmin.r == 0.99
    assert any(v.point.r == 0.99 and v.point.theta == 0.0 for v in rep.violations)
    assert all(v.value < 0 for v in rep.violations)
    # Ordering is radius-major, then angle.
    keys = [(v.point.r, v.point.theta) for v in rep.violations]
    assert keys == sorted(keys)
    # r = 0.5 stays sense-preserving, so every violation sits on the outer circles.
    assert all(v.point.r > 0.5 for v in rep.violations)


def test_sweep_unknown_quantity():
    with pytest.raises(DomainError):
        sweep(identity_image(), SampleGrid((0.5,), 64), "nope", 0.0)


def test_singular_point_recorded_not_raised():
    # H = z + 2 z^2 vanishes at z = -1/2, which the grid hits exactly.
    img = ImageCoefficients([2.0], [])
    with pytest.raises(SingularPointError):
        dtheta_arg_f(img, EvalPoint(0.5, math.pi))
    rep = sweep(img, SampleGrid((0.5,), 8), "dtheta_arg_f", 0.0)
    singular = [v for v in rep.violations if v.kind == "singular"]
    assert len(singular) == 1 and singular[0].point.theta == pytest.approx(math.pi)
    assert rep.min_value == -math.inf and rep.argmin.theta == pytest.approx(math.pi)


@pytest.mark.parametrize("radius", [1e-14, 1e-300])
def test_small_radii_are_not_singular(radius):
    # On |z| = r the denominators of f = z are r and r: small, but not zeros of f.
    for quantity in ("dtheta_arg_f", "dtheta_arg_ftheta"):
        rep = sweep(identity_image(), SampleGrid((radius,), 64), quantity, 1 - 1e-9)
        assert rep.clean and rep.min_value == pytest.approx(1, abs=1e-15), quantity
        assert getattr(wrightmaps, quantity)(identity_image(), EvalPoint(radius, 0.3)) == pytest.approx(1)
        with pytest.raises(SingularPointError):  # at the origin itself both sums vanish
            getattr(wrightmaps, quantity)(identity_image(), EvalPoint(0.0, 0.3))


def test_a_zero_of_f_is_still_singular():
    # f = z + 1.875 z^2 vanishes at z = -1/1.875, a grid point of r = 0.5333333333333333.
    img = ImageCoefficients([1.875], [])
    pt = EvalPoint(0.5333333333333333, math.pi)
    rep = sweep(img, SampleGrid((pt.r,), 64), "dtheta_arg_f", 0.0)
    assert [(v.point.theta, v.kind) for v in rep.violations] == [(math.pi, "singular")]
    with pytest.raises(SingularPointError):
        dtheta_arg_f(img, pt)


def test_rotation_covariance():
    # Rigid disk rotation: A_n -> A_n e^{i(n-1)phi}, B_n -> B_n e^{i(n+1)phi};
    # sweep values are relabeled angles, so their sorted samples coincide.
    rng = np.random.default_rng(31)
    img = random_safe_image(rng, n=6)
    count = 128
    grid = SampleGrid((0.4, 0.8), count)
    k = 37
    phi = 2 * math.pi * k / count
    n_a = np.arange(2, 2 + img.ha.size)
    n_b = np.arange(1, 1 + img.gb.size)
    rotated = ImageCoefficients(
        img.ha * np.exp(1j * (n_a - 1) * phi), img.gb * np.exp(1j * (n_b + 1) * phi)
    )
    for quantity in ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin"):
        # threshold +inf records every sample as a "violation": a value harvest.
        base = sweep(img, grid, quantity, np.inf)
        rot = sweep(rotated, grid, quantity, np.inf)
        base_vals = np.sort([v.value for v in base.violations])
        rot_vals = np.sort([v.value for v in rot.violations])
        assert np.allclose(base_vals, rot_vals, rtol=0, atol=1e-10)
        assert rot.min_value == pytest.approx(base.min_value, abs=1e-10)


def test_sweep_records_non_finite_values():
    # Finite coefficients whose circle values overflow, and a NaN coefficient:
    # neither may read as a clean sweep.
    for img in (ImageCoefficients([1e308, 1e308]), ImageCoefficients([np.nan])):
        with np.errstate(all="ignore"):
            rep = sweep(img, SampleGrid((0.5,), 64), "dtheta_arg_f", 0.0)
        assert not rep.clean
        assert rep.min_value == -math.inf
        assert {v.kind for v in rep.violations} <= {"nonfinite", "singular"}
        assert any(v.kind == "nonfinite" for v in rep.violations)



def direct_sum(c, z):
    """sum_k c_k z^k by explicit powers: the reference for the FFT circle evaluation."""
    return (z[..., None] ** np.arange(len(c))) @ c


def weighted_size(img, r, power):
    """sum_k k^power (|h_k| + |g_k|) r^k: the scale of the rounding error of a circle sum."""
    return sum(direct_sum(np.arange(c.size) ** power * np.abs(c), r) for c in (img.h, img.g))


def reference_quantity(img, z, quantity):
    """(value, rounding scale) of an oracle quantity from direct sums of H, S and derivatives."""
    r = np.abs(z)
    k_h, k_g = np.arange(img.h.size), np.arange(img.g.size)
    h, s = direct_sum(img.h, z), direct_sum(img.g, z)
    zhp, zsp = direct_sum(k_h * img.h, z), direct_sum(k_g * img.g, z)  # z H', z S'
    z2hpp, z2spp = direct_sum(k_h * (k_h - 1) * img.h, z), direct_sum(k_g * (k_g - 1) * img.g, z)
    if quantity == "jacobian_margin":
        return np.abs(zhp / z) - np.abs(zsp / z), weighted_size(img, r, 1) / r
    if quantity == "dtheta_arg_f":
        den = h + np.conj(s)
        value = np.real((zhp - np.conj(zsp)) / den)
        return value, (weighted_size(img, r, 1) + np.abs(value) * weighted_size(img, r, 0)) / np.abs(den)
    f_th = 1j * (zhp - np.conj(zsp))
    f_thth = -(zhp + z2hpp + np.conj(zsp + z2spp))
    value = np.imag(f_thth / f_th)
    return value, (weighted_size(img, r, 2) + np.abs(value) * weighted_size(img, r, 1)) / np.abs(f_th)


def grid_points(grid):
    thetas = 2 * np.pi * np.arange(grid.theta_count) / grid.theta_count
    return np.array(grid.radii)[:, None] * np.exp(1j * thetas)


@pytest.mark.parametrize("degree", [40, 64, 200])  # below, at and above theta_count
def test_circle_values_match_direct_sum(degree):
    rng = np.random.default_rng(degree)
    grid = SampleGrid((0.3, 0.9, 0.99), 64)
    r = np.array(grid.radii)[:, None]
    z = grid_points(grid)
    for len_a, len_b in ((degree + 1, degree + 1), (degree + 1, 3), (2, degree + 1), (0, degree + 1)):
        a = rng.standard_normal(len_a) + 1j * rng.standard_normal(len_a)
        b = rng.standard_normal(len_b) + 1j * rng.standard_normal(len_b)
        got = grid.circle_values(a, b)
        ref = direct_sum(a, z) + np.conj(direct_sum(b, z))
        size = direct_sum(np.abs(a), r) + direct_sum(np.abs(b), r)
        assert np.all(np.abs(got - ref) <= 1e-12 * size)


@pytest.mark.parametrize("degree", [40, 64, 200])
def test_sweep_values_match_direct_sums(degree):
    rng = np.random.default_rng(100 + degree)
    img = random_safe_image(rng, n=degree - 1)
    grid = SampleGrid((0.3, 0.9, 0.99), 64)
    z = grid_points(grid)
    for quantity in ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin"):
        rep = sweep(img, grid, quantity, np.inf)  # every sample is a "violation": a value harvest
        got = np.array([v.value for v in rep.violations]).reshape(z.shape)
        ref, scale = reference_quantity(img, z, quantity)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), quantity
        # The scalar wrappers share the quantity formula, summed at the one point.
        value = getattr(wrightmaps, quantity)(img, rep.violations[77].point)
        assert abs(value - ref.flat[77]) <= 1e-12 * scale.flat[77]


def test_sweep_violations_match_direct_sums():
    # Unit-disk coefficients up to degree 100 on 64 angles: the FFT folds, and
    # about half of the samples fall below each threshold (the median value).
    rng = np.random.default_rng(7)
    img = ImageCoefficients(*(0.3 * np.exp(2j * np.pi * rng.random(size)) for size in (99, 100)))
    grid = SampleGrid((0.5, 0.9, 0.99), 64)
    z = grid_points(grid)
    for quantity in ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin"):
        ref, scale = reference_quantity(img, z, quantity)
        threshold = float(np.median(ref))
        assert np.all(np.abs(ref - threshold) > 1e-12 * scale)  # no site is a rounding tie
        rep = sweep(img, grid, quantity, threshold)
        sites = [(grid.radii[i], 2 * np.pi * j / grid.theta_count) for i, j in np.argwhere(ref < threshold)]
        assert [(v.point.r, v.point.theta) for v in rep.violations] == sites
        assert {v.kind for v in rep.violations} == {"value"}
        i, j = np.unravel_index(np.argmin(ref), ref.shape)
        assert (rep.argmin.r, rep.argmin.theta) == (grid.radii[i], 2 * np.pi * j / grid.theta_count)


# ---------------------- bit-for-bit reference of the sweep ----------------------


def reference_circle_values(grid, a, b):
    """One series pair per call, the whole radii x series-length spectrum built, the
    zero tails cut with np.trim_zeros and the blocks folded by a reshape-sum: the
    circle evaluation the stacked, block-wise one must match bit for bit."""
    a = np.trim_zeros(a, "b") if len(a) and a[-1] == 0 else a
    b = np.trim_zeros(b, "b") if len(b) and b[-1] == 0 else b
    n, r = grid.theta_count, np.array(grid.radii)[:, None]
    size = n * max(1, -(-max(len(a), len(b)) // n))
    k = np.arange(max(len(a), len(b)))
    spectrum = np.zeros((r.size, size), dtype=complex)
    spectrum[:, : len(a)] = a * r ** k[: len(a)]
    spectrum[:, -k[: len(b)] % size] += np.conj(b) * r ** k[: len(b)]
    folded = spectrum.reshape(r.size, -1, n).sum(axis=1)
    return np.fft.ifft(folded, axis=1, norm="forward", out=folded)


def reference_quantity_values(img, quantity, values, radii):
    """The quantities from two circle evaluations each, one per series pair."""
    h, g = img.h, img.g
    kh, kg = np.arange(h.size) * h, np.arange(g.size) * g
    r = np.array(radii)[:, None]

    def ratio(num, a, b):
        # A zero denominator: at or below SINGULAR_EPS times its series' sum of |coefficient| r^k.
        scale = (np.abs(a) * r ** np.arange(a.size)).sum(axis=1) + (np.abs(b) * r ** np.arange(b.size)).sum(axis=1)
        den = values(a, b)
        singular = np.abs(den) <= wrightmaps.oracle.SINGULAR_EPS * scale[:, None]
        return num / np.where(singular, 1.0, den), singular

    if quantity == "jacobian_margin":
        margin = np.abs(values(derivative(h), ())) - np.abs(values(derivative(g), ()))
        return margin, np.zeros(np.shape(margin), dtype=bool)
    if quantity == "dtheta_arg_f":
        value, singular = ratio(values(kh, -kg), h, g)
        return np.real(value), singular
    k2h, k2g = np.arange(h.size) * kh, np.arange(g.size) * kg
    value, singular = ratio(values(k2h, k2g), kh, -kg)
    return np.real(value), singular


def reference_sweep_bits(img, grid, quantity, threshold):
    """(min, argmin, violations) of the reference sweep, every float as its hex digits."""
    values = lambda a, b: reference_circle_values(grid, a, b)  # noqa: E731
    vals, singular = reference_quantity_values(img, quantity, values, grid.radii)
    finite = np.isfinite(vals)
    vals = np.where(singular | ~finite, -np.inf, vals)
    thetas = grid.thetas()
    violations = [
        (grid.radii[i].hex(), float(thetas[j]).hex(), float(vals[i, j]).hex(),
         "singular" if singular[i, j] else "value" if finite[i, j] else "nonfinite")
        for i, j in np.argwhere(vals < threshold)
    ]
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[i, j]).hex(), (grid.radii[i].hex(), float(thetas[j]).hex()), violations


def sweep_bits(rep):
    violations = [(v.point.r.hex(), v.point.theta.hex(), v.value.hex(), v.kind) for v in rep.violations]
    return rep.min_value.hex(), (rep.argmin.r.hex(), rep.argmin.theta.hex()), violations


def disk_image(rng, len_a, len_b, scale=1.0, zero_tail=(0, 0)):
    """Coefficients from the disk of radius `scale`, each part ending in zero_tail exact zeros."""
    parts = []
    for size, zeros in zip((len_a, len_b), zero_tail):
        c = scale * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
        parts.append(np.concatenate([c, np.zeros(zeros, dtype=complex)]))
    return ImageCoefficients(*parts)


def bit_cases():
    rng = np.random.default_rng(2024)
    spec = ConvolutionSpec(WrightParams(2, 1, 2, 1), WrightParams(1.5, 1, 2, 1), 0.3 + 0.2j)
    benchmark = SampleGrid((0.5, 0.9, 0.99), 4096)
    for _ in range(3):  # the images verify sweeps: nmax 50, convolved
        yield convolve(random_coefficients(rng, 50), spec), benchmark
    yield disk_image(rng, 49, 50), benchmark  # unconvolved: large values, many violations
    yield disk_image(rng, 199, 200, 0.3), SampleGrid((0.3, 0.9, 0.99), 64)  # folds
    yield disk_image(rng, 4999, 5000, 0.05), SampleGrid((0.5, 0.9), 1024)
    yield disk_image(rng, 2999, 3000, 0.05), SampleGrid((0.5, 0.99), 256)
    yield disk_image(rng, 2999, 3000), SampleGrid((0.1, 0.5), 256)  # r^k underflows to 0
    # Zero tails, of different lengths in the two parts and across a fold.
    yield disk_image(rng, 30, 10, 0.2, zero_tail=(5, 100)), SampleGrid((0.5, 0.9), 64)
    yield disk_image(rng, 300, 20, 0.05, zero_tail=(1, 400)), SampleGrid((0.5, 0.9), 128)
    yield ImageCoefficients(np.zeros(3), np.zeros(70)), SampleGrid((0.5,), 64)
    yield ImageCoefficients([2.0], []), SampleGrid((0.5,), 8)  # a singular point
    yield ImageCoefficients([1e308, 1e308]), SampleGrid((0.5,), 64)  # overflows
    yield ImageCoefficients([np.nan]), SampleGrid((0.5,), 64)


@pytest.mark.parametrize("case", range(len(list(bit_cases()))))
def test_sweep_matches_reference_bit_for_bit(case):
    img, grid = list(bit_cases())[case]
    with np.errstate(all="ignore"):
        for a, b in ((img.h, img.g), (img.ha, img.gb), (img.h, ()), ((), img.g)):
            assert grid.circle_values(a, b).tobytes() == reference_circle_values(grid, a, b).tobytes()
        for quantity in ("dtheta_arg_f", "dtheta_arg_ftheta", "jacobian_margin"):
            # inf harvests every value as a violation; the median puts half of them below.
            harvest = sorted(float.fromhex(v[2]) for v in reference_sweep_bits(img, grid, quantity, np.inf)[2])
            for threshold in (np.inf, 0.0, harvest[len(harvest) // 2], -np.inf):
                expected = reference_sweep_bits(img, grid, quantity, threshold)
                assert sweep_bits(sweep(img, grid, quantity, threshold)) == expected, (quantity, threshold)


def long_dead_tail_cases():
    """Series whose blocks past the first are mostly beyond the radii's zero powers,
    with signed zeros, infinities and a NaN among those coefficients."""
    rng = np.random.default_rng(77)
    img = disk_image(rng, 3999, 4000, 0.2)
    h, g = img.h.copy(), img.g.copy()
    h[2500:2600], g[3000:3100] = -0.0, complex(-0.0, 0.0)
    h[3001], g[2001], h[3500] = np.inf, complex(-np.inf, 1.0), np.nan
    yield img, SampleGrid((0.1, 0.5), 64)
    yield ImageCoefficients(h[2:], g[1:]), SampleGrid((0.1, 0.5), 64)
    yield ImageCoefficients(-img.ha, img.gb[:7]), SampleGrid((0.1, 0.3, 0.5), 32)


@pytest.mark.parametrize("fold_values", [1, 200, 5000])
def test_folding_several_blocks_per_step_matches_reference_bit_for_bit(monkeypatch, fold_values):
    # Few values per step force several steps, each of one or more blocks.
    monkeypatch.setattr(wrightmaps.oracle, "_FOLD_VALUES", fold_values)
    with np.errstate(all="ignore"):
        for img, grid in [*bit_cases(), *long_dead_tail_cases()]:
            for a, b in ((img.h, img.g), (img.ha, img.gb), (img.h, ()), ((), img.g)):
                assert grid.circle_values(a, b).tobytes() == reference_circle_values(grid, a, b).tobytes()
            stacked = grid.circle_values(np.array([img.h, 2 * img.h]), np.array([img.g, -img.g]))
            assert stacked[0].tobytes() == reference_circle_values(grid, img.h, img.g).tobytes()
            assert stacked[1].tobytes() == reference_circle_values(grid, 2 * img.h, -img.g).tobytes()


def test_sweep_limit_keeps_the_first_violations():
    img, grid = list(bit_cases())[3]  # unconvolved: many violations of every kind
    with np.errstate(all="ignore"):
        for quantity in QUANTITIES:
            full = sweep(img, grid, quantity, np.inf)
            assert len(full.violations) == 3 * 4096
            for limit in (1, 2, 5000, 10**6):
                rep = sweep(img, grid, quantity, np.inf, limit=limit)
                assert rep.violations == full.violations[:limit]
                assert (rep.min_value, rep.argmin, rep.clean) == (full.min_value, full.argmin, False)
            assert sweep(img, grid, quantity, -np.inf, limit=1).clean
    for limit in (0, 2.5, np.nan):
        with pytest.raises(DomainError):
            sweep(img, grid, "dtheta_arg_f", 0.0, limit=limit)

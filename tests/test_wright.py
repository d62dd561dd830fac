"""Series evaluation: frozen values, reductions, index-shift identities."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wrightmaps
from wrightmaps import (
    DEFAULT_CONTROL,
    ConvergenceError,
    DomainError,
    SeriesControl,
    WrightParams,
    derivs_at_one,
    norm_coeff,
    norm_coeffs,
    normalized_eval,
    wright_eval,
)
from wrightmaps.wright import _terms, derivs_table

# Frozen from a 50-digit direct series evaluation done ahead of the build.
I0_AT_2 = 2.2795853023360673  # sum 1/(n!)^2
I0_PLUS_I1_AT_2 = 3.870222156973396  # sum (n+1)/(n!)^2
NORMALIZED_2121_AT_1 = 1.2795853023360673  # sum_{n>=1} 1/(n!)^2 = I0(2) - 1

P1111 = WrightParams(1, 1, 1, 1)

params_st = st.builds(
    WrightParams,
    st.floats(0.5, 5.0),
    st.floats(0.25, 5.0),
    st.floats(0.5, 5.0),
    st.floats(0.25, 5.0),
)


def brute_force_base_series(p, z, terms=60):
    """Direct accumulation with math.lgamma; independent of the library path."""
    total = 0j
    for n in range(terms):
        total += z**n * math.exp(
            -math.lgamma(p.alpha + n * p.beta) - math.lgamma(p.gamma + n * p.delta)
        )
    return total


def shifted_sum(p, weight):
    """sum_n weight(n) * Gamma(a)Gamma(g) / (Gamma(a+n b) Gamma(g+n d)), n >= 0."""
    la, lg = math.lgamma(p.alpha), math.lgamma(p.gamma)
    total = 0.0
    for n in range(3000):
        c = math.exp(la + lg - math.lgamma(p.alpha + n * p.beta) - math.lgamma(p.gamma + n * p.delta))
        total += weight(n) * c
        if n >= 2 and (n + 2) ** 3 * c < 1e-17 * max(total, 1.0):
            return total
    raise AssertionError(f"shifted-sum oracle did not converge for {p}")


def test_params_validation():
    with pytest.raises(DomainError):
        WrightParams(0, 1, 1, 1)
    with pytest.raises(DomainError):
        WrightParams(1, 1, -0.5, 1)
    with pytest.raises(DomainError):
        WrightParams(1, -1, 1, 1)
    with pytest.raises(DomainError):
        WrightParams(1, 0, 1, 0)  # beta + delta must be positive
    WrightParams(1, 0, 1, 0.5)  # beta may vanish alone


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(max_terms=1)
    with pytest.raises(DomainError):
        SeriesControl(tail_tol=0.0)


def test_norm_coeff_examples():
    assert norm_coeff(P1111, 1) == 1.0
    assert norm_coeff(P1111, 3) == pytest.approx(0.25, abs=1e-15)
    assert norm_coeff(WrightParams(2, 1, 2, 0), 2) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        norm_coeff(P1111, 0)


def test_norm_coeffs_is_a_zero_padded_array():
    # c_n of (2,1,2,1) is 1/(n!)^2 up to a constant and underflows near n = 100.
    p = WrightParams(2, 1, 2, 1)
    coeffs = norm_coeffs(p, 400)
    terms = list(itertools.islice(_terms(p, 1.0, ctrl=SeriesControl(400, math.ulp(0.0))), 400))
    assert isinstance(coeffs, np.ndarray) and coeffs.dtype == float and coeffs.shape == (400,)
    assert 50 < len(terms) < 400
    assert coeffs[: len(terms)].tolist() == terms
    assert coeffs[:20] == pytest.approx([1 / math.factorial(n) ** 2 for n in range(1, 21)], rel=1e-13)
    assert not coeffs[len(terms):].any()


def test_norm_coeff_positive():
    p = WrightParams(0.7, 2.3, 1.9, 0.4)
    for n in range(1, 40):
        assert norm_coeff(p, n) > 0


def test_wright_eval_at_zero():
    assert wright_eval(P1111, 0) == 1.0
    assert wright_eval(WrightParams(2, 1, 2, 1), 0) == pytest.approx(1.0, abs=1e-15)


def test_wright_eval_special_value():
    brute = sum(1 / math.factorial(n) ** 2 for n in range(30))
    assert brute == pytest.approx(I0_AT_2, abs=1e-13)
    assert wright_eval(P1111, 1) == pytest.approx(I0_AT_2, abs=1e-12)


def test_wright_eval_matches_brute_force_complex():
    p = WrightParams(1.4, 0.8, 2.2, 1.6)
    for z in (0.3 + 0.7j, -1.5 + 0.2j, 2j, -2.0):
        assert wright_eval(p, z) == pytest.approx(brute_force_base_series(p, z), abs=1e-12)


def test_classical_reduction():
    # gamma = delta = 1 collapses the second gamma factor to n!.
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = rng.uniform(0.5, 5), rng.uniform(0.25, 5)
        z = complex(*rng.uniform(-1.4, 1.4, 2))
        direct = sum(
            z**n * math.exp(-math.lgamma(a + n * b) - math.lgamma(n + 1)) for n in range(80)
        )
        assert wright_eval(WrightParams(a, b, 1, 1), z) == pytest.approx(direct, abs=1e-12)


def test_normalized_examples():
    assert normalized_eval(P1111, 0) == 0
    assert normalized_eval(WrightParams(3.3, 1.1, 0.7, 2.0), 0) == 0
    assert normalized_eval(P1111, 1) == pytest.approx(I0_AT_2, abs=1e-10)
    assert normalized_eval(WrightParams(2, 1, 2, 1), 1) == pytest.approx(
        NORMALIZED_2121_AT_1, abs=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(params_st, st.floats(0.05, 1.9), st.floats(0, 2 * math.pi))
@example(WrightParams(3.5, 0.5, 5.0, 0.5), 1.0, 0.0)
def test_normalized_scaling_property(p, r, phi):
    # Both series are certified to an absolute tail_tol, which the factor
    # z Gamma(alpha) Gamma(gamma) scales for wright_eval; rounding adds a few ulp
    # of the sum of the term magnitudes, which is each series at |z|.
    z = r * complex(math.cos(phi), math.sin(phi))
    scale = z * math.exp(math.lgamma(p.alpha) + math.lgamma(p.gamma))
    lhs = normalized_eval(p, z)
    rhs = scale * wright_eval(p, z)
    magnitude = normalized_eval(p, r).real + abs(scale) * wright_eval(p, r).real
    bound = (abs(scale) + 1) * DEFAULT_CONTROL.tail_tol + 8 * sys.float_info.epsilon * magnitude
    assert abs(lhs - rhs) <= bound


def test_derivs_special_values():
    d = derivs_at_one(P1111)
    assert d.w1 == pytest.approx(I0_AT_2, abs=1e-10)
    assert d.wp1 == pytest.approx(I0_PLUS_I1_AT_2, abs=1e-10)


def test_derivs_large_beta_delta():
    d = derivs_at_one(WrightParams(1, 50, 1, 50))
    assert 0 <= d.w1 - 1 < 1e-10
    assert 0 <= d.wp1 - 1 < 1e-10


def test_derivs_fields_nonnegative_and_leading_one():
    for p in (P1111, WrightParams(0.6, 0.5, 4.0, 0.25), WrightParams(2.5, 3.0, 1.1, 0)):
        d = derivs_at_one(p)
        assert d.w1 >= 1 and d.wp1 >= 1
        assert d.wpp1 >= 0 and d.wppp1 >= 0


def test_index_shift_identities_fixed_params():
    # The (n+1)-weighted sum starts at n = 1; the others kill n = 0 on their own.
    for p in (P1111, WrightParams(1.7, 0.9, 2.3, 1.1), WrightParams(0.6, 2.2, 3.0, 0.3)):
        d = derivs_at_one(p)
        assert shifted_sum(p, lambda n: n * (n + 1)) == pytest.approx(d.wpp1, rel=1e-10)
        assert shifted_sum(p, lambda n: n + 1 if n >= 1 else 0) == pytest.approx(
            d.wp1 - 1, rel=1e-10
        )
        assert shifted_sum(p, lambda n: 1) == pytest.approx(d.w1, rel=1e-10)
        assert shifted_sum(p, lambda n: n * (n + 1) * (n - 1)) == pytest.approx(
            d.wppp1, rel=1e-10, abs=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(params_st)
def test_index_shift_identities_random_params(p):
    d = derivs_at_one(p)
    assert shifted_sum(p, lambda n: n * (n + 1)) == pytest.approx(d.wpp1, rel=1e-10)
    assert shifted_sum(p, lambda n: n + 1 if n >= 1 else 0) == pytest.approx(d.wp1 - 1, rel=1e-10)
    assert shifted_sum(p, lambda n: 1) == pytest.approx(d.w1, rel=1e-10)


def test_partial_sums_monotone():
    # Positive terms: truncations of the derivative sums only ever grow.
    p = WrightParams(1.2, 0.4, 0.9, 0.7)
    running = 0.0
    for n in range(1, 60):
        new = running + n * norm_coeff(p, n)
        assert new >= running
        running = new
    assert running <= derivs_at_one(p).wp1 + 1e-12


def test_nonconvergence_error():
    tiny = SeriesControl(max_terms=2)
    with pytest.raises(ConvergenceError):
        wright_eval(P1111, 1, tiny)
    with pytest.raises(ConvergenceError):
        derivs_at_one(P1111, tiny)


@pytest.mark.parametrize(
    "call",
    [
        lambda: wright_eval(WrightParams(1, 0.5, 1, 0.5), 600),  # a term passes the float range
        lambda: wright_eval(P1111, 1e300),
        lambda: normalized_eval(P1111, -1e300j),
        lambda: wright_eval(WrightParams(1, 1e307, 1, 1), 0.5),  # log Gamma overflows
        lambda: derivs_at_one(WrightParams(1e-320, 1, 1, 1)),  # Gamma(alpha) ~ 1e320
        lambda: derivs_at_one(WrightParams(1e-308, 1, 1, 1)),  # terms fit, their sums do not
        lambda: normalized_eval(WrightParams(1e-308, 1, 1, 1), 1.1),
    ],
)
def test_overflow_raises_convergence_error(call):
    with pytest.raises(ConvergenceError, match="overflow"):
        call()


# Kernel halves (start, step) near the kernel's edges: log Gamma switching from
# log(gamma) to lgamma at 12, Gamma(alpha) past the float range, a log-gamma
# argument past the overflow flag, and steps too slow for small budgets.
_HALF_STARTS = [1e-320, 1e-308, 0.02, 0.3, 11.9, 12.0, 12.1, 1e3, 1e306]
_HALF_STEPS = [0.0, 0.05, 0.2, 0.5, 1.0, 3.0, 50.0]


@st.composite
def _kernels_sharing_halves(draw):
    """(alpha, beta, gamma, delta) rows whose halves come from a pool of at most four."""
    halves = st.tuples(st.sampled_from(_HALF_STARTS), st.sampled_from(_HALF_STEPS))
    pool = draw(st.lists(halves, min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=8))
    return [[*first, *second] for first, second in pairs if first[1] + second[1] > 0]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_kernels_sharing_halves(), st.sampled_from([2, 60, 2000]), st.sampled_from([1e-14, 1e-6]))
def test_derivs_table_matches_derivs_at_one_bit_for_bit(rows, max_terms, tail_tol):
    ctrl = SeriesControl(max_terms, tail_tol)
    table = derivs_table(rows, ctrl)
    assert table.shape == (len(rows), 4)
    for row, got in zip(rows, table):
        try:
            d = derivs_at_one(WrightParams(*row), ctrl)
        except ConvergenceError:
            assert np.isnan(got).all(), row  # flagged wherever the scalar call raises
            continue
        assert got.tobytes() == np.array([d.w1, d.wp1, d.wpp1, d.wppp1]).tobytes(), row


def test_derivs_table_flags_an_exp_argument_from_709():
    # log Gamma(alpha) is near 2^63, so log(Gamma(alpha) Gamma(gamma)) rounds up by
    # 2048 and the first term's exp argument is 2048 - log Gamma(gamma) = 709.07.
    p = WrightParams(3.5e17, 1, 287.63, 1)
    d = derivs_at_one(p)
    assert 709 < math.log(d.w1) < 709.78
    table = derivs_table([[3.5e17, 1, 287.63, 1], [2, 1, 2, 1]])
    assert np.isnan(table[0]).all() and not np.isnan(table[1]).any()


def test_deterministic():
    p = WrightParams(1.3, 0.7, 2.2, 1.9)
    assert wright_eval(p, 0.4 + 0.9j) == wright_eval(p, 0.4 + 0.9j)
    assert derivs_at_one(p) == derivs_at_one(p)


# The public names of `import wrightmaps`, by the module that defines them, in __all__'s order.
PUBLIC_NAMES = {
    "errors": ["ConvergenceError", "DomainError", "SingularPointError"],
    "wright": ["DEFAULT_CONTROL", "DerivativeValues", "SeriesControl", "WrightParams", "derivs_at_one",
               "norm_coeff", "norm_coeffs", "normalized_eval", "wright_eval"],
    "mappings": ["CoefficientSeq", "ConvolutionSpec", "EvalPoint", "ImageCoefficients", "convolve",
                 "eval_derivs", "eval_map", "identity_image", "random_coefficients"],
    "criteria": ["CriterionReport", "FORM_DERIVED", "FORM_EXACT", "FORM_STATED", "THEOREM_IDS",
                 "class_bound_coeffs", "close_to_convex_bound", "close_to_convex_lhs", "close_to_convex_probe",
                 "default_epsilons", "exact_image_criterion", "hypothesis_columns", "lemma1_sum", "lemma2_sum",
                 "lemma5_sum", "lemma6_membership", "stated_hypothesis"],
    "oracle": ["OracleReport", "SampleGrid", "Violation", "dtheta_arg_f", "dtheta_arg_ftheta",
               "jacobian_margin", "sweep"],
}


def test_public_names_are_the_modules_own():
    assert wrightmaps.__all__ == [*itertools.chain(*PUBLIC_NAMES.values()), "__version__"]
    for module, names in PUBLIC_NAMES.items():
        for name in names:
            assert getattr(wrightmaps, name) is getattr(getattr(wrightmaps, module), name), name
    assert wrightmaps.mappings.ConvolutionSpec is wrightmaps.wright.ConvolutionSpec
    namespace = {}
    exec("from wrightmaps import *", namespace)
    assert set(wrightmaps.__all__) <= set(namespace) and set(wrightmaps.__all__) <= set(dir(wrightmaps))
    with pytest.raises(AttributeError, match="no_such_name"):
        wrightmaps.no_such_name


def test_import_does_not_load_scipy():
    code = "import sys, wrightmaps.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_import_does_not_load_numpy_polynomial():
    code = "import sys, wrightmaps.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_point_commands_load_no_numpy(tmp_path):
    # eval, derivs and check run on the standard library alone: a fresh process
    # running them imports neither numpy nor scipy.
    config = tmp_path / "t54.cfg"
    config.write_text("p1 = 2,1,2,1\nsigma = 0.1,0.2\nb1 = 0.3\n", encoding="utf-8")
    code = (
        "import contextlib, io, sys, wrightmaps.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [wrightmaps.cli.main(argv.split()) for argv in sys.argv[1:]]\n"
        "print(codes, sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    commands = [
        "eval --p 1.3,0.7,2.2,1.9 --z 0.4,0.9",
        "derivs --p 2,1,2,1",
        "check T3.1 --p1 2,1,2,1",
        f"check T5.4 --config {config} --show-config",  # its gate fails
    ]
    out = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[0, 0, 0, 1] []\n", "")


def test_commands_do_not_load_numpy_ma(tmp_path):
    # np.unique without a return_* flag, or along an axis, imports numpy.ma, a module
    # these commands otherwise never load, and its import adds to their peak memory.
    code = (
        "import contextlib, io, sys, wrightmaps.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [wrightmaps.cli.main(argv.split()) for argv in sys.argv[1:]]\n"
        "print(codes, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    commands = [
        f"scan T3.1 --axis alpha1=0.5:2:0.5 --axis beta1=0.5:1:0.5 --out {tmp_path / 'scan.csv'}",
        "verify T3.1 --p1 2,1,2,1 --count 2 --theta-count 256",
        f"render --f random --p1 2,1,2,1 --out {tmp_path / 'render.svg'}",
    ]
    out = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[0, 0, 0] False False\n", "")


def test_series_match_mpmath_at_small_alpha_gamma():
    # Gamma(alpha)Gamma(gamma) reaches 2500 here, so the tolerance must hold for
    # the normalized terms themselves, not only for the base series they scale.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    tol = 1e-6
    ctrl = SeriesControl(tail_tol=tol)
    tiny = mpmath.mpf(10) ** -35
    for p in (
        WrightParams(0.3, 0.5, 0.2, 0.25),
        WrightParams(0.05, 1.0, 0.1, 0.3),
        WrightParams(0.02, 0.3, 0.02, 0.4),
    ):
        a, b, g, d = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.gamma, p.delta))
        scale = mpmath.gamma(a) * mpmath.gamma(g)
        for z in (0.9, 0.99, -0.7 + 0.5j, 0.3j):
            zm, base, n = mpmath.mpc(z), mpmath.mpf(0), 0
            while True:
                term = zm**n * mpmath.rgamma(a + n * b) * mpmath.rgamma(g + n * d)
                base += term
                n += 1
                if n > 5 and abs(term) < tiny:
                    break
            assert abs(wright_eval(p, z, ctrl) - complex(base)) <= tol
            assert abs(normalized_eval(p, z, ctrl) - complex(zm * scale * base)) <= tol
        sums, n = [mpmath.mpf(0)] * 4, 1
        while True:
            c = scale * mpmath.rgamma(a + (n - 1) * b) * mpmath.rgamma(g + (n - 1) * d)
            for j, w in enumerate((1, n, n * (n - 1), n * (n - 1) * (n - 2))):
                sums[j] += w * c
            n += 1
            if n > 5 and n**3 * c < tiny:
                break
        got = derivs_at_one(p, ctrl)
        for ref, value in zip(sums, (got.w1, got.wp1, got.wpp1, got.wppp1)):
            assert abs(value - float(ref)) <= tol

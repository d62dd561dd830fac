"""Command-line contract: output formats, config handling, exit codes."""

import contextlib
import hashlib
import io
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wrightmaps.cli
import wrightmaps.criteria
import wrightmaps.mappings
import wrightmaps.oracle
from wrightmaps import THEOREM_IDS, ConvolutionSpec, WrightParams, identity_image, stated_hypothesis
from wrightmaps.cli import (
    _CMD_DEFAULTS,
    _GLOBAL_DEFAULTS,
    _THEOREM_COMMANDS,
    _build_parser,
    _csv_num,
    _parse_axis,
    curves_to_svg,
    main,
    read_coeff_csv,
    sample_boundary_curves,
    write_coeff_csv,
)
from wrightmaps.errors import DomainError
from wrightmaps.mappings import CoefficientSeq


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wrightmaps", *args], capture_output=True, text=True
    )


def test_eval_special_value():
    out = run_cli("eval", "--p", "1,1,1,1", "--z", "1,0")
    assert out.returncode == 0
    assert "wright = 2.279585302336067,0" in out.stdout
    assert "normalized = 2.279585302336067,0" in out.stdout


def test_eval_zero():
    out = run_cli("eval", "--p", "1,1,1,1", "--z", "0,0")
    assert out.returncode == 0
    assert "wright = 1,0" in out.stdout
    assert "normalized = 0,0" in out.stdout


def test_eval_domain_error_names_constraint():
    out = run_cli("eval", "--p", "1,0,1,0", "--z", "1,0")
    assert out.returncode == 2
    assert "beta + delta" in out.stderr


def test_eval_nonconvergence_exit_code():
    out = run_cli("eval", "--p", "1,1,1,1", "--z", "1,0", "--ctrl-max-terms", "2")
    assert out.returncode == 3


def test_derivs_output():
    out = run_cli("derivs", "--p", "1,1,1,1")
    assert out.returncode == 0
    assert "w1 = 2.279585302336067" in out.stdout
    assert "wp1 = 3.870222156973396" in out.stdout


def test_check_exit_codes_and_gate():
    assert run_cli("check", "T3.1", "--p1", "2,1,2,1", "--sigma", "0", "--order", "0").returncode == 0
    out = run_cli("check", "T3.2", "--p1", "1,1,1,1", "--sigma", "0")
    assert out.returncode == 1
    assert "satisfied=false" in out.stdout
    # A point where the recomputed bound passes but the quoted one cannot.
    assert run_cli("check", "T4.1", "--p1", "1,3,1,3", "--sigma", "0").returncode == 0
    assert run_cli("check", "T4.1", "--p1", "1,3,1,3", "--sigma", "0", "--gate", "stated").returncode == 1


def test_check_bad_gate():
    assert run_cli("check", "T3.1", "--p1", "2,1,2,1", "--gate", "nope").returncode == 2


def test_scan_single_point_matches_check(tmp_path):
    out_csv = tmp_path / "point.csv"
    run = run_cli(
        "scan", "T3.1",
        "--axis", "sigma=0:0:0.5",
        "--fix", "alpha1=2", "--fix", "gamma1=2", "--fix", "alpha2=2", "--fix", "gamma2=2",
        "--out", str(out_csv),
    )
    assert run.returncode == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("theorem,alpha1,beta1,")
    row = lines[1].split(",")
    check = run_cli("check", "T3.1", "--p1", "2,1,2,1", "--sigma", "0")
    lhs_from_check = float(check.stdout.split("lhs=")[1].split()[0])
    lhs_derived = float(row[lines[0].split(",").index("lhs_derived")])
    assert lhs_derived == pytest.approx(lhs_from_check, rel=1e-12)


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        # Row 0's kernel fails before row 1's sigma is reached.
        (["--axis", "sigma=0.5:1.0:0.5", "--ctrl-max-terms", "2"], 3,
         "error: series tail not below 1e-14 within 2 terms for "
         "WrightParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0), r=1.0\n"),
        (["--axis", "sigma=0.5:1.0:0.5"], 2, "error: |sigma| must be < 1, got 1.0\n"),
        (["--axis", "order=0:1:0.5", "--fix", "alpha1=0"], 2,
         "error: alpha and gamma must be > 0, got alpha=0.0, gamma=1.0\n"),
    ],
)
def test_scan_fails_on_first_faulty_row(tmp_path, argv, code, stderr):
    out_csv = tmp_path / "x.csv"
    out = run_cli("scan", "T3.1", *argv, "--out", str(out_csv))
    assert (out.returncode, out.stderr, out.stdout) == (code, stderr, "")
    assert not out_csv.exists()


# Grids with repeated kernels, a kernel on the innermost axis, a slow kernel
# (beta + delta = 0.2) and a b1 axis.
_AGREEMENT_GRIDS = [
    ["--axis", "gamma1=0.5:2:0.5", "--axis", "alpha2=0.5:1.5:0.5", "--fix", "sigma=0.4", "--fix", "order=0.1"],
    ["--fix", "beta1=0.1", "--fix", "delta1=0.1", "--axis", "sigma=0:0.6:0.3", "--axis", "order=0:0.5:0.25"],
    ["--axis", "b1=0:0.9:0.3", "--axis", "beta2=0.5:2:0.75", "--fix", "delta2=0.2", "--fix", "sigma=0.7"],
]


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_scan_rows_match_check(tmp_path, theorem):
    for k, grid in enumerate(_AGREEMENT_GRIDS):
        out_csv = tmp_path / f"{k}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scan", theorem, *grid, "--out", str(out_csv)]) == 0
        header, *rows = (line.split(",") for line in out_csv.read_text(encoding="utf-8").splitlines())
        assert len(rows) > 1
        for row in rows:
            v = dict(zip(header[1:12], map(float, row[1:12])))
            spec = ConvolutionSpec(
                *(WrightParams(*(v[f"{q}{side}"] for q in ("alpha", "beta", "gamma", "delta"))) for side in "12"),
                v["sigma"],
            )
            reports = stated_hypothesis(theorem, spec, v["order"], v["b1"])
            assert row[0] == theorem
            assert row[12:] == [s for r in reports for s in (_csv_num(r.lhs), _csv_num(r.rhs), str(r.satisfied).lower())]


_FIX2 = ["--fix", "alpha2=1.7", "--fix", "beta2=1.1", "--fix", "gamma2=0.8", "--fix", "delta2=2.2"]


# Benchmark-sized grids and the sha256 of their CSV, recorded when every kernel was
# summed by derivs_at_one alone: an (alpha1, beta1) axis pair varies one kernel half,
# (beta1, delta1) both, beta1 + delta1 = 0.2 needs about 330 terms, C1 reduces its
# gamma1 axis away, and T5.4 reads its b1 axis.
@pytest.mark.parametrize(
    "argv, rows, digest",
    [
        (["T3.1", "--axis", "alpha1=0.5:2.45:0.05", "--axis", "beta1=0.6:2.1:0.05", "--fix", "gamma1=1.3",
          "--fix", "delta1=0.9", *_FIX2, "--fix", "sigma=0.45", "--fix", "order=0.2"],
         1240, "ea0f62b8771d2ea4caf633543eddef8ae14c23f217a1695d80f7fa63ee75dadd"),
        (["T4.2", "--axis", "beta1=0.5:2:0.05", "--axis", "delta1=0.5:1.7:0.04", *_FIX2, "--fix", "sigma=0.3"],
         961, "7fbb5253fe262f84a58848278a7502568d1ed3efbee4773e4badc6411d8a15b7"),
        (["T3.3", "--fix", "beta1=0.08", "--fix", "delta1=0.12", "--axis", "alpha1=0.5:1.5:0.025",
          "--axis", "sigma=0:0.6:0.025", *_FIX2],
         1025, "5bb757a35ccd1fb00dc4ccc8a4f311a395a2ebb6154ad70c09d4fff1952af1a6"),
        (["C1", "--axis", "gamma1=0.5:2.5:0.05", "--axis", "alpha2=0.6:1.8:0.04", "--fix", "sigma=0.2",
          "--fix", "order=0.1"],
         1271, "c1783f6265afa419c8085480619c93a692cd04bcc9da730b60e1cdeefac39191"),
        (["T5.4", "--axis", "b1=0:0.85:0.025", "--axis", "alpha2=0.5:2:0.05", "--fix", "beta1=0.7"],
         1085, "02828d1d1e2fd2d124ba95771ce9bf1ea1ce6c5ef956fee70d1297f9a43d10fa"),
    ],
)
def test_scan_csv_bytes_are_pinned(tmp_path, argv, rows, digest):
    out_csv = tmp_path / "grid.csv"
    got = _outcome(main, ["scan", *argv, "--out", str(out_csv)])
    assert got == (0, f"wrote {rows} rows to {out_csv}\n", "")
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, key",
    [
        (["eval", "--p", "1,1,1,1", "--z=--"], "z"),
        (["derivs", "--p", "1,1,1,1", "--ctrl-max-terms=--"], "ctrl-max-terms"),
        (["check", "T3.1", "--p1", "1,1,1,1", "--sigma=--"], "sigma"),
        (["scan", "T3.1", "--axis=--", "--axis", "sigma=0:0.5:0.5", "--out", "OUT"], "axis"),
        (["eval", "--p", "1,1,1,1", "--config=--"], "config"),
    ],
)
def test_a_dashdash_value_exits_2(tmp_path, argv, key):
    # argparse stores [] for --<key>=--, which must not read as "not given".
    argv = [str(tmp_path / "out.csv") if arg == "OUT" else arg for arg in argv]
    assert _outcome(main, argv) == (2, "", f"error: --{key}: expected a value\n")
    assert not (tmp_path / "out.csv").exists()


def test_ctrl_max_terms_is_bounded():
    # 10^9 terms of a barely decaying kernel would run for most of an hour.
    out = run_cli("derivs", "--p", "1,1,1,1", "--ctrl-max-terms", "1000000000")
    assert out.returncode == 2
    assert out.stderr == "error: ctrl-max-terms must be <= 1000000, got 1000000000\n"
    assert run_cli("derivs", "--p", "1,1,1,1", "--ctrl-max-terms", "1000000").returncode == 0


def test_scan_monotone_in_sigma(tmp_path):
    out_csv = tmp_path / "sig.csv"
    run = run_cli(
        "scan", "T3.1",
        "--axis", "sigma=0:0.9:0.45",
        "--fix", "beta1=2", "--fix", "beta2=2",
        "--out", str(out_csv),
    )
    assert run.returncode == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index("lhs_derived")
    vals = [float(line.split(",")[idx]) for line in lines[1:]]
    assert len(vals) == 3
    assert vals == sorted(vals)


def test_scan_monotone_in_beta1(tmp_path):
    # Larger beta1 shrinks every tail coefficient of the first kernel.
    out_csv = tmp_path / "beta.csv"
    run = run_cli("scan", "T3.1", "--axis", "beta1=1:5:2", "--out", str(out_csv))
    assert run.returncode == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index("lhs_derived")
    vals = [float(line.split(",")[idx]) for line in lines[1:]]
    assert len(vals) == 3
    assert vals == sorted(vals, reverse=True)


def test_scan_axis_major_order(tmp_path):
    out_csv = tmp_path / "two.csv"
    run = run_cli(
        "scan", "T3.1",
        "--axis", "order=0:0.25:0.25", "--axis", "sigma=0:0.4:0.4",
        "--out", str(out_csv),
    )
    assert run.returncode == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    orders = [float(line.split(",")[header.index("order")]) for line in lines[1:]]
    sigmas = [float(line.split(",")[header.index("sigma")]) for line in lines[1:]]
    assert orders == [0.0, 0.0, 0.25, 0.25]  # first axis varies slowest
    assert sigmas == [0.0, 0.4, 0.0, 0.4]


def test_scan_rejects_bad_specs(tmp_path):
    out_csv = str(tmp_path / "x.csv")
    assert run_cli("scan", "T3.1", "--axis", "bogus=0:1:1", "--out", out_csv).returncode == 2
    assert run_cli("scan", "T3.1", "--axis", "sigma=0:1", "--out", out_csv).returncode == 2
    assert run_cli("scan", "T3.1", "--axis", "sigma=0:1:-1", "--out", out_csv).returncode == 2
    assert run_cli("scan", "T3.1", "--out", out_csv).returncode == 2  # no axis


def _enumerated_axis(start, stop, step):
    """An axis's values by enumeration alone, raising DomainError past 10^6 values."""
    magnitude = max(abs(start), abs(stop))
    spacing = math.ulp(magnitude)
    if step < spacing:
        raise DomainError(f"axis sigma: step {step} is below the float spacing {spacing} at its largest end")
    limit = stop + 1e-12 * magnitude
    values = []
    while start + len(values) * step <= limit:
        values.append(start + len(values) * step)
        if len(values) > 1_000_000:
            raise DomainError("axis sigma has more than 1000000 values")
    return values


@pytest.mark.parametrize(
    "spec",
    [
        "0:999999:1",  # exactly 10^6 values
        "0:1000000:1",  # one too many
        "0.5:0.5000004:4e-13",
        "0.1:0.7:0.1",
        "-0.0:0:1",
        "1e20:1e20:1",  # a step below the float spacing at 1e20: start + k*step rounds back to start
        "-1e308:1e308:1e303",  # k*step overflows before k reaches 10^6
    ],
)
def test_axis_bound_matches_enumeration(spec):
    start, stop, step = map(float, spec.split(":"))
    try:
        expected = _enumerated_axis(start, stop, step)
    except DomainError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            _parse_axis(f"sigma={spec}")
    else:
        name, values = _parse_axis(f"sigma={spec}")
        assert name == "sigma" and len(values) == len(expected)
        assert np.array_equal(np.array(values).view(np.int64), np.array(expected).view(np.int64))


@pytest.mark.parametrize(
    "spec, values",
    [
        ("0:1e-15:1e-17", 101),  # the slack past stop scales with the axis, not with 1
        ("0.5:0.5:1e-17", "step 1e-17 is below the float spacing 1.1102230246251565e-16"),
        ("0:1.7976931348623157e308:1e303", 179770),  # no overflowed value counts
    ],
)
def test_axis_stops_at_its_stop(spec, values):
    if isinstance(values, str):
        with pytest.raises(DomainError, match=values):
            _parse_axis(f"sigma={spec}")
    else:
        _, axis = _parse_axis(f"sigma={spec}")
        assert len(axis) == values and axis[-1] <= float(spec.split(":")[1])


def test_axis_bound_is_checked_before_enumeration(tmp_path):
    out_csv = tmp_path / "x.csv"
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["scan", "T3.1", "--axis", "sigma=0:1e300:1e290", "--out", str(out_csv)])
    elapsed = time.perf_counter() - t0
    assert (code, err.getvalue()) == (2, "error: axis sigma has more than 1000000 values\n")
    assert elapsed < 0.1, elapsed  # enumerating the first 10^6 values takes about 0.5 s
    assert not out_csv.exists()


def test_scan_grid_size_is_checked_before_any_axis_is_enumerated(tmp_path):
    out_csv = tmp_path / "x.csv"
    err = io.StringIO()
    argv = ["scan", "T3.1", "--axis", "sigma=0:999999:1", "--axis", "order=0:0.5:0.5", "--out", str(out_csv)]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    assert (code, err.getvalue()) == (2, "error: scan grid has 2000000 points, more than 1000000\n")
    assert elapsed < 0.05, elapsed  # enumerating the first axis value by value takes about 0.5 s
    assert not out_csv.exists()


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 1,1,1,1\nz = 1,0  # trailing comment\n", encoding="utf-8")
    out = run_cli("eval", "--config", str(cfg))
    assert out.returncode == 0 and "2.279585302336067" in out.stdout
    out = run_cli("eval", "--config", str(cfg), "--z", "0,0")  # flag wins over file
    assert out.returncode == 0 and "normalized = 0,0" in out.stdout


def test_config_repeatable_options_use_semicolons(tmp_path):
    cfg = tmp_path / "scan.cfg"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text("axis = sigma=0:0.8:0.4; beta1=1:3:1\nfix = alpha1=1.5\n", encoding="utf-8")
    assert run_cli("scan", "T3.1", "--config", str(cfg), "--out", str(out_a)).returncode == 0
    flags = run_cli(
        "scan", "T3.1", "--axis", "sigma=0:0.8:0.4", "--axis", "beta1=1:3:1",
        "--fix", "alpha1=1.5", "--out", str(out_b),
    )
    assert flags.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 1,1,1,1\nwhatever = 3\n", encoding="utf-8")
    out = run_cli("eval", "--config", str(cfg))
    assert out.returncode == 2
    assert "unknown key" in out.stderr


def test_show_config(tmp_path):
    out = run_cli("eval", "--p", "1,1,1,1", "--show-config")
    assert out.returncode == 0
    assert "ctrl-tol = 1e-14" in out.stdout
    assert "ctrl-max-terms = 2000" in out.stdout
    assert "p = 1,1,1,1" in out.stdout


def test_missing_required_option():
    out = run_cli("eval")
    assert out.returncode == 2
    assert "--p" in out.stderr


def test_render_identity_svg(tmp_path):
    out_svg = tmp_path / "disk.svg"
    run = run_cli(
        "render", "--f", "identity", "--radii", "0.5,0.9", "--theta-count", "128",
        "--out", str(out_svg),
    )
    assert run.returncode == 0
    root = ET.fromstring(out_svg.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    assert len(root.attrib["viewBox"].split()) == 4
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2  # one closed curve per radius
    first = polylines[0].attrib["points"].split()
    assert first[0] == first[-1]  # closed


def test_render_identity_circle_deviation():
    curves = sample_boundary_curves(identity_image(), [0.5], 4096)
    thetas = 2 * np.pi * np.arange(4096) / 4096
    assert np.max(np.abs(curves[0] - 0.5 * np.exp(1j * thetas))) < 1e-12


def count_self_crossings(pts):
    """Brute-force proper-crossing count over all non-adjacent segment pairs."""
    n = len(pts)
    a, b = pts, np.roll(pts, -1)
    crossings = 0
    for i in range(n):
        lo, hi = i + 2, n - 1 if i == 0 else n
        if lo >= hi:
            continue
        js = np.arange(lo, hi)
        d1 = np.imag(np.conj(b[i] - a[i]) * (a[js] - a[i]))
        d2 = np.imag(np.conj(b[i] - a[i]) * (b[js] - a[i]))
        d3 = np.imag(np.conj(b[js] - a[js]) * (a[i] - a[js]))
        d4 = np.imag(np.conj(b[js] - a[js]) * (b[i] - a[js]))
        crossings += int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))
    return crossings


def test_boundary_curve_simple_at_univalence_bound():
    # A_2 = 1/2 sits on the coefficient-univalence boundary: still a simple curve.
    from wrightmaps import ImageCoefficients

    curve = sample_boundary_curves(ImageCoefficients([0.5], []), [0.99], 512)[0]
    assert count_self_crossings(curve) == 0
    # Past the bound the boundary image develops a loop; the checker must see it.
    looped = sample_boundary_curves(ImageCoefficients([1.0], []), [0.99], 512)[0]
    assert count_self_crossings(looped) > 0


def test_render_bad_specs(tmp_path):
    out_svg = str(tmp_path / "x.svg")
    assert run_cli("render", "--radii", "", "--out", out_svg).returncode == 2
    assert run_cli("render", "--theta-count", "8", "--out", out_svg).returncode == 2
    assert run_cli("render", "--out", "/nonexistent_dir_zz/x.svg").returncode == 4


def test_render_convolved_curve_is_finite(tmp_path):
    out_svg = tmp_path / "conv.svg"
    run = run_cli(
        "render", "--f", "random", "--p1", "2,1,2,1", "--sigma", "0.4,0",
        "--radii", "0.5,0.95", "--theta-count", "128", "--seed", "5", "--out", str(out_svg),
    )
    assert run.returncode == 0
    assert out_svg.exists() and out_svg.stat().st_size > 0


@pytest.mark.parametrize(
    "rows",
    [
        "a,2,1e308,0\na,3,1e308,0\n",  # the inverse FFT overflows to inf
        "a,2,1.5e308,0\n",  # finite values, but the viewport's width overflows
    ],
)
def test_render_overflow_exits_3(tmp_path, rows):
    coeffs, out_svg = tmp_path / "huge.csv", tmp_path / "huge.svg"
    coeffs.write_text("part,n,re,im\n" + rows, encoding="utf-8")
    out = run_cli("render", "--f", f"file:{coeffs}", "--radii", "0.99", "--out", str(out_svg))
    assert out.returncode == 3, out.stderr[-300:]
    assert out.stdout == "" and out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "overflow" in out.stderr and "Warning" not in out.stderr
    assert not out_svg.exists()


def _special_curve(rng, n):
    """n complex points whose parts mix +-0.0, subnormals, 1e-300 and values near 1e300."""
    special = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e-300, -1e-300, 9.99e299, -1e300, 1.0, -0.5])
    parts = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-5, 5, size=(2, n))
    mask = rng.random((2, n)) < 0.3
    parts[mask] = rng.choice(special, size=mask.sum())
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("radii, points", [(2, 64), (3, 512), (4, 4096), (2, 4096)])
def test_svg_polylines_keep_their_bytes(radii, points):
    rng = np.random.default_rng(radii * points)
    curves = [_special_curve(rng, points) for _ in range(radii)]
    curves[0][:2] = [0.0, complex(-0.0, -0.0)]  # imaginary 0.0 writes y = -0, and -0.0 writes 0
    svg = curves_to_svg(curves, 800, 600)
    # The per-point formatting the one-call-per-curve writer replaced.
    expected = [" ".join(f"{p.real:.12g},{-p.imag:.12g}" for p in np.concatenate([c, c[:1]])) for c in curves]
    assert re.findall(r'points="([^"]*)"', svg) == expected
    assert expected[0].startswith("0,-0 -0,0 ")


def test_verify_identity_consistent():
    out = run_cli("verify", "T3.1", "--p1", "2,1,2,1", "--sigma", "0", "--f", "identity")
    assert out.returncode == 0
    assert "f[0]: CONSISTENT" in out.stdout


def test_verify_vacuous():
    out = run_cli("verify", "T3.2", "--p1", "1,1,1,1", "--sigma", "0", "--f", "identity")
    assert out.returncode == 0
    assert "VACUOUS" in out.stdout


def test_verify_random_consistent():
    out = run_cli(
        "verify", "T3.1", "--p1", "2,1,2,1", "--sigma", "0", "--f", "random",
        "--count", "50", "--seed", "9", "--theta-count", "512",
    )
    assert out.returncode == 0
    assert out.stdout.count("CONSISTENT") == 50


def test_verify_close_to_convex_route():
    out = run_cli(
        "verify", "T5.3", "--p1", "1,3,1,3", "--p2", "1,3,1,3", "--f", "classbound:CH0_family",
        "--nmax", "30",
    )
    assert out.returncode == 0
    assert "epsilon probes" in out.stdout


def test_coeff_csv_roundtrip(tmp_path):
    path = tmp_path / "f.csv"
    f = CoefficientSeq([0.1 + 0.2j, -0.3j], [0.4, 0.0, 0.05 - 0.01j])
    write_coeff_csv(str(path), f)
    g = read_coeff_csv(str(path))
    assert np.allclose(f.a, g.a) and np.allclose(f.b, g.b)


def test_verify_file_source(tmp_path):
    path = tmp_path / "f.csv"
    write_coeff_csv(str(path), CoefficientSeq([0.05], [0.1]))
    out = run_cli("verify", "T3.1", "--p1", "2,1,2,1", "--sigma", "0.2,0", "--f", f"file:{path}")
    assert out.returncode == 0
    assert "f[0]:" in out.stdout


def test_svg_writer_rejects_bad_viewport():
    curves = sample_boundary_curves(identity_image(), [0.5], 64)
    with pytest.raises(Exception):
        curves_to_svg(curves, 0, 100)


def test_verify_rejects_non_finite_coefficient_file(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("part,n,re,im\na,2,nan,0\n", encoding="utf-8")
    out = run_cli("verify", "T3.1", "--p1", "2,1,2,1", "--f", f"file:{path}")
    assert out.returncode == 2
    assert "CONSISTENT" not in out.stdout
    with pytest.raises(Exception):
        read_coeff_csv(str(path))


def test_coefficient_file_rejects_a_repeated_index(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    for rows, part_index in (("a,2,0.5,0\nb,1,0.1,0\na,2,0.9,0\n", "'a'/2"), ("b,1,0.1,0\nb,1,0.1,0\n", "'b'/1")):
        path.write_text("part,n,re,im\n" + rows, encoding="utf-8")
        code = main(["verify", "T3.1", "--p1", "2,1,2,1", "--f", f"file:{path}"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {path}: repeated part/index {part_index}\n"))


# numpy overflows inside verify: the outputs report the non-finite value (or the verdict
# it gives) themselves, and numpy's warning, which names the installed file, stays off stderr.
@pytest.mark.parametrize(
    "rows, argv, code, stdout",
    [
        (
            "a,2,1e308,0\nb,1,-0.9999999,0\n",
            ["verify", "T5.3", "--p1", "2,3,2,3", "--sigma", "0.99999999"],
            1,
            "f[0]: COUNTEREXAMPLE close-to-convex probe L5[eps0] lhs=inf > 1\n"
            "verdicts: 0 consistent, 0 vacuous, 1 counterexample\n",
        ),
        (
            "a,2,1e308,0\na,3,1e308,0\n",
            ["verify", "T3.1", "--p1", "0.5,0.1,0.5,0.1"],
            0,
            "f[0]: VACUOUS (as_derived lhs=925.1711753676184 > rhs=1)\n"
            "verdicts: 0 consistent, 1 vacuous, 0 counterexample\n",
        ),
    ],
    ids=["probe-divide", "convolve-multiply"],
)
def test_numpy_warnings_stay_off_stderr(tmp_path, rows, argv, code, stdout):
    coeffs = tmp_path / "f.csv"
    coeffs.write_text("part,n,re,im\n" + rows, encoding="utf-8")
    out = run_cli(*argv, "--f", f"file:{coeffs}")
    assert (out.returncode, out.stdout, out.stderr) == (code, stdout, "")


def test_only_numpy_commands_run_under_errstate(monkeypatch, tmp_path, capsys):
    # check runs on floats and leaves numpy's error state as it finds it; scan runs with
    # every numpy warning off, and the state is restored after either.
    seen = []

    def spy(name):
        function = getattr(wrightmaps.cli, name)
        monkeypatch.setattr(wrightmaps.cli, name, lambda *args: seen.append(np.geterr()) or function(*args))

    spy("stated_hypothesis")
    spy("hypothesis_columns")
    with np.errstate(over="raise", divide="warn", invalid="ignore", under="print"):
        before = np.geterr()
        assert main(["check", "T3.1", "--p1", "2,1,2,1"]) == 0
        assert main(["scan", "T3.1", "--axis", "alpha1=1:2:1", "--out", str(tmp_path / "s.csv")]) == 0
        assert np.geterr() == before
    assert seen == [before, dict.fromkeys(before, "ignore")]
    assert capsys.readouterr().err == ""


def run_cli_bounded(*args, seconds=30, address_space=1 << 30):
    """run_cli in a child with a time and an address-space limit: a runaway fails, not hangs."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "wrightmaps", *args],
            capture_output=True, text=True, timeout=seconds, preexec_fn=limit, env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"wrightmaps {' '.join(args)} ran for more than {seconds} s")


def test_scan_rejects_non_finite_and_oversized_grids(tmp_path):
    out_csv = str(tmp_path / "x.csv")
    for axes in (
        ["sigma=0:0.5:nan"],
        ["sigma=nan:0.5:0.1"],
        ["sigma=0:inf:0.5"],
        ["sigma=0:0.5:1e-9"],  # one axis past the point limit
        ["sigma=0:0.5:0.0001", "order=0:0.5:0.0001"],  # 5001 x 5001 points
    ):
        argv = ["scan", "T3.1", *(f"--axis={axis}" for axis in axes), "--out", out_csv]
        out = run_cli_bounded(*argv)
        assert out.returncode == 2, (axes, out.stderr[-300:])
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "T5.1", "--p1", "2,1,2,1", "--b1", "nan"],
        ["check", "T3.1", "--p1", "2,1,2,1", "--ctrl-tol", "inf"],
        ["check", "T3.1", "--p1", "2,1,2,1", "--sigma", "1e400,0"],  # overflows to inf
        ["eval", "--p", "1,1,1,1", "--z=nan,0"],
        ["scan", "T5.1", "--axis", "sigma=0:0.1:0.1", "--fix", "b1=nan"],
    ],
)
def test_cli_numbers_must_be_finite(argv, tmp_path):
    out_csv = tmp_path / "x.csv"
    out = run_cli_bounded(*argv, *(["--out", str(out_csv)] if argv[0] == "scan" else []))
    assert out.returncode == 2, out.stdout + out.stderr[-300:]
    assert "finite" in out.stderr and "Traceback" not in out.stderr
    assert not out_csv.exists()


def test_sizes_bounded_where_they_enter(tmp_path):
    far = tmp_path / "far.csv"
    far.write_text("part,n,re,im\na,1000000000,0.1,0\n", encoding="utf-8")
    out_svg = str(tmp_path / "x.svg")
    verify = ["verify", "T3.1", "--p1", "2,1,2,1"]
    for argv in (
        [*verify, "--f", f"file:{far}"],  # a dense array up to n would take 14.9 GiB
        [*verify, "--nmax", "1000000000"],
        # 68 epsilons x 10^6 coefficients would be 1 GiB per complex array.
        ["verify", "T5.3", "--p1", "1,3,1,3", "--f", "classbound:KH0", "--nmax", "1000000"],
        [*verify, "--theta-count", "1000000000"],
        ["render", "--theta-count", "1000000000", "--out", out_svg],
        [*verify, "--seed", "-1"],
        ["render", "--seed", "-1", "--out", out_svg],
    ):
        out = run_cli_bounded(*argv)
        assert out.returncode == 2, (argv, out.stderr[-300:])
        assert "Traceback" not in out.stderr
    # Mappings are made one at a time, so the first one meets the failing series
    # before the other 2,999,999 exist.
    out = run_cli_bounded(*verify, "--count", "3000000", "--ctrl-max-terms", "2")
    assert out.returncode == 3, out.stderr[-300:]
    assert "Traceback" not in out.stderr


def test_render_long_series_within_memory(tmp_path):
    # 100 radii x 10^6 coefficients: a whole spectrum would take 1.49 GiB of the child's 1 GiB.
    out_svg = tmp_path / "long.svg"
    radii = ",".join(f"{0.005 * k:g}" for k in range(1, 101))
    argv = ["render", "--f", "random", "--nmax", "1000000", "--radii", radii, "--theta-count", "64"]
    out = run_cli_bounded(*argv, "--out", str(out_svg))
    assert out.returncode == 0, out.stderr[-300:]
    polylines = [el for el in ET.parse(out_svg).getroot().iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 100 and all(len(p.attrib["points"].split()) == 65 for p in polylines)


def test_verify_evaluates_each_kernel_once(monkeypatch):
    calls = {}

    def spy(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(wrightmaps.mappings, "norm_coeffs")
    spy(wrightmaps.criteria, "derivs_at_one")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "T3.1", "--p1", "2,1,2,1", "--f", "random", "--count", "10"])
    assert code == 0
    assert calls == {"norm_coeffs": 2, "derivs_at_one": 2}  # p1 and p2 once each, not per mapping


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_convolves_the_kernels_the_gate_reads(monkeypatch, theorem):
    seen = {"norm_coeffs": set(), "derivs_at_one": set()}

    def spy(module, name):
        function = getattr(module, name)

        def recorded(p, *args):
            seen[name].add(p)
            return function(p, *args)

        monkeypatch.setattr(module, name, recorded)

    spy(wrightmaps.mappings, "norm_coeffs")
    spy(wrightmaps.criteria, "derivs_at_one")
    argv = ["verify", theorem, "--p1", "1.5,1.2,0.8,1.3", "--p2", "1.8,2,2.1,1.9", "--sigma", "0.1,0",
            "--f", "random", "--count", "2", "--nmax", "8", "--theta-count", "64"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    assert len(seen["derivs_at_one"]) == 2 and seen["norm_coeffs"] == seen["derivs_at_one"]


def test_verify_c1_refutes_no_mapping_its_gate_did_not_admit():
    # The gate reads the C1 kernels with gamma = delta = 1; convolving with the given
    # (1.9960, 1.3787, 0.8208, 1.1137) instead gave f[0] a minimum just below the order.
    argv = ("verify C1 --p1 1.9960,1.3787,0.8208,1.1137 --p2 1.8519,2.0840,2.0905,2.1145 "
            "--sigma=-0.0025,-0.0038 --order 0.3 --f random --count 10 --seed 632578").split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue().endswith("verdicts: 10 consistent, 0 vacuous, 0 counterexample\n")


def test_verify_gates_t51_on_each_mappings_own_b1():
    # T5.1's condition reads |B_1|, so every mapping has its own hypothesis report.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "T5.1", "--p1", "2,1,2,1", "--sigma", "0.9", "--f", "random", "--count", "5"])
    assert code == 1
    assert out.getvalue() == (
        "f[0]: VACUOUS (as_derived lhs=3.703792626734976 > rhs=1)\n"
        "f[1]: COUNTEREXAMPLE close-to-convex probe L5[eps10] lhs=1.037824652915089 > 1\n"
        "f[2]: VACUOUS (as_derived lhs=1.885156232906457 > rhs=1)\n"
        "f[3]: VACUOUS (as_derived lhs=1.419566528411647 > rhs=1)\n"
        "f[4]: VACUOUS (as_derived lhs=1.55109837565929 > rhs=1)\n"
        "verdicts: 0 consistent, 4 vacuous, 1 counterexample\n"
    )


# The failure line of the epsilon probe: with B_1 = 0, with B_1 != 0, and with an lhs
# that overflows to inf (there 1 + sigma B_1 is about 1e-7).
@pytest.mark.parametrize(
    "rows, sigma, line",
    [
        ("a,2,300,0\na,4,0,2000\nb,2,-750,0\nb,3,1,-2\n", "0.4", "L5[eps11] lhs=1.071047489977755"),
        ("a,2,1000,0\nb,1,0.5,0\nb,3,300,200\n", "0.4", "L5[eps0] lhs=2.893532712708157"),
        ("a,2,1e308,0\nb,1,-0.9999999,0\n", "0.99999999", "L5[eps0] lhs=inf"),
    ],
)
def test_verify_probe_failure_lines(tmp_path, rows, sigma, line):
    coeffs = tmp_path / "f.csv"
    coeffs.write_text("part,n,re,im\n" + rows, encoding="utf-8")
    out = run_cli("verify", "T5.3", "--p1", "2,3,2,3", "--sigma", sigma, "--f", f"file:{coeffs}")
    assert out.returncode == 1, out.stderr[-300:]
    assert out.stdout == (
        f"f[0]: COUNTEREXAMPLE close-to-convex probe {line} > 1\n"
        "verdicts: 0 consistent, 0 vacuous, 1 counterexample\n"
    )
    assert "Traceback" not in out.stderr


def test_verify_probe_counts_a_nan_lhs_as_a_counterexample(tmp_path, monkeypatch):
    coeffs = tmp_path / "f.csv"
    coeffs.write_text("part,n,re,im\na,2,1000,0\n", encoding="utf-8")  # T > 1, so the probe runs
    lhs = np.zeros(68)
    lhs[[5, 9]] = np.nan, 2.0
    monkeypatch.setattr(wrightmaps.cli, "close_to_convex_lhs", lambda img: lhs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "T5.3", "--p1", "2,3,2,3", "--f", f"file:{coeffs}"])
    assert code == 1
    assert out.getvalue().startswith("f[0]: COUNTEREXAMPLE close-to-convex probe L5[eps5] lhs=nan > 1\n")


def _verify_probe_lines(seed, count):
    """count seeded T5.3/T5.4 verify command lines on the class-bound mappings, nmax 10-80."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p1, p2 = (",".join(f"{v:.4f}" for v in rng.uniform([0.5, 0.3, 0.5, 0.3], [2.5, 4.5, 2.5, 4.5])) for _ in "12")
        yield [
            "verify", str(rng.choice(["T5.3", "T5.4"])), "--p1", p1, "--p2", p2,
            f"--sigma={rng.uniform(-0.6, 0.6):.4f},{rng.uniform(-0.3, 0.3):.4f}", f"--b1={rng.uniform(0, 0.6):.4f}",
            "--f", f"classbound:{rng.choice(['CH0_family', 'CH', 'KH0'])}", "--nmax", str(rng.integers(10, 81)),
            "--gate", str(rng.choice(["stated", "derived"])),
        ]


def test_verify_probe_certificate_prints_the_probes_verdict(monkeypatch):
    probed, verdicts, certified = [], set(), 0
    real_bound, real_lhs = wrightmaps.cli.close_to_convex_bound, wrightmaps.cli.close_to_convex_lhs
    monkeypatch.setattr(wrightmaps.cli, "close_to_convex_lhs", lambda img: probed.append(img) or real_lhs(img))
    for argv in _verify_probe_lines(26, 150):
        before = len(probed)
        with_bound = _outcome(main, argv)
        certified += len(probed) == before and "VACUOUS" not in with_bound[1]
        monkeypatch.setattr(wrightmaps.cli, "close_to_convex_bound", lambda img: math.inf)  # always probe
        assert _outcome(main, argv) == with_bound, argv
        monkeypatch.setattr(wrightmaps.cli, "close_to_convex_bound", real_bound)
        verdicts.update(re.findall(r"f\[0\]: (\w+)", with_bound[1]))
    assert verdicts == {"CONSISTENT", "VACUOUS", "COUNTEREXAMPLE"} and certified >= 100, (verdicts, certified)


def test_verify_probe_runs_only_when_the_certificate_fails(tmp_path, monkeypatch):
    calls = []
    real_lhs = wrightmaps.cli.close_to_convex_lhs
    monkeypatch.setattr(wrightmaps.cli, "close_to_convex_lhs", lambda img: calls.append(img) or real_lhs(img))
    coeffs = tmp_path / "f.csv"
    coeffs.write_text("part,n,re,im\na,2,250,0\n", encoding="utf-8")  # T = 2 * 250 c_2 = 500 / 576
    argv = ["verify", "T5.3", "--p1", "2,3,2,3", "--f", f"file:{coeffs}"]
    certified = "f[0]: CONSISTENT (all 68 epsilon probes pass)\nverdicts: 1 consistent, 0 vacuous, 0 counterexample\n"
    assert _outcome(main, argv) == (0, certified, "") and calls == []
    coeffs.write_text("part,n,re,im\na,2,300,0\n", encoding="utf-8")  # T = 600 / 576 > 1: the probe decides
    assert _outcome(main, argv)[1].startswith("f[0]: COUNTEREXAMPLE close-to-convex probe")
    assert len(calls) == 1
    monkeypatch.setattr(wrightmaps.cli, "close_to_convex_bound", lambda img: math.nan)
    coeffs.write_text("part,n,re,im\na,2,1,0\n", encoding="utf-8")
    assert _outcome(main, argv) == (0, certified, "") and len(calls) == 2


@pytest.mark.parametrize("theorem", ["T3.1", "T4.1"])
@pytest.mark.parametrize("radius", ["1e-14", "1e-300"])
def test_verify_identity_is_consistent_at_small_radii(theorem, radius):
    code, out, err = _outcome(main, ["verify", theorem, "--p1", "3,2,3,2", "--f", "identity", "--radii", radius])
    assert (code, err) == (0, "") and out.startswith("f[0]: CONSISTENT (min dtheta_arg_f"), out


def test_verify_flags_a_zero_of_the_image_as_singular(tmp_path):
    coeffs = tmp_path / "f.csv"
    coeffs.write_text("part,n,re,im\na,2,7.5,0\n", encoding="utf-8")  # image z + 1.875 z^2, zero at -0.5333...
    argv = ["verify", "T3.1", "--p1", "2,1,2,1", "--f", f"file:{coeffs}", "--radii", "0.5333333333333333",
            "--theta-count", "64"]
    assert _outcome(main, argv) == (1, (
        "f[0]: COUNTEREXAMPLE dtheta_arg_f at r=0.5333333333333333 theta=3.141592653589793 value=-inf (singular)\n"
        "verdicts: 0 consistent, 0 vacuous, 1 counterexample\n"
    ), "")


@pytest.mark.parametrize("command", [["check", "T3.1"], ["verify", "T3.1"], ["render", "--out", "x.svg"]])
def test_an_overflowing_sigma_is_a_domain_error(command):
    code, out, err = _outcome(main, [*command, "--p1", "1,1,1,1", "--sigma=1.7e308,1.7e308"])
    assert (code, out) == (2, "") and err.startswith("error: |sigma| must be < 1")


def test_verify_builds_one_violation_per_printed_line(monkeypatch):
    built = []

    class Counted(wrightmaps.oracle.Violation):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(wrightmaps.oracle, "Violation", Counted)
    argv = "verify T3.2 --p1 2,1,2,1 --sigma 0.5 --order 0.6 --f random --count 5 --seed 1 --theta-count 256"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv.split(), "--gate", "stated"])
    assert code == 1
    assert out.getvalue() == (
        "f[0]: COUNTEREXAMPLE dtheta_arg_f at r=0.5 theta=1.349903093339364 value=0.5934128862080766 (value)\n"
        "f[1]: COUNTEREXAMPLE dtheta_arg_f at r=0.5 theta=1.055378782065321 value=0.5919249296160118 (value)\n"
        "f[2]: COUNTEREXAMPLE dtheta_arg_f at r=0.5 theta=0.04908738521234052 value=0.5682831731338941 (value)\n"
        "f[3]: COUNTEREXAMPLE dtheta_arg_f at r=0.5 theta=0.2699806186678728 value=0.595633534465332 (value)\n"
        "f[4]: COUNTEREXAMPLE dtheta_arg_f at r=0.5 theta=1.006291396852981 value=0.5948695537103437 (value)\n"
        "verdicts: 0 consistent, 0 vacuous, 5 counterexample\n"
    )
    assert len(built) == 5  # of the 1,385 sub-threshold sites the five sweeps find


def test_verify_large_nmax_is_fast():
    # 100,000 coefficients per part: the oracle must cost a few transforms of
    # them, not a pass over every coefficient at each of the 3 x 4096 points.
    verify = ["verify", "T3.1", "--p1", "2,1,2,1", "--f", "random", "--count", "1"]
    out = run_cli_bounded(*verify, "--nmax", "100000", seconds=3)
    assert out.returncode == 0, out.stderr[-300:]
    assert "CONSISTENT" in out.stdout


def test_kernel_overflow_exits_3():
    for argv in (
        ["eval", "--p", "1,0.5,1,0.5", "--z=600,0"],
        ["eval", "--p", "1,1,1,1", "--z=1e300,0"],
        ["derivs", "--p", "1e-308,1,1,1"],
    ):
        out = run_cli(*argv)
        assert out.returncode == 3, (argv, out.stderr[-300:])
        assert "overflow" in out.stderr and "Traceback" not in out.stderr


def test_render_draws_radii_in_increasing_order(tmp_path):
    given, sorted_ = tmp_path / "given.svg", tmp_path / "sorted.svg"
    assert run_cli("render", "--radii", "0.9,0.5", "--out", str(given)).returncode == 0
    assert run_cli("render", "--radii", "0.5,0.9", "--out", str(sorted_)).returncode == 0
    assert given.read_bytes() == sorted_.read_bytes()


def test_verify_million_coefficients_is_fast():
    # A convolved image is exactly zero past the index where c_n underflows
    # (about n = 100 here), so the oracle's cost must not grow with that tail.
    verify = ["verify", "T3.1", "--p1", "2,1,2,1", "--f", "random", "--count", "5"]
    out = run_cli_bounded(*verify, "--nmax", "1000000", seconds=5)
    assert out.returncode == 0, out.stderr[-300:]
    assert "verdicts: 5 consistent, 0 vacuous, 0 counterexample" in out.stdout


def test_unparsable_input_files_exit_2(tmp_path):
    binary, missing, wide = tmp_path / "binary.txt", tmp_path / "missing.txt", tmp_path / "wide.csv"
    binary.write_bytes(b"\xff\xfe\x00")
    wide.write_text("part,n,re,im\na,2," + "1" * 200_000 + ",0\n")  # past the csv module's field limit
    verify = ["verify", "T3.1", "--p1", "2,1,2,1", "--count", "1"]
    for option, path in (("--config=", binary), ("--f=file:", binary), ("--f=file:", wide)):
        out = run_cli(*verify, option + str(path))
        assert out.returncode == 2, out.stderr[-300:]
        assert out.stderr.startswith("error: ") and str(path) in out.stderr
        assert "Traceback" not in out.stderr
    # A file that cannot be opened keeps its own codes.
    assert run_cli(*verify, "--config", str(missing)).returncode == 2
    assert run_cli(*verify, "--f", f"file:{missing}").returncode == 4


def test_verify_counterexample_lines():
    # T3.2's quoted hypothesis admits mappings the oracle refutes; the derived
    # form does not, so under the default gate they are vacuous.
    verify = ["verify", "T3.2", "--p1", "2,1,2,1", "--sigma", "0.5", "--order", "0.6",
              "--f", "random", "--count", "5", "--seed", "1", "--theta-count", "256"]
    out = run_cli(*verify, "--gate", "stated")
    assert out.returncode == 1, out.stderr[-300:]
    *lines, summary = out.stdout.splitlines()
    number = r"-?\d+(\.\d+)?(e-?\d+)?"
    line = re.compile(rf"f\[(\d)\]: COUNTEREXAMPLE dtheta_arg_f at r=0\.5 theta={number} value={number} \(value\)")
    matches = [line.fullmatch(text) for text in lines]
    assert all(matches) and [int(m.group(1)) for m in matches] == list(range(5)), lines
    assert all(float(text.split("value=")[1].split()[0]) < 0.6 for text in lines)
    assert summary == "verdicts: 0 consistent, 0 vacuous, 5 counterexample"
    out = run_cli(*verify)
    assert out.returncode == 0, out.stderr[-300:]
    assert out.stdout.count(": VACUOUS (as_derived ") == 5
    assert out.stdout.endswith("verdicts: 0 consistent, 5 vacuous, 0 counterexample\n")


# ------------------------------ the parser, built once ------------------------------

_PARSER_ARGVS = [
    ["scan", "T3.1", "--axis", "sigma=0:0.5:0.25", "--axis", "order=0:1:1", "--fix", "beta1=2",
     "--fix", "b1=0.1", "--out", "a.csv"],
    ["scan", "T4.2", "--axis=b1=0:1:1", "--out", "b.csv"],  # fewer appends than the argv before
    ["scan", "T9.9", "--axis", "sigma=0:1:1"],  # usage error: unknown identifier
    ["scan", "C1", "--out", "c.csv"],  # no --axis right after an error
    ["check", "T5.3", "--p1", "1,3,1,3", "--show-config", "--gate", "stated"],
    ["check", "--p1", "1,1,1,1"],  # usage error: no identifier
    ["verify", "R1", "--p1", "2,1,2,1", "--f", "random", "--count", "3", "--config", "x.cfg"],
    ["eval", "--p", "1,1,1,1", "--z=0.5,0", "--seed", "4"],
    ["eval", "--bogus", "1"],  # usage error: unknown option
    ["derivs", "--p", "2,1,2,1", "--ctrl-tol", "1e-10", "--ctrl-max-terms", "50"],
    ["render", "--radii", "0.5", "--out", "r.svg", "--show-config"],
    ["frobnicate"],  # usage error: unknown command
    ["render", "--out", "s.svg"],
    *([cmd, theorem] for cmd in ("check", "scan", "verify") for theorem in THEOREM_IDS),
]


def _parsed(parser, argv):
    """vars() of the namespace, or the exit code of a usage error."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


def test_reused_parser_matches_a_fresh_one(capsys):
    for argv in _PARSER_ARGVS:
        assert _parsed(_build_parser(), argv) == _parsed(_build_parser.__wrapped__(), argv), argv
    assert _build_parser() is _build_parser()
    capsys.readouterr()  # the usage errors' messages


def test_in_process_scans_keep_their_own_axes(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["scan", "T3.1", "--axis", "sigma=0:0.5:0.25", "--axis", "beta1=1:2:1",
                     "--fix", "order=0.1", "--out", str(first)]) == 0
        with pytest.raises(SystemExit):
            main(["scan", "T3.1", "--axis"])  # --axis without its value
        assert main(["scan", "T3.1", "--axis", "alpha2=1:3:1", "--out", str(second)]) == 0
    header, *rows = (line.split(",") for line in first.read_text(encoding="utf-8").splitlines())
    assert [(r[header.index("sigma")], r[header.index("beta1")], r[header.index("order")]) for r in rows] == [
        (s, b, "0.10000000000000001") for s in ("0", "0.25", "0.5") for b in ("1", "2")]
    header, *rows = (line.split(",") for line in second.read_text(encoding="utf-8").splitlines())
    assert [r[header.index("alpha2")] for r in rows] == ["1", "2", "3"]
    assert {(r[header.index("sigma")], r[header.index("beta1")], r[header.index("order")]) for r in rows} == {
        ("0", "1", "0")}
    # The same bytes as a fresh process writes.
    fresh = tmp_path / "fresh.csv"
    assert run_cli("scan", "T3.1", "--axis", "alpha2=1:3:1", "--out", str(fresh)).returncode == 0
    assert fresh.read_bytes() == second.read_bytes()


def test_import_does_not_build_the_parser():
    probe = (
        "import contextlib, io, wrightmaps.cli as cli\n"
        "before = cli._build_parser.cache_info()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['derivs', '--p', '1,1,1,1']), cli.main(['eval', '--p', '1,1,1,1'])]\n"
        "after = cli._build_parser.cache_info()\n"
        "print(before.misses, before.currsize, codes, after.misses, after.hits)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "0 0 [0, 0] 1 1\n", "")


# ------------------------- robustness property of main -------------------------


def _mostly(good, bad):
    """`good` four times in five, else `bad`, so that most draws get past the first check."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)


_BAD = st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-320", "x", "", "2.5", "1,2"])
_REAL = _mostly(st.floats(-0.5, 2).map(repr), _BAD)
_SIZE = _mostly(st.integers(-2, 64).map(str), _BAD)  # nmax, theta-count and count stay small
_PARAMS = _mostly(
    st.lists(st.floats(0.05, 3), min_size=4, max_size=4).map(lambda p: ",".join(map(repr, p))),
    st.lists(_REAL, max_size=5).map(",".join),
)
# Bad values include one with finite parts whose modulus overflows.
_COMPLEX = _mostly(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.3, 0.3)).map("{0[0]},{0[1]}".format),
                   st.one_of(_BAD, st.just("1.7e308,1.7e308")))
_RADII = _mostly(st.lists(st.floats(0.05, 0.99), min_size=1, max_size=3).map(lambda r: ",".join(map(repr, r))),
                 st.lists(_REAL, max_size=3).map(",".join))
_NAME = _mostly(st.sampled_from(["sigma", "order", "b1", "alpha1", "beta2", "delta1"]), st.just("bogus"))
# At most 11 values an axis, or an axis past the point limit, or a malformed one.
_STEP = _mostly(st.sampled_from(["0.25", "0.5", "1"]), st.sampled_from(["0", "-1", "nan", "inf", "1e-7"]))
_AXIS = _mostly(st.builds("{}={}:{}:{}".format, _NAME, st.floats(0, 0.5), st.floats(0, 2.5), _STEP), _BAD)
_FIX = _mostly(st.builds("{}={}".format, _NAME, _REAL), _BAD)
_HYPOTHESIS_OPTIONS = {
    "p2": _PARAMS, "sigma": _COMPLEX, "order": _REAL, "b1": _REAL,
    "gate": _mostly(st.sampled_from(["stated", "derived"]), st.just("both")),
}
_SOURCE = _mostly(
    st.sampled_from(["identity", "random", "classbound:KH0", "classbound:CH", "file:COEFFS"]),
    st.sampled_from(["classbound:x", "file:MISSING", "file:DIR", "x"]),
)
# (required, optional) options of each command; a required one is left out one time in five.
_OPTIONS = {
    "eval": ({"p": _PARAMS}, {"z": _COMPLEX}),
    "derivs": ({"p": _PARAMS}, {}),
    "check": ({"p1": _PARAMS}, _HYPOTHESIS_OPTIONS),
    "scan": ({"axis": st.lists(_AXIS, min_size=1, max_size=2), "out": st.just("OUT")},
             {"fix": st.lists(_FIX, max_size=3)}),
    "verify": ({"p1": _PARAMS}, {**_HYPOTHESIS_OPTIONS, "f": _SOURCE, "count": _SIZE, "nmax": _SIZE,
                                 "radii": _RADII, "theta-count": _SIZE}),
    "render": ({"out": _mostly(st.just("OUT"), st.sampled_from(["DIR", "MISSING/x"]))},
               {"f": _SOURCE, "p1": _PARAMS, "p2": _PARAMS, "sigma": _COMPLEX, "nmax": _SIZE,
                "radii": _RADII, "theta-count": _SIZE, "width": _SIZE, "height": _SIZE}),
}
_GLOBAL = {
    # Budgets past the 10^6 bound too, which must exit 2 before any series runs.
    "ctrl-max-terms": _mostly(_mostly(st.integers(-1, 2000), st.sampled_from([10**9, 10**20])).map(str), _BAD),
    "ctrl-tol": _mostly(st.sampled_from(["1e-14", "1e-8", "0", "-1"]), _BAD),
    "seed": _mostly(st.integers(-2, 10**30).map(str), _BAD),
    "config": _mostly(st.just("CONFIG"), st.just("MISSING")),
    "show-config": st.just(None),
}
_ROW = st.builds(
    "{},{},{},{}\n".format,
    _mostly(st.sampled_from(["a", "b"]), st.just("c")),
    _mostly(st.integers(1, 70).map(str), st.sampled_from(["-1", "0", "1000001", "x"])),
    _REAL, _REAL,
)
_COEFF_FILE = _mostly(st.lists(_ROW, max_size=6).map(lambda rows: "part,n,re,im\n" + "".join(rows)).map(str.encode),
                      st.binary(max_size=40))


@st.composite
def _invocations(draw):
    """(argv with placeholder paths, coefficient-file bytes, config-file bytes)."""
    cmd = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [cmd]
    if cmd in ("check", "scan", "verify"):
        argv.append(draw(_mostly(st.sampled_from(["T3.1", "T4.2", "T5.3", "C1", "R1"]), st.just("T9.9"))))
    required, optional = _OPTIONS[cmd]
    options = draw(st.fixed_dictionaries(
        {k: v for k, v in required.items() if draw(_mostly(st.just(True), st.just(False)))},
        optional={**optional, **_GLOBAL},
    ))
    for key, value in options.items():
        for item in value if isinstance(value, list) else [value]:
            argv.append(f"--{key}" if item is None else f"--{key}={item}")
    # A config file sets the command's number and text options, never a file path.
    values = {**required, **optional, **_GLOBAL, "bogus": _REAL}
    keys = sorted(set(values) - {"out", "f", "axis", "fix", "config", "show-config"})
    lines = st.sampled_from(keys).flatmap(lambda key: values[key].map(f"{key} = {{}}\n".format))
    config = draw(_mostly(st.lists(lines, max_size=3).map("".join).map(str.encode), st.binary(max_size=40)))
    return argv, draw(_COEFF_FILE), config


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_invocations())
# The draws rarely reach a sigma check with every other option good, so name that case too.
@example((["check", "T3.1", "--p1=1,1,1,1", "--sigma=1.7e308,1.7e308"], b"", b""))
@example((["verify", "T5.3", "--p1=1,1,1,1", "--sigma=1.7e308,1.7e308"], b"", b""))
def test_main_exits_with_a_documented_code(tmp_path, invocation):
    argv, coeffs, config = invocation
    (tmp_path / "coeffs.csv").write_bytes(coeffs)
    (tmp_path / "config.txt").write_bytes(config)
    (tmp_path / "dir").mkdir(exist_ok=True)
    paths = {"COEFFS": "coeffs.csv", "CONFIG": "config.txt", "OUT": "out", "DIR": "dir", "MISSING": "missing"}
    argv = [re.sub("|".join(paths), lambda m: str(tmp_path / paths[m.group()]), arg) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in range(5), argv


# ---------------------- plain command lines, beside argparse ----------------------


def _outcome(call, argv):
    """(exit code, stdout, stderr) of call(argv), with a usage error's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_IDS = "{T3.1,T3.2,T3.3,T4.1,T4.2,T4.3,T5.1,T5.2,T5.3,T5.4,C1,R1}"
_TOP_USAGE = "usage: wrightmaps [-h] {eval,derivs,check,scan,verify,render} ...\n"
_SCAN_USAGE = (
    "usage: wrightmaps scan [-h] [--ctrl-max-terms CTRL_MAX_TERMS]\n"
    "                       [--ctrl-tol CTRL_TOL] [--seed SEED] [--config CONFIG]\n"
    "                       [--show-config] [--axis AXIS] [--fix FIX] [--out OUT]\n"
    f"                       {_IDS}\n"
)
_CHECK_USAGE = (
    "usage: wrightmaps check [-h] [--ctrl-max-terms CTRL_MAX_TERMS]\n"
    "                        [--ctrl-tol CTRL_TOL] [--seed SEED] [--config CONFIG]\n"
    "                        [--show-config] [--p1 P1] [--p2 P2] [--sigma SIGMA]\n"
    "                        [--order ORDER] [--b1 B1] [--gate GATE]\n"
    f"                        {_IDS}\n"
)
_VERIFY_USAGE = (
    "usage: wrightmaps verify [-h] [--ctrl-max-terms CTRL_MAX_TERMS]\n"
    "                         [--ctrl-tol CTRL_TOL] [--seed SEED] [--config CONFIG]\n"
    "                         [--show-config] [--p1 P1] [--p2 P2] [--sigma SIGMA]\n"
    "                         [--order ORDER] [--b1 B1] [--gate GATE] [--f F]\n"
    "                         [--count COUNT] [--nmax NMAX] [--radii RADII]\n"
    "                         [--theta-count THETA_COUNT]\n"
    f"                         {_IDS}\n"
)
# (exit code, stdout, stderr) of main, recorded under Python 3.11 at 80 columns before the
# plain parse existed: argparse's usage errors and help, which only argparse writes.
_ARGPARSE_OUTPUT = {
    "eval --bogus 1": (2, "", _TOP_USAGE + "wrightmaps: error: unrecognized arguments: --bogus 1\n"),
    "scan T9.9": (2, "", _SCAN_USAGE + "wrightmaps scan: error: argument theorem: invalid choice: 'T9.9' "
                  "(choose from 'T3.1', 'T3.2', 'T3.3', 'T4.1', 'T4.2', 'T4.3', 'T5.1', 'T5.2', 'T5.3', "
                  "'T5.4', 'C1', 'R1')\n"),
    "check --p1 1,1,1,1": (2, "", _CHECK_USAGE + "wrightmaps check: error: the following arguments are "
                           "required: theorem\n"),
    "frobnicate": (2, "", _TOP_USAGE + "wrightmaps: error: argument command: invalid choice: 'frobnicate' "
                   "(choose from 'eval', 'derivs', 'check', 'scan', 'verify', 'render')\n"),
    "scan T3.1 --axis": (2, "", _SCAN_USAGE + "wrightmaps scan: error: argument --axis: expected one argument\n"),
    "verify T3.1 --sigma -0.5,0": (2, "", _VERIFY_USAGE + "wrightmaps verify: error: argument --sigma: "
                                   "expected one argument\n"),
    "verify -h": (0, _VERIFY_USAGE + f"\npositional arguments:\n  {_IDS}\n\noptions:\n"
                  "  -h, --help            show this help message and exit\n"
                  "  --ctrl-max-terms CTRL_MAX_TERMS\n  --ctrl-tol CTRL_TOL\n  --seed SEED\n"
                  "  --config CONFIG\n  --show-config\n  --p1 P1\n  --p2 P2\n  --sigma SIGMA\n"
                  "  --order ORDER\n  --b1 B1\n  --gate GATE\n  --f F\n  --count COUNT\n  --nmax NMAX\n"
                  "  --radii RADII\n  --theta-count THETA_COUNT\n", ""),
}


@pytest.mark.parametrize("line", list(_ARGPARSE_OUTPUT))
def test_main_keeps_argparse_usage_errors_and_help(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    assert _build_parser().parse_plain(argv) is None
    got = _outcome(main, argv)
    assert got == _outcome(_build_parser.__wrapped__().parse_args, argv)
    if sys.version_info[:2] == (3, 11):  # argparse's wording differs between Python versions
        assert got == _ARGPARSE_OUTPUT[line]


@pytest.mark.parametrize(
    "line, stdout",
    [
        ("check T3.1 --p1 2,1,2,1 --sig 0.1",  # an abbreviated option
         "T3.1 as_stated: lhs=0.7497005401010617 rhs=1 margin=0.2502994598989383 satisfied=true\n"
         "T3.1 as_derived: lhs=0.7497005401010617 rhs=1 margin=0.2502994598989383 satisfied=true\n"
         "gate=derived result=pass\n"),
        ("eval --p 1,1,1,1 --z -0.5",  # a separate value starting with '-'
         "wright = 0.55913414441898,0\nnormalized = -0.27956707220949,0\n"),
    ],
)
def test_argparse_still_parses_the_other_forms(line, stdout):
    argv = line.split()
    assert _build_parser().parse_plain(argv) is None
    assert _outcome(main, argv) == (0, stdout, "")


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("wrightmaps ")]
    return [shlex.split(line.split("#")[0])[1:] for line in lines]


def test_plain_command_lines_skip_argparse(monkeypatch, tmp_path, capsys):
    valid = [argv for argv in _PARSER_ARGVS if isinstance(_parsed(_build_parser.__wrapped__(), argv), dict)]
    examples = _readme_examples()
    assert (len(valid), len(examples)) == (len(_PARSER_ARGVS) - 4, 6)
    parser = _build_parser()

    def refuse(argv):
        raise AssertionError(f"argparse parsed {argv}")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.chdir(tmp_path)  # the scan and render examples write their files here
    for argv in valid + examples:
        assert vars(parser.parse_plain(argv)) == _parsed(_build_parser.__wrapped__(), argv), argv
        assert main(argv) in range(5)
    capsys.readouterr()


_OTHER_OPTIONS = st.sampled_from(["--sig", "--ord", "--ax", "--show", "--ctrl", "--c", "--th", "--he", "--help",
                                   "--bogus", "--P1", "--width", "--z", "-p", "-h", "--", "-"])
_VALUE = _mostly(st.sampled_from(["1,1,1,1", "0.5", "", "a b", "x=y", "sigma=0:1:0.5", "T3.1", "random", "-0.5=1"]),
                 st.sampled_from(["-0.5", "-1e3", "--p", "-", "--", "-h"]))


def _plain_tokens(keys):
    """Option tokens four in five of the plain form, over options named `keys` four in five."""
    option = _mostly(st.sampled_from([f"--{key}" for key in keys]), _OTHER_OPTIONS)
    return _mostly(
        st.one_of(
            st.tuples(option, _VALUE).map(list),  # --key value
            st.builds("{}={}".format, option, _VALUE).map(lambda token: [token]),  # --key=value
            st.just(["--show-config"]),
        ),
        st.sampled_from(["--show-config=x", "--show-config=", "T3.1", "-0.5", "-h", "--", "-"]).map(
            lambda token: [token]),
    )


_COMMAND_TOKENS = {cmd: _plain_tokens((*_GLOBAL_DEFAULTS, "config", *keys)) for cmd, keys in _CMD_DEFAULTS.items()}


@st.composite
def _command_lines(draw):
    """argv of the plain form, or off it at one token or more."""
    cmd = draw(_mostly(st.sampled_from(sorted(_CMD_DEFAULTS)), st.sampled_from(["frobnicate", "", "-h", "--p"])))
    argv = [cmd]
    if draw(_mostly(st.just(cmd in _THEOREM_COMMANDS), st.booleans())):
        argv.append(draw(_mostly(st.sampled_from(THEOREM_IDS), st.sampled_from(["T9.9", "c1", "", "--p1"]))))
    for chunk in draw(st.lists(_COMMAND_TOKENS.get(cmd, _COMMAND_TOKENS["eval"]), max_size=5)):
        argv += chunk
    return argv


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(_command_lines())
def test_plain_parse_equals_argparse(argv):
    plain = _build_parser().parse_plain(argv)
    if plain is not None:
        assert vars(plain) == _parsed(_build_parser(), argv), argv

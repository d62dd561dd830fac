"""Correctness checks of one operation's exit code and output.

``check(op, rc, stdout, stderr, digests)`` returns a list of problems; an
empty list means the operation passed.  Series values are compared with mpmath
references computed here, outside the timed section.  The allowed error is
the documented ``tail_tol`` (1e-14, the CLI default) plus four ulps per
summed term relative to the value; it is not widened to hide the loss to
cancellation that plain summation suffers for |z| of a few units.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import xml.etree.ElementTree as ET

from workloads import PARAM_NAMES

TAIL_TOL = 1e-14
MAX_TERMS = 2000
ULP = 2.0**-52
ULPS_PER_TERM = 4.0

SCAN_HEADER = ["theorem", *PARAM_NAMES, "lhs_stated", "rhs_stated", "sat_stated",
               "lhs_derived", "rhs_derived", "sat_derived"]

_NUM = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))"
_REPORT = re.compile(
    rf"^(\S+) (as_stated|as_derived): lhs={_NUM} rhs={_NUM} margin={_NUM} satisfied=(true|false)$"
)
_VERDICT = re.compile(r"^f\[(\d+)\]: (CONSISTENT|VACUOUS|COUNTEREXAMPLE)\b(.*)$")
_SUMMARY = re.compile(r"^verdicts: (\d+) consistent, (\d+) vacuous, (\d+) counterexample$")
_MIN = re.compile(rf"min dtheta_arg_f(?:theta)? = {_NUM}\)$")


# ------------------------------- references ---------------------------------


def _stop_terms(log_mag, first, last, min_n):
    """Terms summed under the documented stop rule, or None past the budget.

    The rule stops at the first n >= min_n whose magnitude is at most half
    the previous one and at most tail_tol / 2.
    """
    prev = math.inf
    for n in range(first, last + 1):
        lm = log_mag(n)
        if n >= min_n and lm <= prev - math.log(2) and lm <= math.log(TAIL_TOL / 2):
            return n - first + 1
        prev = lm
    return None


def _parse_p(text):
    return tuple(float(s) for s in text.split(","))


def _mp_series(mp, a, b, g, d, z, weights, start):
    """sum_{n>=start} w(n) z^n / (Gamma(a+(n-start)b) Gamma(g+(n-start)d)) per weight, in mpmath.

    Summation runs until the n^3-weighted terms are decreasing and below
    1e-24, ten orders of magnitude under the smallest tolerance checked.
    """
    sums = [mp.mpf(0)] * len(weights)
    zn = mp.mpc(z) ** start
    prev = mp.inf
    n = start
    while True:
        k = n - start
        t = zn * mp.rgamma(a + k * b) * mp.rgamma(g + k * d)
        mag = abs(t) * max(1, n) ** 3
        for i, w in enumerate(weights):
            sums[i] += w(n) * t
        if mag < prev and mag <= 1e-24:
            return sums
        prev = mag
        zn *= z
        n += 1


def eval_reference(p_text, z_text):
    """(terms_wright, terms_normalized, wright, normalized) for `eval`; terms None = exit 3."""
    import mpmath

    a, b, g, d = _parse_p(p_text)
    z = complex(float(z_text[0]), float(z_text[1]))
    lr = math.log(abs(z))
    la, lg = math.lgamma(a), math.lgamma(g)
    n_w = _stop_terms(lambda n: n * lr - math.lgamma(a + n * b) - math.lgamma(g + n * d),
                      0, MAX_TERMS - 1, 1)
    n_n = _stop_terms(
        lambda n: la + lg + n * lr - math.lgamma(a + (n - 1) * b) - math.lgamma(g + (n - 1) * d),
        1, MAX_TERMS, 2)
    if n_w is None or n_n is None:
        return n_w, n_n, None, None
    peak = max(n * lr - math.lgamma(a + n * b) - math.lgamma(g + n * d) for n in range(n_w))
    with mpmath.workdps(25 + max(0, math.ceil(peak / math.log(10)))):
        zm = mpmath.mpc(z.real, z.imag)
        (w,) = _mp_series(mpmath, mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(g), mpmath.mpf(d),
                          zm, [lambda n: 1], 0)
        nv = zm * mpmath.gamma(a) * mpmath.gamma(g) * w
        return n_w, n_n, complex(w), complex(nv)


def derivs_reference(p_text):
    """(terms, [W(1), W'(1), W''(1), W'''(1)]) of the normalized series."""
    import mpmath

    a, b, g, d = _parse_p(p_text)
    la, lg = math.lgamma(a), math.lgamma(g)
    terms = _stop_terms(
        lambda n: 3 * math.log(n) + la + lg - math.lgamma(a + (n - 1) * b)
        - math.lgamma(g + (n - 1) * d), 1, MAX_TERMS, 2)
    with mpmath.workdps(25):
        weights = [lambda n: 1, lambda n: n, lambda n: n * (n - 1), lambda n: n * (n - 1) * (n - 2)]
        sums = _mp_series(mpmath, mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(g), mpmath.mpf(d),
                          mpmath.mpf(1), weights, 1)
        scale = mpmath.gamma(a) * mpmath.gamma(g)
        return terms, [float(s.real * scale) for s in sums]


def _close(got, want, terms):
    return abs(got - want) <= TAIL_TOL + ULPS_PER_TERM * ULP * (terms + 1) * abs(want)


# --------------------------------- checks -----------------------------------


def _check_eval(op, rc, lines):
    n_w, n_n, w, nv = eval_reference(op.expect["p"], op.expect["z"])
    if w is None:
        return [] if rc == 3 else [f"expected exit 3 (series needs > {MAX_TERMS} terms), got {rc}"]
    if rc != 0:
        return [f"expected exit 0, got {rc}"]
    got = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        re_, _, im = value.partition(",")
        got[key] = complex(float(re_), float(im))
    problems = []
    for key, want, terms in (("wright", w, n_w), ("normalized", nv, n_n)):
        if key not in got:
            problems.append(f"missing {key} line")
        elif not _close(got[key], want, terms):
            problems.append(f"{key} = {got[key]!r}, reference {want!r}, "
                            f"error {abs(got[key] - want):.3g} over tolerance")
    return problems


def _check_derivs(op, rc, lines):
    terms, want = derivs_reference(op.expect["p"])
    if rc != 0:
        return [f"expected exit 0, got {rc}"]
    names = ("w1", "wp1", "wpp1", "wppp1")
    got = dict(line.split(" = ", 1) for line in lines if " = " in line)
    problems = []
    for name, ref in zip(names, want):
        if name not in got:
            problems.append(f"missing {name} line")
        elif not _close(float(got[name]), ref, terms):
            problems.append(f"{name} = {got[name]}, reference {ref!r}")
    return problems


def _report_ok(match):
    lhs, rhs, margin = (float(x) for x in match.group(3, 4, 5))
    satisfied = match.group(6) == "true"
    if not all(math.isfinite(v) for v in (lhs, rhs, margin)):
        return False
    # Printed with 16 digits: only a strict order of the printed values is binding.
    return not ((lhs < rhs and not satisfied) or (lhs > rhs and satisfied))


def _check_check(op, rc, lines):
    if len(lines) != 3:
        return [f"expected 3 output lines, got {len(lines)}"]
    reports = [_REPORT.match(line) for line in lines[:2]]
    if not all(reports) or [m.group(2) for m in reports] != ["as_stated", "as_derived"]:
        return [f"malformed report lines {lines[:2]!r}"]
    problems = []
    for m in reports:
        if m.group(1) != op.expect["theorem"]:
            problems.append(f"report for {m.group(1)}, asked {op.expect['theorem']}")
        if not _report_ok(m):
            problems.append(f"satisfied disagrees with lhs <= rhs: {m.group(0)}")
    gate = op.expect["gate"]
    gated = reports[1] if gate == "derived" else reports[0]
    want_result = "pass" if gated.group(6) == "true" else "fail"
    if lines[2] != f"gate={gate} result={want_result}":
        problems.append(f"gate line {lines[2]!r} does not match the gated report")
    if rc != (0 if want_result == "pass" else 1):
        problems.append(f"exit {rc} does not match result={want_result}")
    return problems


def _check_render(op, rc, lines):
    if rc != 0:
        return [f"expected exit 0, got {rc}"]
    want = op.expect
    if lines != [f"wrote {op.out} ({want['curves']} curves, {want['theta_count']} points each)"]:
        return [f"unexpected output {lines!r}"]
    root = ET.parse(op.out).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(polylines) != want["curves"]:
        return [f"{len(polylines)} polylines, expected {want['curves']}"]
    for pl in polylines:
        pts = pl.get("points").split()
        if len(pts) != want["theta_count"] + 1 or pts[0] != pts[-1]:
            return ["a curve is not a closed polyline of theta_count points"]
        if not all(math.isfinite(float(v)) for pt in pts for v in pt.split(",")):
            return ["non-finite curve point"]
    return []


def _check_scan(op, rc, lines, digests):
    if rc != 0:
        return [f"expected exit 0, got {rc}"]
    with open(op.out, "rb") as fh:
        data = fh.read()
    digests.append(hashlib.sha256(data).hexdigest())
    if lines != [f"wrote {op.items} rows to {op.out}"]:
        return [f"unexpected output {lines!r}"]
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != SCAN_HEADER:
        return [f"header {rows[0]!r}"]
    body = rows[1:]
    if len(body) != op.items:
        return [f"{len(body)} rows, expected {op.items}"]
    (outer, outer_vals), (inner, inner_vals) = op.expect["axes"]
    col = {name: i for i, name in enumerate(SCAN_HEADER)}
    fixed = [(col[n], v) for n, v in op.expect["fixed"].items()]
    tid = op.expect["theorem"]
    for k, row in enumerate(body):
        if len(row) != len(SCAN_HEADER) or row[0] != tid:
            return [f"row {k} malformed"]
        nums = [float(x) for i, x in enumerate(row[1:], 1)
                if i not in (col["sat_stated"], col["sat_derived"])]
        if not all(math.isfinite(v) for v in nums):
            return [f"row {k} has a non-finite value"]
        if (float(row[col[outer]]) != outer_vals[k // len(inner_vals)]
                or float(row[col[inner]]) != inner_vals[k % len(inner_vals)]
                or any(float(row[i]) != v for i, v in fixed)):
            return [f"row {k} parameters differ from the requested grid"]
        for form in ("stated", "derived"):
            lhs, rhs = float(row[col["lhs_" + form]]), float(row[col["rhs_" + form]])
            if row[col["sat_" + form]] != ("true" if lhs <= rhs else "false"):
                return [f"row {k}: sat_{form} disagrees with lhs <= rhs"]
    return []


def _check_verify(op, rc, lines):
    count = op.expect["count"]
    verdicts = [_VERDICT.match(line) for line in lines[:-1]]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if not summary or not all(verdicts):
        return [f"malformed verify output {lines[:3]!r}..."]
    problems = []
    if [int(m.group(1)) for m in verdicts] != list(range(count)):
        problems.append(f"{len(verdicts)} verdict lines, expected {count}")
    kinds = [m.group(2) for m in verdicts]
    tally = tuple(int(x) for x in summary.groups())
    if tally != (kinds.count("CONSISTENT"), kinds.count("VACUOUS"), kinds.count("COUNTEREXAMPLE")):
        problems.append(f"summary {lines[-1]!r} does not match the verdict lines")
    if "COUNTEREXAMPLE" in kinds:
        problems.append("COUNTEREXAMPLE verdict on an in-premise input")
    order = float(op.argv[op.argv.index("--order") + 1])
    for m in verdicts:
        found = _MIN.search(m.group(3))
        if found and not float(found.group(1)) >= order - 1e-9:
            problems.append(f"CONSISTENT with oracle minimum below the order: {m.group(0)}")
    if rc != 0:
        problems.append(f"expected exit 0, got {rc}")
    return problems


def check(op, rc, stdout, stderr, digests):
    """Problems found in one operation's result; scan CSV digests go to `digests`."""
    if rc is None:
        return [f"raised {stderr.strip()}"]
    lines = stdout.splitlines()
    kind_check = {"eval": _check_eval, "derivs": _check_derivs, "check": _check_check,
                  "render": _check_render, "verify": _check_verify}
    try:
        if op.kind == "scan":
            return _check_scan(op, rc, lines, digests)
        return kind_check[op.kind](op, rc, lines)
    except (ValueError, IndexError, AttributeError, OSError, ET.ParseError) as exc:
        # The output is not in the format the command documents.
        return [f"unreadable output ({type(exc).__name__}: {exc})"]

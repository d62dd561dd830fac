"""Command line: series evaluation, condition checks, grid scans, oracle runs, SVG.

Exit codes: 0 pass, 1 hypothesis/criterion fail, 2 domain or usage error,
3 series non-convergence or overflow, 4 I/O failure.  Every option can also
be supplied in a ``key = value`` config file (``#`` comments allowed, unknown
keys rejected); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import math
import sys

import numpy as np

from .criteria import (
    DEFAULT_EPSILONS,
    THEOREM_IDS,
    THEOREMS,
    class_bound_coeffs,
    close_to_convex_lhs,
    hypothesis_columns,
    stated_hypothesis,
)
from .errors import ConvergenceError, DomainError, check_integer
from .mappings import (
    CoefficientSeq,
    ConvolutionSpec,
    ImageCoefficients,
    convolve,
    convolve_each,
    random_coefficients,
)
from .oracle import SampleGrid, sweep
from .wright import SeriesControl, WrightParams, derivs_at_one, normalized_eval, wright_eval

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NONCONV = 3
EXIT_IO = 4

_GLOBAL_DEFAULTS = {"ctrl-max-terms": "2000", "ctrl-tol": "1e-14", "seed": "0"}

# Options of the commands that evaluate one identifier's hypothesis.
_HYPOTHESIS = {"p1": None, "p2": "", "sigma": "0", "order": "0", "b1": "0", "gate": "derived"}

# Per-command option defaults; None marks a required option, lists are
# repeatable options (';'-separated when given through a config file).
_CMD_DEFAULTS = {
    "eval": {"p": None, "z": "1,0"},
    "derivs": {"p": None},
    "check": _HYPOTHESIS,
    "scan": {"axis": None, "fix": [], "out": None},
    "verify": {
        **_HYPOTHESIS,
        "f": "random",
        "count": "20",
        "nmax": "50",
        "radii": "0.5,0.9,0.99",
        "theta-count": "4096",
    },
    "render": {
        "f": "identity",
        "p1": "",
        "p2": "",
        "sigma": "",
        "nmax": "12",
        "radii": "0.25,0.5,0.75,0.9",
        "theta-count": "512",
        "width": "800",
        "height": "800",
        "out": None,
    },
}

_LIST_OPTIONS = {"axis", "fix"}

# Commands that take a theorem identifier before their options.
_THEOREM_COMMANDS = ("check", "scan", "verify")
# The two forms of every hypothesis report, in stated_hypothesis's order; --gate names one.
_FORMS = ("stated", "derived")
# Largest scan or circle grid, in points, coefficient index and series term budget;
# checked before allocating or summing.
_MAX_POINTS = 1_000_000

_PARAM_NAMES = (
    "alpha1",
    "beta1",
    "gamma1",
    "delta1",
    "alpha2",
    "beta2",
    "gamma2",
    "delta2",
    "sigma",
    "order",
    "b1",
)

# lhs, rhs and satisfied of each form's report follow the parameters in every row.
_SCAN_HEADER = list(_PARAM_NAMES) + [f"{col}_{form}" for form in _FORMS for col in ("lhs", "rhs", "sat")]


# ----------------------------- value parsing --------------------------------


def _parse_float(text, key):
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_int(text, key, minimum=None, maximum=None):
    """int(text), at least `minimum` (by check_integer) and at most `maximum` where given."""
    try:
        value = int(text)
    except ValueError:
        raise DomainError(f"{key}: expected an integer, got {text!r}") from None
    if maximum is not None and value > maximum:
        raise DomainError(f"{key} must be <= {maximum}, got {value}")
    return value if minimum is None else check_integer(value, minimum, key)


def parse_params(text: str) -> WrightParams:
    """'alpha,beta,gamma,delta' -> WrightParams."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise DomainError(f"expected 'alpha,beta,gamma,delta', got {text!r}")
    return WrightParams(*(_parse_float(s, "params") for s in parts))


def parse_complex(text: str) -> complex:
    """'re' or 're,im' -> complex."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) not in (1, 2):
        raise DomainError(f"expected 're' or 're,im', got {text!r}")
    re = _parse_float(parts[0], "complex")
    im = _parse_float(parts[1], "complex") if len(parts) == 2 else 0.0
    return complex(re, im)


def _fmt(x: float) -> str:
    return f"{float(x):.16g}"


def _csv_num(x: float) -> str:
    return f"{float(x):.17g}"


# ------------------------- config file / merging ----------------------------


def load_config(path: str, allowed) -> dict:
    """Read 'key = value' lines; '#' starts a comment; unknown keys rejected."""
    merged = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in allowed:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        merged[key] = value
    return merged


def _effective_options(cmd: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, all at string level."""
    table = dict(_GLOBAL_DEFAULTS)
    table.update(_CMD_DEFAULTS[cmd])
    if args.config:
        for key, value in load_config(args.config, set(table)).items():
            table[key] = [s.strip() for s in value.split(";")] if key in _LIST_OPTIONS else value
    for key in list(table):
        provided = getattr(args, key.replace("-", "_"), None)
        if provided not in (None, []):
            table[key] = provided
    missing = sorted(k for k, v in table.items() if v is None)
    if missing:
        raise DomainError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return table


def _show_config(cmd: str, opts: dict) -> None:
    print(f"# effective configuration ({cmd})")
    for key in sorted(opts):
        value = opts[key]
        if isinstance(value, list):
            value = "; ".join(value)
        print(f"{key} = {value}")


def _ctrl(opts) -> SeriesControl:
    # At most _MAX_POINTS terms: a barely decaying kernel spends the whole budget.
    return SeriesControl(
        _parse_int(opts["ctrl-max-terms"], "ctrl-max-terms", maximum=_MAX_POINTS),
        _parse_float(opts["ctrl-tol"], "ctrl-tol"),
    )


def _conv_spec(opts) -> ConvolutionSpec:
    p1 = parse_params(opts["p1"])
    p2 = parse_params(opts["p2"]) if opts["p2"] else p1
    return ConvolutionSpec(p1, p2, parse_complex(opts["sigma"]))


def _gate(opts) -> int:
    """Index of the report --gate selects in an (as_stated, as_derived) pair."""
    if opts["gate"] not in _FORMS:
        raise DomainError(f"gate must be 'stated' or 'derived', got {opts['gate']!r}")
    return _FORMS.index(opts["gate"])


# ------------------------------ coefficient csv -----------------------------

# Index of the first coefficient of each part: A_2.. and B_1..
_FIRST_INDEX = {"a": 2, "b": 1}


def write_coeff_csv(path: str, f: CoefficientSeq) -> None:
    """Serialize a CoefficientSeq as rows part,n,re,im (part 'a' from n=2, 'b' from n=1)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["part", "n", "re", "im"])
        for part, coeffs in zip(_FIRST_INDEX, (f.a, f.b)):
            for k, v in enumerate(coeffs):
                writer.writerow([part, k + _FIRST_INDEX[part], _csv_num(v.real), _csv_num(v.imag)])


def read_coeff_csv(path: str) -> CoefficientSeq:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [None]
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or not CSV
        raise DomainError(f"cannot parse coefficient file {path}: {exc}") from None
    if header is None or [s.strip() for s in header] != ["part", "n", "re", "im"]:
        raise DomainError(f"{path}: expected header 'part,n,re,im'")
    values = {part: {} for part in _FIRST_INDEX}
    for row in filter(None, rows):
        if len(row) != 4:
            raise DomainError(f"{path}: malformed row {row!r}")
        part, n = row[0].strip(), _parse_int(row[1], "n")
        val = complex(_parse_float(row[2], "re"), _parse_float(row[3], "im"))
        if part not in _FIRST_INDEX or not _FIRST_INDEX[part] <= n <= _MAX_POINTS:
            raise DomainError(f"{path}: bad part/index {part!r}/{n} (n at most {_MAX_POINTS})")
        if n in values[part]:
            raise DomainError(f"{path}: repeated part/index {part!r}/{n}")
        values[part][n] = val
    seqs = {}
    for part, n0 in _FIRST_INDEX.items():
        seqs[part] = np.zeros(max(values[part], default=n0 - 1) - n0 + 1, dtype=complex)
        for n, v in values[part].items():
            seqs[part][n - n0] = v
    return CoefficientSeq(seqs["a"], seqs["b"])


# --------------------------------- commands ---------------------------------


def _cmd_eval(opts) -> int:
    """evaluate the series at a point"""
    p = parse_params(opts["p"])
    z = parse_complex(opts["z"])
    ctrl = _ctrl(opts)
    w = wright_eval(p, z, ctrl)
    nv = normalized_eval(p, z, ctrl)
    print(f"wright = {_fmt(w.real)},{_fmt(w.imag)}")
    print(f"normalized = {_fmt(nv.real)},{_fmt(nv.imag)}")
    return EXIT_OK


def _cmd_derivs(opts) -> int:
    """derivative values at z = 1"""
    d = derivs_at_one(parse_params(opts["p"]), _ctrl(opts))
    for name in ("w1", "wp1", "wpp1", "wppp1"):
        print(f"{name} = {_fmt(getattr(d, name))}")
    return EXIT_OK


def _report_line(rep) -> str:
    return (
        f"{rep.id} {rep.form}: lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)} "
        f"margin={_fmt(rep.margin)} satisfied={str(rep.satisfied).lower()}"
    )


def _cmd_check(theorem: str, opts) -> int:
    """check one sufficient condition"""
    gate = _gate(opts)
    reports = stated_hypothesis(
        theorem,
        _conv_spec(opts),
        _parse_float(opts["order"], "order"),
        _parse_float(opts["b1"], "b1"),
        _ctrl(opts),
    )
    for rep in reports:
        print(_report_line(rep))
    gated = reports[gate]
    print(f"gate={opts['gate']} result={'pass' if gated.satisfied else 'fail'}")
    return EXIT_OK if gated.satisfied else EXIT_FAIL


def _param_setting(text: str, flag: str, form: str):
    """'name=rest' with name a scan parameter -> (name, rest)."""
    if "=" not in text:
        raise DomainError(f"{flag} must look like '{form}', got {text!r}")
    name, rest = (s.strip() for s in text.split("=", 1))
    if name not in _PARAM_NAMES:
        raise DomainError(f"unknown scan parameter {name!r}; known: {', '.join(_PARAM_NAMES)}")
    return name, rest


def _axis_range(text: str):
    """'name=start:stop:step' -> (name, start, step, count): the axis holds start + k*step
    for every k < count, the values up to stop + 1e-12 max(1, step)."""
    name, spec = _param_setting(text, "axis", "name=start:stop:step")
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"axis range must be 'start:stop:step', got {spec!r}")
    start, stop, step = (_parse_float(s, name) for s in parts)
    if step <= 0:
        raise DomainError(f"axis step must be > 0, got {step}")
    limit = stop + 1e-12 * max(1.0, abs(step))
    # start + k*step rounds monotonically in k, so the values in range are those
    # before the first k out of range.
    count = bisect.bisect_right(range(_MAX_POINTS + 1), limit, key=lambda k: start + k * step)
    if count > _MAX_POINTS:
        raise DomainError(f"axis {name} has more than {_MAX_POINTS} values")
    if not count:
        raise DomainError(f"axis produced no values (start={start}, stop={stop}, step={step})")
    return name, start, step, count


def _parse_axis(text: str):
    """'name=start:stop:step' -> (name, array of start + k*step for k = 0, 1, ... up to stop)."""
    name, start, step, count = _axis_range(text)
    return name, start + np.arange(count) * step  # the bits of start + k*step


def _csv_column(values):
    """_csv_num of every value, formatting each distinct value (bit for bit) once."""
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return np.array([_csv_num(v) for v in bits.view(float).tolist()], dtype=object)[index].tolist()


def _cmd_scan(theorem: str, opts) -> int:
    """grid scan to CSV"""
    grid = {name: 1.0 for name in _PARAM_NAMES}
    grid.update({"sigma": 0.0, "order": 0.0, "b1": 0.0})
    for text in opts["fix"]:
        name, value = _param_setting(text, "fix", "name=value")
        grid[name] = _parse_float(value, name)
    shape = [_axis_range(text)[-1] for text in opts["axis"]]
    if math.prod(shape) > _MAX_POINTS:
        raise DomainError(f"scan grid has {math.prod(shape)} points, more than {_MAX_POINTS}")
    ctrl = _ctrl(opts)
    axes = [_parse_axis(text) for text in opts["axis"]]
    for k, (name, values) in enumerate(axes):  # a later axis over the same name wins
        grid[name] = np.reshape(values, [-1 if j == k else 1 for j in range(len(axes))])
    # Every parameter's value at every point, the first axis varying slowest.
    col = {name: np.broadcast_to(value, shape).ravel() for name, value in grid.items()}
    kernels = (np.stack([col[q + k] for q in ("alpha", "beta", "gamma", "delta")], axis=1) for k in "12")
    reports = hypothesis_columns(theorem, *kernels, col["sigma"], col["order"], col["b1"], ctrl)
    columns = [[theorem] * len(col["sigma"])] + [_csv_column(col[name]) for name in _PARAM_NAMES]
    for lhs, rhs, satisfied in reports:
        columns += [_csv_column(lhs), _csv_column(rhs), np.where(satisfied, "true", "false").tolist()]
    # No field holds a comma, quote or line break, so plain joins write csv.writer's bytes.
    with open(opts["out"], "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["theorem"] + _SCAN_HEADER) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    print(f"wrote {len(columns[0])} rows to {opts['out']}")
    return EXIT_OK


def _mapping_sources(opts):
    """Mappings named by --f: identity, random (--count of them, else one, drawn
    lazily from --seed), classbound:<class> or file:<path>."""
    source = opts["f"]
    nmax = _parse_int(opts["nmax"], "nmax", maximum=_MAX_POINTS)
    seed = _parse_int(opts["seed"], "seed", minimum=0)
    if source == "identity":
        return [CoefficientSeq()]
    if source == "random":
        count = _parse_int(opts.get("count", "1"), "count", minimum=1)
        rng = np.random.default_rng(seed)
        return (random_coefficients(rng, nmax) for _ in range(count))
    if source.startswith("classbound:"):
        klass = source.split(":", 1)[1]
        a_abs, b_abs = class_bound_coeffs(klass, _parse_float(opts.get("b1", "0"), "b1"), nmax)
        return [CoefficientSeq(a_abs.astype(complex), b_abs.astype(complex))]
    if source.startswith("file:"):
        return [read_coeff_csv(source.split(":", 1)[1])]
    raise DomainError(
        f"f source must be identity, random, classbound:<class> or file:<path>, got {source!r}"
    )


def _circle_grid(opts):
    """(radii, theta_count) from --radii and --theta-count, at most _MAX_POINTS samples."""
    radii = [_parse_float(s, "radii") for s in opts["radii"].split(",")]
    theta_count = _parse_int(opts["theta-count"], "theta-count")
    if len(radii) * theta_count > _MAX_POINTS:
        raise DomainError(f"{len(radii)} radii x {theta_count} angles is more than {_MAX_POINTS} points")
    return radii, theta_count


def _cmd_verify(theorem: str, opts) -> int:
    """criteria vs geometric oracle"""
    gate = _gate(opts)
    spec = _conv_spec(opts)
    order = _parse_float(opts["order"], "order")
    ctrl = _ctrl(opts)
    grid = SampleGrid(*_circle_grid(opts))
    counts = {"CONSISTENT": 0, "VACUOUS": 0, "COUNTEREXAMPLE": 0}
    route = THEOREMS[theorem]
    quantity = route.quantity
    # Only T5.1 and T5.4 read |B_1|, each mapping its own; the others pass 0, so one report serves all.
    reports = functools.lru_cache(maxsize=1)(lambda b1: stated_hypothesis(theorem, spec, order, b1, ctrl))
    for k, img in enumerate(convolve_each(_mapping_sources(opts), spec)):
        gated = reports(abs(img.g[1]) if route.uses_b1 and img.g.size > 1 else 0.0)[gate]
        if not gated.satisfied:
            counts["VACUOUS"] += 1
            print(f"f[{k}]: VACUOUS ({gated.form} lhs={_fmt(gated.lhs)} > rhs={_fmt(gated.rhs)})")
            continue
        if quantity:
            rep = sweep(img, grid, quantity, order - 1e-9, limit=1)
            v = rep.violations[0] if rep.violations else None
            failure = v and (
                f"{quantity} at r={_fmt(v.point.r)} "
                f"theta={_fmt(v.point.theta)} value={_fmt(v.value)} ({v.kind})"
            )
            success = f"min {quantity} = {_fmt(rep.min_value)}"
        else:
            if DEFAULT_EPSILONS.size * max(img.h.size, img.g.size) > _MAX_POINTS:
                raise DomainError(f"the epsilon probe would evaluate more than {_MAX_POINTS} points")
            lhs = close_to_convex_lhs(img)
            bad = np.flatnonzero(~(lhs <= 1))  # a NaN fails, as in the probe's reports
            failure = bad.size and f"close-to-convex probe L5[eps{bad[0]}] lhs={_fmt(lhs[bad[0]])} > 1"
            success = f"all {lhs.size} epsilon probes pass"
        counts["COUNTEREXAMPLE" if failure else "CONSISTENT"] += 1
        print(f"f[{k}]: COUNTEREXAMPLE {failure}" if failure else f"f[{k}]: CONSISTENT ({success})")
    print(
        f"verdicts: {counts['CONSISTENT']} consistent, {counts['VACUOUS']} vacuous, "
        f"{counts['COUNTEREXAMPLE']} counterexample"
    )
    return EXIT_FAIL if counts["COUNTEREXAMPLE"] else EXIT_OK


# --------------------------------- rendering --------------------------------


def sample_boundary_curves(img: ImageCoefficients, radii, theta_count: int):
    """Image of each circle |z| = r under the mapping at theta_count angles, in increasing r."""
    theta_count = check_integer(theta_count, 64, "theta_count")
    with np.errstate(over="ignore", invalid="ignore"):
        values = SampleGrid(radii, theta_count).circle_values(img.h, img.g)
    if not np.isfinite(values).all():
        raise ConvergenceError("boundary curve overflows: a sampled value is not finite")
    return list(values)


def curves_to_svg(curves, width: int, height: int) -> str:
    """SVG 1.1 document: one closed polyline per curve plus coordinate axes."""
    width, height = check_integer(width, 1, "width"), check_integer(height, 1, "height")
    xs = np.concatenate([c.real for c in curves] + [np.zeros(1)])
    ys = np.concatenate([-c.imag for c in curves] + [np.zeros(1)])  # screen y grows downward
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    vb = (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)
    stroke = span / 400
    if not all(map(math.isfinite, (*vb, vb[0] + vb[2], vb[1] + vb[3], 2 * stroke))):
        raise ConvergenceError(f"boundary curves overflow the viewport (span {span:.3g})")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="{vb[0]:.12g} {vb[1]:.12g} {vb[2]:.12g} {vb[3]:.12g}">',
        f'  <line x1="{vb[0]:.12g}" y1="0" x2="{vb[0] + vb[2]:.12g}" y2="0" '
        f'stroke="#999" stroke-width="{stroke:.12g}"/>',
        f'  <line x1="0" y1="{vb[1]:.12g}" x2="0" y2="{vb[1] + vb[3]:.12g}" '
        f'stroke="#999" stroke-width="{stroke:.12g}"/>',
    ]
    for curve in curves:
        closed = np.concatenate([curve, curve[:1]])
        xy = np.stack([closed.real, -closed.imag], axis=1).ravel().tolist()  # x0, y0, x1, ...
        points = " ".join(["%.12g,%.12g"] * len(closed)) % tuple(xy)
        lines.append(
            f'  <polyline fill="none" stroke="#1f4e9c" stroke-width="{2 * stroke:.12g}" '
            f'points="{points}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(opts) -> int:
    """boundary curves to SVG"""
    radii, theta_count = _circle_grid(opts)
    width = _parse_int(opts["width"], "width")
    height = _parse_int(opts["height"], "height")
    [f] = _mapping_sources(opts)
    if opts["f"] == "random":
        scale = 0.45 / max(np.abs(f.a).sum() + np.abs(f.b).sum(), 1.0)  # keep it univalent-ish
        f = CoefficientSeq(f.a * scale, f.b * scale)

    if opts["p1"] or opts["p2"] or opts["sigma"]:
        # Render's kernel options are optional: p1 defaults to 1,1,1,1 and sigma to 0.
        kernel = {"p1": opts["p1"] or "1,1,1,1", "p2": opts["p2"], "sigma": opts["sigma"] or "0"}
        img = convolve(f, _conv_spec(kernel))
    else:
        img = ImageCoefficients(f.a, f.b)

    curves = sample_boundary_curves(img, radii, theta_count)
    svg = curves_to_svg(curves, width, height)
    with open(opts["out"], "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {opts['out']} ({len(curves)} curves, {theta_count} points each)")
    return EXIT_OK


# ----------------------------------- main -----------------------------------

# Each command's handler; its docstring is the command's help line.
_COMMANDS = {
    "eval": _cmd_eval,
    "derivs": _cmd_derivs,
    "check": _cmd_check,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


@functools.cache  # built on the first main() call, not at import; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key in (*_GLOBAL_DEFAULTS, "config"):
        common.add_argument(f"--{key}")
    common.add_argument("--show-config", action="store_true")

    parser = argparse.ArgumentParser(
        prog="wrightmaps",
        description="Wright-kernel harmonic mapping toolkit: evaluate, check, scan, verify, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, defaults in _CMD_DEFAULTS.items():
        p_cmd = sub.add_parser(cmd, parents=[common], help=_COMMANDS[cmd].__doc__)
        if cmd in _THEOREM_COMMANDS:
            p_cmd.add_argument("theorem", choices=THEOREM_IDS)
        for key in defaults:
            p_cmd.add_argument(f"--{key}", action="append" if key in _LIST_OPTIONS else "store")
    return parser


@np.errstate(all="ignore")  # every output reports its non-finite values itself
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = args.command
    try:
        opts = _effective_options(cmd, args)
        if args.show_config:
            _show_config(cmd, opts)
        if cmd in _THEOREM_COMMANDS:
            return _COMMANDS[cmd](args.theorem, opts)
        return _COMMANDS[cmd](opts)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

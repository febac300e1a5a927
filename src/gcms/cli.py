"""Command-line front end.

Subcommands emit tables (CSV) or reports (JSON); figures are always data
files for external plotting.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from typing import Iterable, Sequence

from . import measures as ms
from . import thermo as th
from . import verification as vf
from .cylinders import Subbasis, decompose, intersect_many, parse_expression
from .matrices import KINDS, TransitionMatrix, from_dict
from .words import format_word


def _fmt(x: float) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _finite(values: Iterable[float], what: str = "grid values") -> list[float]:
    out = list(values)
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, not {v}")
    return out


def _beta(args: argparse.Namespace) -> float:
    return _finite([args.beta], "--beta")[0]


def _tol(args: argparse.Namespace) -> float:
    """--tol; a nan, infinite or non-positive tolerance would check nothing."""
    tol = _finite([args.tol], "--tol")[0]
    if tol <= 0:
        raise ValueError(f"--tol must be positive, not {tol}")
    return tol


_MAX_GRID_POINTS = 100_000


def _offsets(args: argparse.Namespace) -> list[float]:
    """--approach; an offset at or below 0 would not approach the critical
    beta from above."""
    offsets = _finite((float(x) for x in args.approach.split(",")), "--approach offsets")
    for x in offsets:
        if x <= 0:
            raise ValueError(f"--approach offsets must be positive, not {x}")
    return offsets


def _grid(spec: str) -> list[float]:
    """Parse ``start:stop:step`` or a comma list into a non-empty grid of finite floats."""
    if ":" in spec:
        start, stop, step = _finite(float(p) for p in spec.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        if start + step == start:
            raise ValueError(f"grid step {step} does not move the value {start}")
        # count the points before building any, so no step makes the list run away
        span = (stop + 1e-12 - start) / step
        if span >= _MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points")
        out = [round(start + k * step, 12) for k in range(math.floor(span) + 1)]
    else:
        out = _finite(float(p) for p in spec.split(",") if p.strip())
    if not out:
        raise ValueError("empty beta grid")
    return out


def _load_matrix(args: argparse.Namespace) -> TransitionMatrix:
    if args.matrix_file:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except ValueError as exc:   # malformed JSON, or bytes that are not UTF-8
                raise ValueError(f"{args.matrix_file} is not valid JSON: {exc}") from None
        return from_dict(spec)
    if not args.kind:
        raise ValueError("either --kind or --matrix-file is required")
    return from_dict({"kind": args.kind, "prime_bound": args.prime_bound})


def _emit(args: argparse.Namespace, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    if args.format == "json":
        payload = {"header": list(header), "rows": [[_fmt(v) for v in row] for row in rows]}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    _write(args, text)


def _write(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to the ``--out`` file, or to stdout without one."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _potential(name: str) -> th.Potential:
    if name == "const":
        return th.UNIT_POTENTIAL
    if name == "log":
        return th.LogRatio()
    raise ValueError(f"unknown potential {name!r} (use 'const' or 'log')")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_count(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    families = [args.family] if args.family is not None else vf.counted_families(A)
    rows = []
    all_match = True
    for fam in families:
        for r in vf.counting_suite(A, fam, args.n):
            rows.append((fam, r.n, r.enumerated, r.closed_form, "ok" if r.match else "MISMATCH"))
            all_match &= r.match
    _emit(args, ["family", "n", "enumerated", "closed_form", "match"], rows)
    return 0 if all_match else 1


def cmd_phase(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    potential = _potential(args.potential)
    grid = _grid(args.beta_grid)
    tol = _tol(args)
    rows = [(b, *ms.phase_row(A, potential, b, tol)) for b in grid]
    if isinstance(potential, th.Constant):
        header = ["beta", "boundary_measures", "sequence_measures", "critical_beta"]
    else:
        header = ["beta", "support", "existence", "critical_beta"]
    _emit(args, header, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    tol = _tol(args)
    report: dict = {"kind": A.kind, "suite": args.suite}
    if args.suite == "cylinders":
        rep = vf.cylinder_oracle(A)
        report.update({"elements": rep.n_elems, "pairs": rep.n_pairs,
                       "configs": rep.n_configs, "mismatches": rep.mismatches,
                       "whole_space_cover": rep.whole_space_cover,
                       "seconds": round(rep.seconds, 3)})
        ok = rep.ok
    elif args.suite == "conformality":
        resid = vf.conformality_suite(A, _beta(args))
        report["max_residuals"] = resid
        ok = all(v <= tol for v in resid.values())
    elif args.suite == "pressure":
        resid = vf.pressure_suite(A, _beta(args))
        report["residuals"] = resid
        ok = all(v <= tol for v in resid.values())
    else:   # counting
        fams = vf.counted_families(A)
        mismatch = [f for f in fams
                    if not all(r.match for r in vf.counting_suite(A, f, 10))]
        report["families_checked"] = fams
        report["families_mismatching"] = mismatch
        ok = not mismatch
    report["ok"] = ok
    _write(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def cmd_converge(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    offsets = _offsets(args)
    potential = _potential(args.potential)
    beta_c, model_of, target = ms.convergence(A, potential)
    grid = [beta_c + x for x in offsets]
    basis = [(format_word(w), decompose(Subbasis(A, w)))
             for w in vf.cylinder_words_up_to(A, args.depth, args.symbol_bound)]
    rows = ms.weak_star_sweep(model_of, target, basis, grid)
    _emit(args, ["beta", "set", "value", "target", "abs_diff"],
          [(r.beta, r.set_id, r.value, r.target, r.diff) for r in rows])
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    name = args.measure
    if name == "y":
        m = ms.y_measure(A, args.family, _potential(args.potential), _beta(args))
    elif name == "sarig":
        m = ms.sarig_measure_renewal(A)
    elif name == "pair_critical":
        m = ms.pair_renewal_critical_measure(A)
    else:   # log
        m = ms.log_eigenmeasure(_beta(args), A)
    cyls = vf.cylinder_words_up_to(A, args.depth, args.symbol_bound)
    rep = ms.verify_conformality(m, cyls)
    _write(args, ms.measure_report_json(m, rep.max_residual) + "\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    elems = parse_expression(A, args.expr)
    expr = intersect_many(elems)
    payload = {
        "expression": args.expr,
        "whole_space": expr.whole_space,
        "empty": expr.is_empty,
        "points": [f"stem={format_word(p.stem)};root={p.root.id}" for p in expr.points],
        "cylinders": [format_word(a) for a in expr.atoms],
        "families": [f"prefix={format_word(f.prefix)};symbols={_family_desc(f)}"
                     for f in expr.families],
    }
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _family_desc(f) -> str:
    from . import symbolsets as sset
    return sset.describe(f.symbols)


def cmd_pressure(args: argparse.Namespace) -> int:
    A = _load_matrix(args)
    potential = _potential(args.potential)
    grid = _grid(args.beta_grid)

    # the constant table weighs each letter -1, the unit potential's weight
    F = ms.negate(potential) if isinstance(potential, th.Constant) else potential
    rows = []
    for beta in grid:
        est = th.gurevich_pressure(A, F, beta, 1, args.n_max)
        rows.extend((beta, n, v, est.extrapolated, est.certificate) for n, v in est.values)
    _emit(args, ["beta", "n", "log_Zn_over_n", "extrapolated", "certificate"], rows)
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

# options beyond the matrix and --out ones; each subcommand takes those it reads
_OPTIONS: dict[str, dict] = {
    "--beta": dict(type=float, default=1.2),
    "--beta-grid": dict(default="1.0:2.0:0.25", help="start:stop:step or comma-separated values"),
    "--tol": dict(type=float, default=1e-9),
    "--symbol-bound": dict(type=int, default=6),
    "--depth": dict(type=int, default=4),
    "--potential": dict(default="const"),
    "--format": dict(choices=["csv", "json"], default="csv"),
}


def _subcommand(sub, name: str, fn, summary: str, *options: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    # -1e-3, -1:0:0.5 and -inf are values, not flags (argparse knows only -5, -0.5)
    p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    p.add_argument("--kind", choices=list(KINDS))
    p.add_argument("--matrix-file", help="JSON matrix specification file")
    p.add_argument("--prime-bound", type=int, default=7)
    p.add_argument("--out", help="output path (default: stdout)")
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    p.set_defaults(fn=fn)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: ``main`` may
    run many times in one process, and parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="gcms", allow_abbrev=False,
        description="thermodynamic formalism on generalized countable Markov shifts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "count", cmd_count, "generation counts against closed forms",
                    "--format")
    p.add_argument("--family", type=int)
    p.add_argument("--n", type=int, default=8)

    _subcommand(sub, "phase", cmd_phase, "existence table over a beta grid",
                "--potential", "--beta-grid", "--tol", "--format")

    p = _subcommand(sub, "verify", cmd_verify, "run a verification suite", "--beta", "--tol")
    p.add_argument("--suite", required=True,
                   choices=["cylinders", "conformality", "pressure", "counting"])

    p = _subcommand(sub, "converge", cmd_converge, "measure convergence toward the critical point",
                    "--potential", "--depth", "--symbol-bound", "--format")
    p.add_argument("--approach", default="1e-1,1e-2,1e-3,1e-4,1e-5",
                   help="comma-separated offsets above the critical beta")

    p = _subcommand(sub, "measure", cmd_measure, "construct a measure and report it",
                    "--potential", "--beta", "--depth", "--symbol-bound")
    p.add_argument("--measure", required=True, choices=["y", "sarig", "pair_critical", "log"])
    p.add_argument("--family", type=int, default=1)

    p = _subcommand(sub, "decompose", cmd_decompose, "normalize a cylinder expression")
    p.add_argument("--expr", required=True,
                   help="e.g. 'C[3.2.1] & !C[2.1;inv=3]'")

    p = _subcommand(sub, "pressure", cmd_pressure, "partition-function pressure sweep (CSV)",
                    "--potential", "--beta-grid", "--format")
    p.add_argument("--n-max", type=int, default=10)

    return parser


# (subcommand, flag) -> (least, greatest), checked before the subcommand runs.
# A check over no word would read as a pass (`count` names its own least n);
# counts are exact integers, thousands of digits long past n = 1000; tables
# grow about fourfold per two levels; the normal forms kept per word hold
# forced words of up to --symbol-bound letters, so memory grows with its square;
# a pressure sweep's cycle sums grow exponentially with --n-max, about 1 s at
# 20 and a minute at 30 on prime renewal, and its slope needs n_max >= 4, the
# least `gurevich_pressure` checks for its library callers.
_BOUNDS: dict[tuple[str, str], tuple[int | None, int]] = {
    ("count", "--n"): (None, 1_000),
    ("pressure", "--n-max"): (4, 20),
    ("converge", "--depth"): (1, 10),
    ("converge", "--symbol-bound"): (1, 12),
    ("measure", "--depth"): (1, 6),
    ("measure", "--symbol-bound"): (1, 1_100),   # past 1025, where 2**(n-1) overflows
}


def _check_bounds(args: argparse.Namespace) -> None:
    for (command, flag), (least, greatest) in _BOUNDS.items():
        if command == args.command:
            v = getattr(args, flag[2:].replace("-", "_"))
            if least is not None and v < least:
                raise ValueError(f"{flag} must be >= {least}, not {v}")
            if v > greatest:
                raise ValueError(f"{flag} must be <= {greatest}, not {v}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; a size flag out of bounds, a domain, input or file
    error, or a float overflow (a beta too large in size for its terms),
    exits 2 with one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:    # ValueError includes MeasureError and DomainError
        print(f"gcms: error: {exc}", file=sys.stderr)
    except OverflowError as exc:
        print(f"gcms: error: float overflow: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Task lists of the three workloads and the checks on their outputs.

A workload is built from a seed: the seed draws only the generated inputs
(beta jitter around fixed grids, extra ``decompose`` expressions and
``pointwise_z`` points); the README commands and the offsets of the
log-ratio roots are fixed.  Each task is a callable that is timed and a
check that runs after the timed pass.  Every check compares against
something the timed code did not compute: a stored reference output, a
closed form, an independent transfer-matrix sum, raw membership, or an
``mpmath`` evaluation.

Workloads and why they were chosen:

* ``oracle`` -- the cylinder-intersection oracle (``verify --suite
  cylinders``) on renewal and pair renewal plus ``decompose`` expressions.
  Builds normal forms (``decompose``/``meet``) and reads them
  (``setexpr_count_vec``); thermo and measures do no work here.
* ``partition`` -- partition functions and preimage counts by exhaustive
  enumeration on kinds whose branching differs (about 2^n, (1+sqrt2)^n,
  3^n, sqrt3^n).  Words, matrices and thermo's enumeration sums do the
  work; the cylinder algebra and measures do none.
* ``phase_sweep`` -- phase tables, the log-ratio pressure close to the
  critical beta, conformality residuals and weak-star sweeps.  Thermo's
  normalization series and measures do the work; the cylinder algebra
  only builds small shift-image normal forms.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gcms.cli as cli
from gcms import configs as cf
from gcms import cylinders as cy
from gcms import matrices as mx
from gcms import measures as ms
from gcms import thermo as th
from gcms import verification as vf
from gcms.words import enumerate_words, format_word

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Fixed command lines; their stdout is stored in reference/<name>.out.
# The README commands come first, then the fixed extras of the workloads.
CLI_COMMANDS: dict[str, list[str]] = {
    "count-renewal": ["count", "--kind", "renewal", "--n", "8"],
    "count-pair_renewal": ["count", "--kind", "pair_renewal", "--family", "1", "--n", "6"],
    "phase-renewal-const": ["phase", "--kind", "renewal", "--potential", "const",
                            "--beta-grid", "0.5:1.0:0.05"],
    "phase-renewal-log": ["phase", "--kind", "renewal", "--potential", "log",
                          "--beta-grid", "1.2,1.73,2.2"],
    "verify-cylinders-pair_renewal": ["verify", "--suite", "cylinders", "--kind", "pair_renewal"],
    "verify-conformality-pair_renewal": ["verify", "--suite", "conformality", "--kind",
                                         "pair_renewal", "--beta", "1.2", "--tol", "1e-10"],
    "verify-pressure-renewal": ["verify", "--suite", "pressure", "--kind", "renewal",
                                "--tol", "1e-10"],
    "converge-renewal-const": ["converge", "--kind", "renewal", "--potential", "const",
                               "--approach", "1e-2,1e-3,1e-4,1e-5", "--depth", "4"],
    "measure-renewal-log": ["measure", "--kind", "renewal", "--measure", "log", "--beta", "2.0"],
    "decompose-pair_renewal": ["decompose", "--kind", "pair_renewal", "--expr", "C[;inv=2]"],
    "decompose-renewal": ["decompose", "--kind", "renewal", "--expr", "C[1] & !C[1.2]"],
    "pressure-renewal-const": ["pressure", "--kind", "renewal", "--potential", "const",
                               "--beta-grid", "0.2:1.2:0.2", "--n-max", "12"],
    # not in the README
    "verify-cylinders-renewal": ["verify", "--suite", "cylinders", "--kind", "renewal"],
    # alternating_renewal is left out: it has no closed form and raises today
    "verify-counting-renewal": ["verify", "--suite", "counting", "--kind", "renewal"],
    "verify-counting-pair_renewal": ["verify", "--suite", "counting", "--kind", "pair_renewal"],
    "verify-counting-prime_renewal": ["verify", "--suite", "counting", "--kind",
                                      "prime_renewal"],
    "converge-pair_renewal-const": ["converge", "--kind", "pair_renewal", "--potential", "const",
                                    "--approach", "1e-2,1e-3,1e-4", "--depth", "5"],
    "converge-renewal-log": ["converge", "--kind", "renewal", "--potential", "log",
                             "--approach", "1e-1,1e-2,1e-3", "--depth", "5"],
}

# ``verify --suite cylinders`` prints its wall time; that key alone is masked
# before outputs are compared.
MASKED_KEYS = {"verify-cylinders-renewal": ["seconds"],
               "verify-cylinders-pair_renewal": ["seconds"]}
_SECONDS = re.compile(r'^(\s*"seconds": )[^,\n]+', re.MULTILINE)


def masked(name: str, text: str) -> str:
    if name in MASKED_KEYS:
        return _SECONDS.sub(r'\1"<masked>"', text)
    return text


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is correct


def cli_task(name: str, check: Callable[[str], str | None] | None = None) -> Task:
    argv = CLI_COMMANDS[name]

    def check_output(out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        want = (REFERENCE_DIR / f"{name}.out").read_bytes()
        if masked(name, text).encode("utf-8") != want:
            return "stdout differs from the reference output"
        return check(text) if check is not None else None
    return Task(name, lambda: run_cli(argv), check_output)


# --------------------------------------------------------------------------
# independent references
# --------------------------------------------------------------------------

def _weights(A: mx.TransitionMatrix, F: th.Potential, beta: float, bound: int) -> np.ndarray:
    """W[i-1, j-1] = exp(beta F(i)) A(i, j) over symbols <= bound."""
    W = np.zeros((bound, bound))
    for i in range(1, bound + 1):
        w = math.exp(beta * F.value(i))
        for j in range(1, bound + 1):
            if A.entry(i, j):
                W[i - 1, j - 1] = w
    return W


def first_return_transfer(A, F, beta: float, base: int, n: int) -> float:
    """Z*_n by transfer: cycles base -> ... -> base avoiding base inside.

    A symbol s needs at least s - 1 steps to come back down, so symbols
    above n + 2 cannot occur in a cycle of length n.
    """
    W = _weights(A, F, beta, n + 2)
    b = base - 1
    if n == 1:
        return float(W[b, b])
    keep = [k for k in range(n + 2) if k != b]
    inner = np.linalg.matrix_power(W[np.ix_(keep, keep)], n - 2)
    return float(W[b, keep] @ inner @ W[keep, b])


def pointwise_transfer(A, F, beta: float, x, n: int) -> float:
    """Weighted count of length-n heads in front of ``x`` by transfer.

    A backward step raises the symbol by at most one, so heads use symbols
    below first-symbol + n + 2.
    """
    if isinstance(x, cf.BoundedConfig) and not x.stem:
        ends = sorted(x.root.allowed_terminal_symbols)
        bound = max(ends) + n + 1
    else:
        first = x.stem[0] if isinstance(x, cf.BoundedConfig) else x.symbol_at(0)
        ends = [j for j in range(1, first + 2) if A.entry(j, first)]
        bound = first + n + 1
    W = _weights(A, F, beta, bound)
    P = np.linalg.matrix_power(W, n - 1)
    return float(sum(P[:, j - 1].sum() * math.exp(beta * F.value(j)) for j in ends))


def preimage_count_dp(A: mx.TransitionMatrix, root: mx.AccumulationColumn, n: int) -> int:
    """Size of generation n of an empty-stem family, by a first-letter DP."""
    counts = {t: 1 for t in root.allowed_terminal_symbols}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for j, c in counts.items():
            for p in A.predecessors(j):
                nxt[p] = nxt.get(p, 0) + c
        counts = nxt
    return sum(counts.values())


def _close(got: float, want: float, rtol: float = 1e-10) -> str | None:
    if abs(got - want) > rtol * abs(want):
        return f"{got!r} vs reference {want!r}"
    return None


def _json_ok(text: str) -> str | None:
    report = json.loads(text)
    if report.get("ok") is not True:
        return "report says ok != true"
    if report.get("mismatches", []) != []:
        return f"oracle mismatches: {report['mismatches']}"
    if report.get("families_mismatching", []) != []:
        return f"families mismatching: {report['families_mismatching']}"
    return None


def _count_rows_closed_form(kind: str) -> Callable[[str], str | None]:
    """Each CSV row of ``count`` against ``count_preimages_closed_form``."""
    A = mx.by_kind(kind)

    def check(text: str) -> str | None:
        for line in text.splitlines()[1:]:
            fam, n, enumerated, _, _ = line.split(",")
            want = cf.count_preimages_closed_form(A, int(fam), int(n))
            if int(enumerated) != want:
                return f"family {fam} n={n}: {enumerated} != closed form {want}"
        return None
    return check


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

KINDS = ("renewal", "pair_renewal", "prime_renewal", "alternating_renewal")
EXPRESSIONS_PER_KIND = 10


def _random_expression(rng: random.Random, words: list, inv_bound: int) -> str:
    parts = []
    for _ in range(rng.randint(2, 4)):
        w = rng.choice(words)
        text = format_word(w) if w else ""
        if rng.random() < 0.5:
            text += f";inv={rng.randint(1, inv_bound)}"
        parts.append(("!" if rng.random() < 0.5 else "") + f"C[{text}]")
    return " & ".join(parts)


def _expression_task(A: mx.TransitionMatrix, text: str, universes: dict) -> Task:
    """intersect_many of a seeded expression, checked against raw membership."""
    def check(expr) -> str | None:
        if A.kind not in universes:
            universes[A.kind] = vf.build_universe(A, 4, 5, 25)
        u = universes[A.kind]
        expected = np.ones(len(u), dtype=bool)
        for e in cy.parse_expression(A, text):
            expected &= np.array([cy.raw_member(c, e) for c in u.configs])
        counts = vf.setexpr_count_vec(u, expr)
        if (counts > 1).any():
            return "normal form parts overlap"
        if ((counts == 1) != expected).any():
            return "normal form disagrees with raw membership"
        return None
    return Task(f"decompose[{A.kind}] {text}",
                lambda: cy.intersect_many(cy.parse_expression(A, text)), check)


def oracle(rng: random.Random) -> list[Task]:
    tasks = [cli_task("verify-cylinders-renewal", _json_ok),
             cli_task("verify-cylinders-pair_renewal", _json_ok),
             cli_task("decompose-pair_renewal"),
             cli_task("decompose-renewal")]
    universes: dict = {}
    for kind in KINDS:
        A = mx.by_kind(kind)
        words = [()] + vf.cylinder_words_up_to(A, 3, 4)
        for _ in range(EXPRESSIONS_PER_KIND):
            tasks.append(_expression_task(A, _random_expression(rng, words, 4), universes))
    return tasks


def _z_task(fn_name: str, A, F, beta: float, n: int, reference) -> Task:
    """``thermo.<fn_name>`` through symbol 1; looked up at call time so that
    a traced pass sees the wrapped function."""
    def check(z) -> str | None:
        return _close(z.value, reference()) if z.exact else "not exact"
    return Task(f"{fn_name}[{A.kind}] n={n}", lambda: getattr(th, fn_name)(A, F, beta, 1, n), check)


def _pointwise_task(A, F, beta: float, x, n: int) -> Task:
    def check(z) -> str | None:
        return _close(z.value, pointwise_transfer(A, F, beta, x, n))
    return Task(f"pointwise_z[{A.kind}] {x!r} n={n}", lambda: th.pointwise_z(A, F, beta, x, n), check)


def _gurevich_task(A, F, beta: float, n_max: int) -> Task:
    def check(est) -> str | None:
        for n, v in est.values:
            bad = _close(math.exp(n * v), th.z_n_transfer(A, F, beta, 1, n, n + 2))
            if bad:
                return f"n={n}: {bad}"
        return None
    return Task(f"gurevich_pressure[{A.kind}] beta={beta:.6f}", lambda: th.gurevich_pressure(A, F, beta, 1, n_max), check)


def _seeded_points(rng: random.Random, A: mx.TransitionMatrix) -> list:
    """One empty-stem point, one short-stem point and one periodic point."""
    roots = A.accumulation_catalog
    root = rng.choice(roots)
    stems = [w for n in (1, 2) for w in enumerate_words(
        A, n, root.allowed_terminal_symbols, 5).words]
    periodic = vf.periodic_points(A, 12)
    return [cf.empty_stem_config(A, rng.choice(roots).id),
            cf.BoundedConfig(A, rng.choice(stems), root),
            rng.choice(periodic)]


def partition(rng: random.Random) -> list[Task]:
    tasks = [cli_task("count-renewal", _count_rows_closed_form("renewal")),
             cli_task("count-pair_renewal", _count_rows_closed_form("pair_renewal")),
             cli_task("verify-pressure-renewal", _json_ok),
             cli_task("pressure-renewal-const"),
             cli_task("verify-counting-renewal", _json_ok),
             cli_task("verify-counting-pair_renewal", _json_ok),
             cli_task("verify-counting-prime_renewal", _json_ok)]
    const, log = th.Constant(-1.0), th.LogRatio()
    for kind, n_z, n_star, n_point in (("pair_renewal", 14, 16, 11),
                                       ("prime_renewal", 13, 14, 11),
                                       ("alternating_renewal", 16, 16, 16)):
        A = mx.by_kind(kind)
        beta = 0.7 + rng.uniform(-0.05, 0.05)
        beta_log = 1.3 + rng.uniform(-0.05, 0.05)
        tasks.append(_z_task("z_n", A, const, beta, n_z, lambda A=A, b=beta, n=n_z:
                             th.z_n_transfer(A, const, b, 1, n, n + 2)))
        tasks.append(_z_task("z_n_star", A, log, beta_log, n_star, lambda A=A, b=beta_log,
                             n=n_star: first_return_transfer(A, log, b, 1, n)))
        for x in _seeded_points(rng, A):
            tasks.append(_pointwise_task(A, const, beta, x, n_point))
        if kind != "alternating_renewal":
            tasks.append(_gurevich_task(A, const, beta, 12))
    alt = mx.by_kind("alternating_renewal")
    for root in alt.accumulation_catalog:
        def check(configs, root=root) -> str | None:
            want = preimage_count_dp(alt, root, 16)
            return None if len(configs) == want else f"{len(configs)} preimages, DP says {want}"
        tasks.append(Task(f"preimages[alternating_renewal] family={root.id} n=16",
                          lambda root=root: cf.preimages(cf.empty_stem_config(alt, root.id), 16),
                          check))
    return tasks


def _log_root_task(offset: float) -> Task:
    """Pressure of the log-ratio potential at beta_c - offset."""
    def check(p) -> str | None:
        import mpmath
        beta = th.beta_c_log() - offset
        with mpmath.workdps(40):
            inv = 1 / mpmath.e ** mpmath.mpf(p)
            phi = (mpmath.polylog(beta, inv) - inv) / inv
            resid = float(abs(phi - 1))
        return None if resid <= 1e-11 else f"polylog residual {resid:.3g}"
    return Task(f"pressure_log_potential beta_c-{offset:.6g}", lambda: th.pressure_log_potential(th.beta_c_log() - offset), check)


def _residual_check(residuals, tol: float = 1e-10) -> str | None:
    worst = max(residuals.values()) if isinstance(residuals, dict) else residuals
    return None if worst <= tol else f"residual {worst:.3g} > {tol:g}"


def phase_sweep(rng: random.Random) -> list[Task]:
    tasks = [cli_task("phase-renewal-const"),
             cli_task("phase-renewal-log"),
             cli_task("verify-conformality-pair_renewal", _json_ok),
             cli_task("converge-renewal-const"),
             cli_task("measure-renewal-log"),
             cli_task("converge-pair_renewal-const"),
             cli_task("converge-renewal-log")]
    # Fixed offsets: where the root falls decides how many bisection steps
    # the series takes (40 to 44 at 1e-3, 52 to 62 M terms), so a seeded
    # offset would change the amount of work from seed to seed.
    for offset in (1e-1, 1e-2, 3e-3, 1e-3):
        tasks.append(_log_root_task(offset))
    for kind in ("renewal", "pair_renewal"):
        A = mx.by_kind(kind)
        for beta in (0.5, 1.1, 1.2, 1.5, 2.0):
            beta += rng.uniform(-0.02, 0.02)
            tasks.append(Task(f"conformality_suite[{kind}] beta={beta:.6f}",
                              lambda A=A, b=beta: vf.conformality_suite(A, b),
                              _residual_check))
    prime = mx.by_kind("prime_renewal")
    cyls = vf.cylinder_words_up_to(prime, 4, 6)
    for beta in (1.25, 1.6, 2.0):
        beta += rng.uniform(-0.02, 0.02)
        for root in prime.accumulation_catalog:
            tasks.append(Task(
                f"y_measure[prime_renewal] family={root.id} beta={beta:.6f}",
                lambda b=beta, f=root.id: ms.verify_conformality(
                    ms.y_measure(prime, f, th.Constant(1.0), b), cyls).max_residual,
                _residual_check))
    return tasks


WORKLOADS: dict[str, Callable[[random.Random], list[Task]]] = {
    "oracle": oracle,
    "partition": partition,
    "phase_sweep": phase_sweep,
}

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gcms import cli
from gcms import measures as ms
from gcms.cli import main
from gcms.matrices import by_kind
from gcms.thermo import Constant


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_count_renewal(capsys):
    code, out = run_cli(["count", "--kind", "renewal", "--n", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,enumerated,closed_form,match"
    assert lines[1] == "1,1,1,1,ok"
    assert lines[-1] == "1,8,128,128,ok"


def test_count_pair_family(capsys):
    code, out = run_cli(["count", "--kind", "pair_renewal", "--family", "1", "--n", "6"],
                        capsys)
    assert code == 0
    assert "1,2,5,5,ok" in out


def test_count_prime_within_bounds(capsys):
    code, out = run_cli(["count", "--kind", "prime_renewal", "--family", "1", "--n", "5"],
                        capsys)
    assert code == 0
    assert all(line.endswith("ok") for line in out.strip().splitlines()[1:])


def test_count_json_format(capsys):
    code, out = run_cli(["count", "--kind", "renewal", "--n", "3", "--format", "json"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["header"][0] == "family"


def test_phase_renewal(capsys):
    code, out = run_cli(["phase", "--kind", "renewal", "--potential", "const",
                         "--beta-grid", "0.6:0.8:0.1"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[0].startswith("0.6,absent")
    assert rows[-1].startswith("0.8,1 measure")


def test_phase_pair_two_extremal(capsys):
    code, out = run_cli(["phase", "--kind", "pair_renewal", "--potential", "const",
                         "--beta-grid", "1.0,2.0"], capsys)
    assert code == 0
    assert "2 extremal" in out


def test_phase_log_support_switch(capsys):
    code, out = run_cli(["phase", "--kind", "renewal", "--potential", "log",
                         "--beta-grid", "1.2,2.2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "sequence space" in lines[1]
    assert "boundary family" in lines[2]


def test_phase_alternating_renewal(capsys):
    code, out = run_cli(["phase", "--kind", "alternating_renewal", "--potential", "const",
                         "--beta-grid", "0.5,0.55,1.0"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["0.5,absent,not classified,0.549306144334",
                                    "0.55,2 extremal,not classified,0.549306144334",
                                    "1,2 extremal,not classified,0.549306144334"]


_Y_LABELS = {"renewal": "1 measure", "pair_renewal": "2 extremal",
             "prime_renewal": "1 per family (countably many)",
             "alternating_renewal": "2 extremal"}


@pytest.mark.parametrize("kind", sorted(_Y_LABELS))
def test_phase_boundary_column_is_the_normalizers_answer(kind, capsys):
    # six floats on each side of log(lower) and of log(upper): the column
    # reads absent, inconclusive or the label exactly where the normalizer
    # diverges, is inconclusive or finite
    A = by_kind(kind)
    grid = []
    for rate in A.spec.growth:
        lo = hi = math.log(rate)
        grid.append(lo)
        for _ in range(6):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            grid += [lo, hi]
    code, out = run_cli(["phase", "--kind", kind, "--beta-grid", ",".join(map(repr, grid))],
                        capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == len(grid)
    seen = set()
    for beta, row in zip(grid, rows):
        try:
            res = ms.normalizer(A, A.accumulation_catalog[0], Constant(-1.0), beta)
        except ms.Inconclusive:
            want = "inconclusive"
        else:
            want = "absent" if res.divergent else _Y_LABELS[kind]
        assert row[1] == want, (beta, row)
        seen.add(want)
    assert {"absent", _Y_LABELS[kind]} <= seen
    assert ("inconclusive" in seen) == (kind == "prime_renewal")


def test_below_the_band_where_the_letter_weight_overflows(capsys):
    # exp(1000) does not fit a double, and the stem series diverge: the
    # phase row reads absent and the suite checks the critical measure alone
    code, out = run_cli(["phase", "--kind", "renewal", "--beta-grid=-1000"], capsys)
    assert code == 0 and out.splitlines()[1] == "-1000,absent,absent,0.69314718056"
    code, out = run_cli(["verify", "--suite", "conformality", "--kind", "pair_renewal",
                         "--beta=-1000"], capsys)
    assert code == 0 and list(json.loads(out)["max_residuals"]) == ["pair_critical"]


@pytest.mark.parametrize("kind, beta, keys", [
    ("prime_renewal", "1.5", ["y_family_1", "y_family_2", "y_family_3", "y_family_5",
                              "y_family_7"]),
    ("alternating_renewal", "1.2", ["y_family_1", "y_family_2"]),
])
def test_verify_conformality_on_every_catalog_family(kind, beta, keys, capsys):
    code, out = run_cli(["verify", "--suite", "conformality", "--kind", kind,
                         "--beta", beta, "--tol", "1e-10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert sorted(payload["max_residuals"]) == keys


def test_verify_counting(capsys):
    code, out = run_cli(["verify", "--suite", "counting", "--kind", "pair_renewal"],
                        capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_counting_alternating_renewal(capsys):
    code, out = run_cli(["verify", "--suite", "counting", "--kind", "alternating_renewal"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["families_checked"] == [1, 2] and payload["families_mismatching"] == []


def test_verify_conformality(capsys):
    code, out = run_cli(["verify", "--suite", "conformality", "--kind", "pair_renewal",
                         "--beta", "1.2", "--tol", "1e-10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert max(payload["max_residuals"].values()) <= 1e-10


@pytest.mark.parametrize("beta", ["0.5", "1.5"])
def test_renewal_sarig_conformality(beta, capsys):
    code, out = run_cli(["verify", "--suite", "conformality", "--kind", "renewal",
                         "--beta", beta, "--tol", "1e-10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_residuals"]["sarig_renewal_const"] <= 1e-10
    assert max(payload["max_residuals"].values()) <= 1e-10
    code, out = run_cli(["measure", "--kind", "renewal", "--measure", "sarig",
                         "--beta", beta], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_DU_residual"] <= 1e-10
    assert payload["total_mass"] == pytest.approx(1.0, abs=1e-10)


def test_sarig_measure_on_letters_past_the_power_range(capsys):
    # 2**(n - 1) overflows a double from n = 1025 on; the masses 2**-n do not
    code, out = run_cli(["measure", "--kind", "renewal", "--measure", "sarig",
                         "--symbol-bound", "1030", "--depth", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_DU_residual"] <= 1e-10
    assert payload["total_mass"] == 1.0


def test_verify_pressure(capsys):
    code, out = run_cli(["verify", "--suite", "pressure", "--kind", "renewal",
                         "--tol", "1e-10"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_converge_renewal(capsys):
    code, out = run_cli(["converge", "--kind", "renewal", "--potential", "const",
                         "--approach", "1e-2,1e-5", "--depth", "3"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    closest_beta = min(float(r[0]) for r in rows)
    worst = max(float(r[4]) for r in rows if float(r[0]) == closest_beta)
    assert worst <= 1e-4


def test_measure_report(capsys):
    code, out = run_cli(["measure", "--kind", "renewal", "--measure", "log",
                         "--beta", "2.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c_e"] == pytest.approx(2.0 - math.pi ** 2 / 6, abs=1e-10)
    assert payload["max_DU_residual"] <= 1e-10
    assert payload["total_mass"] == pytest.approx(1.0, abs=1e-10)


def test_decompose_expression(capsys):
    code, out = run_cli(["decompose", "--kind", "pair_renewal", "--expr", "C[;inv=2]"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == ["stem=e;root=1"]
    assert payload["families"] == ["prefix=e;symbols={k: A(2,k)=1}"]


def test_decompose_chain(capsys):
    code, out = run_cli(["decompose", "--kind", "renewal",
                         "--expr", "C[1] & C[1.2] & C[1.2.1]"], capsys)
    assert code == 0
    assert json.loads(out)["cylinders"] == ["1.2.1"]


def test_pressure_sweep(capsys):
    code, out = run_cli(["pressure", "--kind", "renewal", "--potential", "const",
                         "--beta-grid", "0.3,0.7", "--n-max", "6"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "beta,n,log_Zn_over_n,extrapolated,certificate"
    assert all(r.endswith("exact") for r in rows[1:])


def test_pressure_is_exact_where_the_growth_is_certified(capsys):
    # log(1 + sqrt 2) - 0.5 on every row: pair renewal's growth is certified
    code, out = run_cli(["pressure", "--kind", "pair_renewal", "--potential", "const",
                         "--beta-grid", "0.5", "--n-max", "12"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 12
    assert all(r.endswith(",0.38137358702,exact") for r in rows)


def test_pressure_log_potential_past_enumeration(capsys):
    # 1.6e7 cycles of length 20 on pair_renewal, counted by exact Birkhoff sum
    code, out = run_cli(["pressure", "--kind", "pair_renewal", "--potential", "log",
                         "--beta-grid", "1.3", "--n-max", "20"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 21 and rows[-1].startswith("1.3,20,")


def test_outputs_are_deterministic(capsys):
    args = ["count", "--kind", "pair_renewal", "--n", "6"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def _load_workloads():
    """perfbench/workloads.py, loaded by path: its CLI_COMMANDS are the commands
    whose stdout, with ``masked`` blanking the wall-time key, is stored in
    perfbench/reference/<name>.out."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.CLI_COMMANDS))
def test_readme_outputs_are_byte_identical(name, capsys):
    code, out = run_cli(WORKLOADS.CLI_COMMANDS[name], capsys)
    assert code == 0
    want = (WORKLOADS.REFERENCE_DIR / f"{name}.out").read_bytes()
    assert WORKLOADS.masked(name, out).encode("utf-8") == want


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built on the first call and kept: parsing, an argparse
    # error and --help leave it as it was
    built = []
    subcommand = cli._subcommand
    monkeypatch.setattr(cli, "_subcommand", lambda sub, name, *a: built.append(name)
                        or subcommand(sub, name, *a))
    cli.build_parser.cache_clear()
    try:
        for args in (["count", "--kind", "renewal", "--n", "3"], ["count", "--bogus"],
                     ["count", "--kind", "renewal", "--n", "0"], ["--help"]) * 5:
            try:
                main(args)
            except SystemExit:
                pass
        assert cli.build_parser.cache_info().misses == 1
        assert built == ["count", "phase", "verify", "converge", "measure", "decompose",
                         "pressure"]
    finally:
        cli.build_parser.cache_clear()


def test_reference_outputs_in_one_process(capsys):
    # every reference command, in reverse order, through the one parser, with
    # an argparse error, a domain error and --help between them
    fresh_help = cli.build_parser.__wrapped__().format_help()
    between = [(["count", "--kind", "renewal", "--n"], 2, "expected one argument"),
               (["count", "--kind", "renewal", "--family", "3"], 2,
                "gcms: error: no accumulation column with id 3"),
               (["--help"], 0, "")]
    for i, name in enumerate(reversed(WORKLOADS.CLI_COMMANDS)):
        code, out = run_cli(WORKLOADS.CLI_COMMANDS[name], capsys)
        assert code == 0, name
        want = (WORKLOADS.REFERENCE_DIR / f"{name}.out").read_bytes()
        assert WORKLOADS.masked(name, out).encode("utf-8") == want, name
        args, want_code, message = between[i % len(between)]
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == want_code, args
        captured = capsys.readouterr()
        if args == ["--help"]:
            assert captured.out == fresh_help
        else:
            assert captured.out == "" and message in captured.err


def test_output_file_and_matrix_file(tmp_path, capsys):
    spec = tmp_path / "matrix.json"
    spec.write_text('{"kind": "renewal"}')
    out_file = tmp_path / "out.csv"
    code, _ = run_cli(["verify", "--suite", "counting", "--matrix-file", str(spec),
                       "--out", str(out_file)], capsys)
    assert code == 0
    assert json.loads(out_file.read_text())["ok"] is True


@pytest.mark.parametrize("rows, expr, cylinder", [
    ([[0, 1], [1, 0]], "C[1]", "1.2.1"),
    ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], "C[3]", "3.3"),
])
def test_stored_matrix_with_a_forced_cycle(rows, expr, cylinder, tmp_path, capsys):
    # the cylinder on a forced cycle is one periodic point; the cylinder
    # suite's letters stay inside an alphabet smaller than its bounds
    spec = tmp_path / "matrix.json"
    spec.write_text(json.dumps({"kind": "explicit", "rows": rows}))
    code, out = run_cli(["decompose", "--matrix-file", str(spec), "--expr", expr], capsys)
    assert code == 0
    assert json.loads(out)["cylinders"] == [cylinder]
    code, out = run_cli(["verify", "--suite", "cylinders", "--matrix-file", str(spec)], capsys)
    assert code == 0
    assert '"ok": true' in out


def test_pressure_slope_of_a_stored_cycle_reads_its_one_finite_point(tmp_path, capsys):
    # only n = 3 closes a cycle of the 3-cycle below n = 5: its row is the pressure
    spec = tmp_path / "matrix.json"
    spec.write_text('{"kind": "explicit", "rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}')
    code, out = run_cli(["pressure", "--matrix-file", str(spec), "--n-max", "4",
                         "--beta-grid", "0.5"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == [f"0.5,{n},{v},-0.5,limit"
                                    for n, v in ((1, "-inf"), (2, "-inf"), (3, "-0.5"),
                                                 (4, "-inf"))]


@pytest.mark.parametrize("args, message", [
    (["count", "--matrix-file", "SCALAR"], "a matrix specification is a JSON object, not 3"),
    (["measure", "--measure", "y", "--kind", "renewal", "--beta", "0.5"],
     "normalizing series diverges"),
    (["decompose", "--kind", "renewal", "--expr", "C[2.3]"], "word 2.3 is not admissible"),
    (["count", "--matrix-file", "MATRIX"], "missing key 'rows'"),
    # a matrix without boundary families leaves the counting checks nothing to count
    (["verify", "--suite", "counting", "--matrix-file", "EXPLICIT"],
     "kind explicit has no boundary families to count"),
    (["count", "--matrix-file", "EXPLICIT"], "kind explicit has no boundary families to count"),
    (["count", "--matrix-file", "MISSING"], "No such file or directory"),
    (["count", "--kind", "renewal", "--family", "3"], "error: no accumulation column with id 3"),
    (["count"], "either --kind or --matrix-file is required"),
    (["phase", "--kind", "prime_renewal", "--potential", "log"],
     "this measure is specific to the renewal matrix"),
    (["phase", "--kind", "renewal", "--beta-grid", "1:2:0"], "grid step must be positive"),
    (["count", "--matrix-file", "ROWS"], "rows must be a non-empty list of lists, not 5"),
    (["decompose", "--matrix-file", "EXPLICIT", "--expr", "C[3]"],
     "symbol 3 out of range for size 2"),
    # a count that checks no generation
    (["count", "--kind", "renewal", "--n", "0"], "the count needs n >= 1, not 0"),
    # a beta this large in size overflows the partition function's and the
    # normalizer's terms
    (["pressure", "--kind", "renewal", "--beta-grid=-1000"], "float overflow"),
    (["verify", "--suite", "pressure", "--kind", "renewal", "--beta=-1000"], "float overflow"),
    (["measure", "--kind", "renewal", "--measure", "y", "--beta=-1000"], "float overflow"),
    # a grid value that is not a number, or infinite, gives no row to read
    (["phase", "--kind", "renewal", "--beta-grid=nan"], "grid values must be finite, not nan"),
    (["phase", "--kind", "renewal", "--beta-grid=inf"], "grid values must be finite, not inf"),
    (["pressure", "--kind", "renewal", "--beta-grid", "1:inf:0.5"],
     "grid values must be finite, not inf"),
    # a check over no cylinder would read as a pass
    (["converge", "--kind", "renewal", "--depth", "0"], "--depth must be >= 1, not 0"),
    (["converge", "--kind", "renewal", "--symbol-bound", "0"],
     "--symbol-bound must be >= 1, not 0"),
    (["measure", "--kind", "renewal", "--measure", "sarig", "--depth", "0"],
     "--depth must be >= 1, not 0"),
    (["measure", "--kind", "renewal", "--measure", "sarig", "--symbol-bound", "-1"],
     "--symbol-bound must be >= 1, not -1"),
    # a non-finite inverse temperature or offset is no number to check
    (["verify", "--suite", "conformality", "--kind", "renewal", "--beta", "nan"],
     "--beta must be finite, not nan"),
    (["verify", "--suite", "pressure", "--kind", "renewal", "--beta", "inf"],
     "--beta must be finite, not inf"),
    (["measure", "--kind", "renewal", "--measure", "y", "--beta", "nan"],
     "--beta must be finite, not nan"),
    (["measure", "--kind", "renewal", "--measure", "log", "--beta", "nan"],
     "--beta must be finite, not nan"),
    (["converge", "--kind", "renewal", "--approach", "1e-2,nan"],
     "--approach offsets must be finite, not nan"),
    # the log eigenmeasure is checked at the beta given, and it needs beta > 0
    (["verify", "--suite", "conformality", "--kind", "renewal", "--beta=-5"],
     "beta must be positive"),
    # a depth the check would not reach is not silently cut down
    (["measure", "--kind", "renewal", "--measure", "sarig", "--depth", "9"],
     "--depth must be <= 6, not 9"),
    # the normal form of a renewal letter s is a forced word of s letters, so
    # a letter above the limit is rejected before anything is built
    (["decompose", "--kind", "renewal", "--expr", "C[100001]"],
     "symbol 100001 is above 100000"),
    (["decompose", "--kind", "renewal", "--expr", "C[1] & !C[;inv=100001]"],
     "symbol 100001 is above 100000"),
    # a letter that is no integer names the expression, not int()
    (["decompose", "--kind", "renewal", "--expr", "C[1.]"],
     "cannot parse cylinder expression 'C[1.]'"),
    (["decompose", "--kind", "renewal", "--expr", "C[1;inv=2;inv=3]"],
     "cannot parse cylinder expression 'C[1;inv=2;inv=3]'"),
    # only a constant potential has a certified y-measure normalizer
    (["measure", "--kind", "renewal", "--measure", "y", "--potential", "log"],
     "no y-measure for potential GDiff(log) on kind renewal"),
    # a beta whose power-sum tail bound overflows has no certified zeta
    (["measure", "--kind", "renewal", "--measure", "log", "--beta", "1e300"],
     "the power-sum tail bound is not finite at beta = 1e+300"),
    # a tolerance no residual can meet, or every residual meets, checks nothing
    (["verify", "--suite", "pressure", "--kind", "renewal", "--tol", "nan"],
     "--tol must be finite, not nan"),
    (["verify", "--suite", "conformality", "--kind", "renewal", "--tol", "inf"],
     "--tol must be finite, not inf"),
    (["verify", "--suite", "pressure", "--kind", "renewal", "--tol=-1e-9"],
     "--tol must be positive, not -1e-09"),
    (["phase", "--kind", "renewal", "--tol", "0"], "--tol must be positive, not 0.0"),
    # a matrix file that is no JSON is named as such
    (["count", "--matrix-file", "EMPTY"], "EMPTY.json is not valid JSON"),
    (["count", "--matrix-file", "LATIN1"], "LATIN1.json is not valid JSON"),
    # only the two documented potential names
    (["phase", "--kind", "renewal", "--potential", "one"], "unknown potential 'one'"),
    # the counts are exact integers, thousands of digits long past the cap
    (["count", "--kind", "renewal", "--n", "1001"], "--n must be <= 1000, not 1001"),
    # the sweep's rows grow about 4x per two levels of depth
    (["converge", "--kind", "renewal", "--depth", "11"], "--depth must be <= 10, not 11"),
    # each memoized shift image holds a forced word of up to --symbol-bound
    # letters, so memory grows with the square of the bound
    (["measure", "--kind", "renewal", "--measure", "sarig", "--depth", "1",
      "--symbol-bound", "1101"],
     "--symbol-bound must be <= 1100, not 1101"),
    (["converge", "--kind", "renewal", "--symbol-bound", "13"],
     "--symbol-bound must be <= 12, not 13"),
    # the primes are found by trial division; the cap holds for a matrix file too
    (["count", "--kind", "prime_renewal", "--prime-bound", "101"],
     "prime_bound must be <= 100, not 101"),
    (["count", "--matrix-file", "PRIME"], "prime_bound must be <= 100, not 1000"),
    # the cycle sums of a pressure sweep grow exponentially with --n-max
    (["pressure", "--kind", "prime_renewal", "--potential", "log", "--beta-grid", "1.5",
      "--n-max", "21"], "--n-max must be <= 20, not 21"),
    # a negative value in exponent form, or infinite, is read as a value, not
    # as a flag, and reaches the domain checks
    (["phase", "--kind", "renewal", "--potential", "log", "--beta-grid", "-1e300"],
     "beta must be positive"),
    (["verify", "--suite", "conformality", "--beta", "-1e-3"],
     "either --kind or --matrix-file is required"),
    (["verify", "--suite", "conformality", "--kind", "renewal", "--beta", "-1e-3"],
     "beta must be positive"),
    (["verify", "--suite", "pressure", "--kind", "renewal", "--beta", "-inf"],
     "--beta must be finite, not -inf"),
    # --family 0 names a family the kind lacks, not every family
    (["count", "--kind", "renewal", "--family", "0"], "no accumulation column with id 0"),
    # the sweep approaches the critical beta from above
    (["converge", "--kind", "renewal", "--potential", "log", "--approach=-1"],
     "--approach offsets must be positive, not -1.0"),
    (["converge", "--kind", "renewal", "--approach", "1e-2,0"],
     "--approach offsets must be positive, not 0.0"),
    # a conformality suite with no measure to check at its beta would read as
    # a pass; a matrix without boundary families has no phase table
    (["verify", "--suite", "conformality", "--kind", "prime_renewal", "--beta", "0.5"],
     "no measure on kind prime_renewal to check at beta=0.5"),
    (["verify", "--suite", "conformality", "--matrix-file", "EXPLICIT"],
     "no measure on kind explicit to check at beta=1.2"),
    (["phase", "--matrix-file", "EXPLICIT"], "no phase table for kind explicit"),
    # the y-measures exist at this beta (every non-empty stem weighs 0), but
    # the conformality factor exp(beta) of each row overflows
    (["verify", "--suite", "conformality", "--kind", "prime_renewal", "--beta", "800"],
     "float overflow"),
    # the pressure's slope needs four partition functions
    (["pressure", "--kind", "renewal", "--n-max", "2"], "--n-max must be >= 4, not 2"),
    # a grid whose step cannot move its value, or that would hold too many
    # points, is refused before any point is built
    (["phase", "--kind", "renewal", "--beta-grid", "1:2:1e-17"],
     "grid step 1e-17 does not move the value 1.0"),
    (["pressure", "--kind", "renewal", "--beta-grid", "1:2:1e-7"],
     "grid has more than 100000 points"),
    (["phase", "--kind", "renewal", "--beta-grid", ","], "empty beta grid"),
    # only renewal and pair renewal have a constant-potential convergence table
    (["converge", "--kind", "alternating_renewal"],
     "no convergence construction for kind alternating_renewal"),
    # the 5-cycle closes no cycle up to n = 4, so there is no slope to read
    (["pressure", "--matrix-file", "CYCLE5", "--n-max", "4", "--beta-grid", "0.5"],
     "Z_n is 0, or below the least double, at base 1 for every n <= 4: no pressure slope"),
])
def test_errors_exit_2_with_one_line(args, message, tmp_path, capsys):
    files = {"MATRIX": '{"kind": "explicit"}',
             "EXPLICIT": '{"kind": "explicit", "size": 2, "rows": [[1, 1], [1, 0]]}',
             "SCALAR": "3", "ROWS": '{"kind": "explicit", "rows": 5}', "EMPTY": "",
             "LATIN1": '{"kind": "\u00e9"}',
             "PRIME": '{"kind": "prime_renewal", "prime_bound": 1000}',
             "CYCLE5": json.dumps({"kind": "explicit", "rows": [
                 [1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)]})}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_bytes(text.encode("latin-1"))
    code = main([str(tmp_path / f"{a}.json") if a in (*files, "MISSING") else a
                 for a in args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("gcms: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("args", [
    ["count", "--kind", "renewal", "--depth", "3"],
    ["phase", "--kind", "renewal", "--symbol-bound", "3"],
    ["verify", "--suite", "cylinders", "--kind", "renewal", "--format", "csv"],
    ["converge", "--kind", "renewal", "--tol", "1e-3"],
    ["measure", "--kind", "renewal", "--measure", "sarig", "--length-cap", "10"],
    ["decompose", "--kind", "renewal", "--expr", "C[1]", "--beta", "2"],
    ["pressure", "--kind", "renewal", "--depth", "3"],
    # an abbreviation is not read as the flag it abbreviates (--beta-grid)
    pytest.param(["pressure", "--kind", "renewal", "--beta", "-100"], id="pressure-abbrev"),
], ids=lambda args: args[0])
def test_flags_a_subcommand_does_not_read_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-3,-2e-3", "-1:-0.5:0.25", "-5E+0", "-.5"])
def test_a_negative_value_reads_as_with_an_equals_sign(value, capsys):
    # argparse alone reads -1e-3 as a flag; every subcommand parser reads it
    # as the value it is, as it does after "="
    args = ["phase", "--kind", "renewal"]
    apart = run_cli([*args, "--beta-grid", value], capsys)
    assert apart == run_cli([*args, f"--beta-grid={value}"], capsys)
    assert apart[0] == 0 and apart[1].count("\n") > 1


@pytest.mark.parametrize("spec, message", [
    ("1:2:1e-17", "grid step 1e-17 does not move the value 1.0"),
    ("1:2:1e-7", "grid has more than 100000 points"),
])
def test_grid_is_rejected_before_any_point_is_built(spec, message, capsys, monkeypatch):
    # a regression fails at its first grid point instead of looping or filling memory
    import gcms.cli

    def no_point(*args):
        raise AssertionError(f"grid {spec} built a point")
    monkeypatch.setattr(gcms.cli, "round", no_point, raising=False)
    assert main(["phase", "--kind", "renewal", "--beta-grid", spec]) == 2
    assert capsys.readouterr().err == f"gcms: error: {message}\n"


def test_count_exit_code_on_mismatch(capsys, monkeypatch):
    import gcms.verification as vf
    monkeypatch.setattr("gcms.cli.vf.counting_suite",
                        lambda A, fam, n: [vf.CountRow(1, 2, "1", False)])
    code, _ = run_cli(["count", "--kind", "renewal", "--n", "1"], capsys)
    assert code == 1


def test_console_entry_point():
    # the child finds the package from a source checkout as well as from an install
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gcms.cli", "count", "--kind",
                           "renewal", "--n", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "1,3,4,4,ok" in proc.stdout


# edge values, drawn into at most two flags of an argv: zeros, extremes,
# non-numbers, nothing
_POOL = ["0", "-0.0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "-5",
         "99999999999", "", "x"]
# values that let a subcommand run, so that most examples reach the domain
# checks; size flags stay small, so that each example takes well under a second
_VALID = {
    "--beta": ["1.2", "0.5", "2.0"], "--tol": ["1e-9", "1e-10"],
    "--beta-grid": ["0.5:1.0:0.25", "1.2,2.2", "0.3"],
    "--approach": ["1e-2,1e-3", "0.5"],
    "--expr": ["C[1]", "C[2.1]", "C[;inv=2]", "C[1] & !C[1.2]", "!C[3.2.1]"],
    "--potential": ["const", "log"], "--matrix-file": [""],
}
_SMALL = ["1", "2", "3", "4"]


def _flag_tables() -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's own flags, read from the parser; --out, which would
    write a file, is left out."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: action for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help", "--out")}
            for name, p in sub.choices.items()}


def _valid(flag: str, action: argparse.Action):
    if action.choices:
        return st.sampled_from(list(action.choices))
    return st.sampled_from(_SMALL if action.type is int else _VALID[flag])


def _edge(flag: str):
    pool = st.sampled_from(_POOL)
    if flag == "--expr":
        return pool.map(lambda v: f"C[{v}]")
    if flag == "--beta-grid":
        parts = st.sampled_from(_POOL + _SMALL)
        return pool | st.tuples(parts, parts, parts).map(":".join)
    if flag == "--approach":
        return st.lists(pool, min_size=1, max_size=3).map(",".join)
    return pool


@st.composite
def _argv(draw):
    tables = _flag_tables()
    command = draw(st.sampled_from(sorted(tables)))
    table = tables[command]
    required = [f for f, a in table.items() if a.required] + ["--kind"]
    optional = draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=4))
    flags = list(dict.fromkeys(required + optional))
    # argparse alone checks a choice; the edge values go where the program reads them
    free = [f for f in flags if not table[f].choices]
    edged = draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    argv = [command]
    for flag in flags:
        value = draw(_edge(flag) if flag in edged else _valid(flag, table[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2_with_its_promised_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        one_line = err.startswith("gcms: error: ") and err.count("\n") == 1
        usage = err.startswith("usage: gcms") and "error: " in err
        assert one_line or usage, (argv, err)
    elif code == 1:
        assert '"ok": false' in out or "MISMATCH" in out, (argv, out)
    else:
        assert err == "", (argv, err)

"""Mutation check: does each in-test oracle catch the fault it guards against?

Each mutant in ``CATALOG`` is one text edit of one file under ``src/`` (its
old text occurs there exactly once) and the test node ids that must fail
under it.  ``run`` copies ``src/``, ``tests/``, ``perfbench/`` (whose
reference outputs the CLI tests read) and ``pyproject.toml`` into a
temporary directory, applies the edit to the copy, runs the node ids there
with pytest under ``TIME_LIMIT`` seconds, and returns one of

* ``killed``: a named test failed (pytest exit status 1);
* ``survived``: every named test passed;
* ``timed out``: the run passed the time limit;
* ``error``: pytest ran no test to the end (a stale node id, a collection
  error), which shows nothing either way.

The repository itself is never edited.  Standard library only.  Run the
whole catalog, or the mutants named, from anywhere:

    python tools/mutation.py [name ...]

One line per mutant; the exit status is 1 unless every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIME_LIMIT = 600.0


@dataclass(frozen=True)
class Mutant:
    path: str               # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


CATALOG: dict[str, Mutant] = {
    # thermo.worst: a nan after the first residual would read as a pass
    "worst-nan": Mutant(
        "src/gcms/thermo.py",
        "        top = r if math.isnan(r) else max(top, r)",
        "        top = max(top, r)",
        ("tests/test_thermo.py::test_pressure_suite_reports_a_nan_residual",)),
    # measures.phase_row: the critical sequence measure is never reported
    "phase-row-critical": Mutant(
        "src/gcms/measures.py",
        '"1 measure" if abs(beta - critical) <= tol else "absent"',
        '"absent"',
        ("tests/test_measures.py::test_phase_row_reports_the_critical_measure_within_tol",)),
    # measures._phase_picture: any constant drawn as if it were the unit one
    "phase-refusal-any-constant": Mutant(
        "src/gcms/measures.py",
        "    if potential == UNIT_POTENTIAL:",
        "    if isinstance(potential, Constant):",
        ("tests/test_measures.py::test_tables_refuse_a_potential_they_do_not_draw",)),
    # measures._tail_union: a letter two zero rows share is subtracted twice
    "shared-letter-correction": Mutant(
        "src/gcms/measures.py",
        "            if mult > 1:",
        "            if mult > 2:",
        ("tests/test_measures.py::test_shared_letters_of_two_zero_rows_are_counted_once",)),
    # measures.convergence: the net is its own target, so every distance reads 0
    "convergence-net": Mutant(
        "src/gcms/measures.py",
        "(lambda b: y_measure(A, 1, potential, b))",
        "(lambda b: known.critical[1](A))",
        ("tests/test_measures.py::test_convergence_net_approaches_its_target",)),
    # thermo.first_return_rows: every cycle counted, not only first returns
    "first-return-cycles": Mutant(
        "src/gcms/thermo.py",
        'z_series(by_kind("renewal"), LOG_POTENTIAL, beta, 1, 14, True)',
        'z_series(by_kind("renewal"), LOG_POTENTIAL, beta, 1, 14, False)',
        ("tests/test_cli.py::test_verify_pressure",)),
    # thermo.gurevich_pressure: one finite point, but the slope reads the last n
    "pressure-slope-last-value": Mutant(
        "src/gcms/thermo.py",
        "        n1, l1 = finite[0]\n        extrap = l1 / n1",
        "        extrap = values[-1][1]",
        ("tests/test_thermo.py::test_gurevich_limit_of_one_finite_point",)),
    # matrices._rule_kind: the descent memo records a stop one letter too high
    "descent-memo-wrong-stop": Mutant(
        "src/gcms/matrices.py",
        "stops.update(dict.fromkeys(walked, stop))",
        "stops.update(dict.fromkeys(walked, stop + 1))",
        ("tests/test_words.py::test_rule_forced_runs_are_the_letter_walk",)),
    # verification.periodic_points: one point more than asked for
    "periodic-points-count": Mutant(
        "src/gcms/verification.py",
        "                    if len(out) >= count:",
        "                    if len(out) > count:",
        ("tests/test_words.py::test_periodic_points_are_the_first_points_of_the_full_walk",)),
    # thermo._layer_total against the enumeration: words that close no cycle counted
    "partition-sum-first-letter": Mutant(
        "src/gcms/thermo.py",
        "        if first is None or first(letters[key & _INDEX_MASK]):",
        "        if True:",
        ("tests/test_thermo.py::test_partition_functions_are_bit_identical_to_enumeration",)),
    # thermo.z_series: from n = 2 on, Z_n is the total of layer n - 1
    "series-lags-a-layer": Mutant(
        "src/gcms/thermo.py",
        "zip(range(1, n_max + 1), walk)",
        "zip(range(1, n_max + 1), itertools.chain([next(walk)] * 2, walk))",
        ("tests/test_thermo.py::test_series_is_the_per_n_values",)),
    # thermo._layer_total: the log form scales by the smallest term, whose
    # ratio to the largest overflows once the terms spread past the doubles
    "log-form-smallest-exponent": Mutant(
        "src/gcms/thermo.py",
        "        top = max(e for e, _ in exponents)",
        "        top = min(e for e, _ in exponents)",
        ("tests/test_cli.py::test_pressure_of_the_log_potential_past_the_least_double",)),
    # words.backward_words: a listed predecessor is taken without its entry check
    "walk-entry-check": Mutant(
        "src/gcms/words.py",
        "                if A.entry(p, first) != 1:",
        "                if False:",
        ("tests/test_words.py::test_walk_rejects_a_listed_predecessor_that_is_no_transition",)),
    # words.iter_cycles: a backward word kept without its closing edge
    "cycle-closing-edge": Mutant(
        "src/gcms/words.py",
        "        if A.entry(through, w[0]) == 1:",
        "        if True:",
        ("tests/test_words.py::test_cycles_are_cycles",)),
    # words.generation_layers: a layer weighted twice per letter
    "layer-weight-squared": Mutant(
        "src/gcms/words.py",
        "            x *= weight",
        "            x *= weight * weight",
        ("tests/test_words.py::test_generation_layers_weighted",)),
    # thermo._em_tail against mpmath: the half end term of Euler-Maclaurin dropped
    "em-tail-half-term": Mutant(
        "src/gcms/thermo.py",
        " + 0.5 * N ** (-beta)",
        "",
        ("tests/test_thermo.py::test_zeta_against_mpmath",)),
    # thermo._phi against mpmath's polylog: the half end term dropped
    "phi-half-term": Mutant(
        "src/gcms/thermo.py",
        "    terms.append(0.5 * f_n)",
        "    terms.append(0.0)",
        ("tests/test_thermo.py::test_normalization_series_against_polylog",)),
    # ConfigUniverse.part_row against per-configuration rows: a family reads one group
    "part-row-first-group": Mutant(
        "src/gcms/verification.py",
        "groups = self._groups(part.prefix).values()",
        "groups = list(self._groups(part.prefix).values())[:1]",
        ("tests/test_cylinders.py::test_grouped_part_rows_match_per_configuration_rows",)),
    # cylinders._in_order: parts taken as already in order, never sorted
    "in-order-never-sorts": Mutant(
        "src/gcms/cylinders.py",
        "    if all(k < l for k, l in zip(keys, keys[1:])):",
        "    if True:",
        ("tests/test_cylinders.py::test_in_order_returns_parts_sorted_by_their_keys",)),
    # cylinders._meet_families: a nested family kept without its next-letter check
    "meet-families-nesting": Mutant(
        "src/gcms/cylinders.py",
        " and ss.contains(A, outer.symbols, inner.prefix[n]):",
        ":",
        ("tests/test_cylinders.py::test_small_oracle",)),
    # cylinders.CylFamily: families interned by prefix alone, so one stands for several
    "family-intern-key-prefix": Mutant(
        "src/gcms/cylinders.py",
        "        key = (prefix, symbols)",
        "        key = prefix",
        ("tests/test_cylinders.py::test_families_are_interned_and_keep_value_semantics",)),
    # cylinders._meet_families: the memo keeps nothing, so every family pair is met afresh
    "meet-families-memo-off": Mutant(
        "src/gcms/cylinders.py",
        "@lru_cache(maxsize=None)\ndef _meet_families(",
        "@lru_cache(maxsize=0)\ndef _meet_families(",
        ("tests/test_cylinders.py::test_oracle_meets_each_class_pair_once_and_assembles_little",)),
    # cylinders.meet: the empty-side skip of one atom-family loop also skips the other
    "meet-skip-both-atom-family-loops": Mutant(
        "src/gcms/cylinders.py",
        "        if own and other:",
        "        if s.atoms and t.families:",
        ("tests/test_cylinders.py::test_meet_matches_the_member_point_filter[renewal]",)),
    # cylinders._assemble: a stored matrix's empty sieve family kept
    "assemble-empty-sieve-kept": Mutant(
        "src/gcms/cylinders.py",
        "    finite = A.size is not None",
        "    finite = False",
        ("tests/test_cylinders.py::test_meet_matches_the_member_point_filter_on_stored_matrices",)),
    # cylinders._assemble: any one family on the empty prefix folds into the whole space
    "whole-space-fold-any-root-family": Mutant(
        "src/gcms/cylinders.py",
        "len(fams) == 1 and fams[0] is _FIRST_LETTERS",
        "len(fams) == 1 and not fams[0].prefix",
        ("tests/test_cylinders.py::test_small_oracle[renewal]",)),
    # cylinders._serial: the point serials keyed by stem, so the points on
    # one stem share one bit of every point mask
    "holds-memo-by-stem": Mutant(
        "src/gcms/cylinders.py",
        "    n = serials.get(p)\n    if n is None:\n        n = serials[p] = ",
        "    n = serials.get(p.stem)\n    if n is None:\n        n = serials[p.stem] = ",
        ("tests/test_cylinders.py::test_point_memo_tells_matrices_apart",)),
    # cylinders.meet: only s's surviving points kept, t's dropped
    "meet-keeps-only-s-points": Mutant(
        "src/gcms/cylinders.py",
        "    mask = (sm and t.holding(sm)) | (tm and s.holding(tm))",
        "    mask = sm and t.holding(sm)",
        ("tests/test_cylinders.py::test_meet_matches_the_member_point_filter[renewal]",)),
    # cylinders._points_of: a mask's points listed in serial order, not sorted
    "points-of-skips-sort": Mutant(
        "src/gcms/cylinders.py",
        "tuple(sorted((_table[n] for n in _serials_in(mask)), key=_point_key))",
        "tuple(_table[n] for n in _serials_in(mask))",
        ("tests/test_cylinders.py::"
         "test_normalize_lists_points_by_stem_and_root_whatever_their_serials",)),
    # measures.normalizer: the a-posteriori tail bound without its 1/(1 - d x) factor
    "tail-bound-drops-geometric-factor": Mutant(
        "src/gcms/measures.py",
        "total / gap if gap > 0.0 else math.inf",
        "total",
        ("tests/test_measures.py::test_prime_normalizer_against_exact_counts",)),
    # matrices.KINDS: prime renewal's largest predecessor count taken as 2
    "prime-max-predecessors-two": Mutant(
        "src/gcms/matrices.py",
        "        growth=(2.0, 3.0),\n        max_predecessors=3,",
        "        growth=(2.0, 3.0),\n        max_predecessors=2,",
        ("tests/test_measures.py::test_prime_normalizer_against_exact_counts",
         "tests/test_matrices.py::test_max_predecessors_is_the_longest_column")),
    # measures._conformality_rows: an image with one atom and points read as
    # the atom's mass from the table
    "conformality-one-atom-with-points": Mutant(
        "src/gcms/measures.py",
        "not (s.points or s.families or s.whole_space)",
        "not (s.families or s.whole_space)",
        ("tests/test_measures.py::test_only_a_one_atom_image_reads_one_cylinder_mass",)),
    # measures._conformality_rows: each row's factor keyed by its last letter, not its first
    "conformality-factor-wrong-key": Mutant(
        "src/gcms/measures.py",
        "firsts = tuple(alpha[0] for alpha in words)",
        "firsts = tuple(alpha[-1] for alpha in words)",
        ("tests/test_measures.py::test_conformality_rows_read_admissibility_bit_identically",)),
    # YFamilyMeasure._mass_table: an atom's mass read without its forced run's factors
    "mass-table-atom-without-run": Mutant(
        "src/gcms/measures.py",
        "self._product(range(letters[b] - 1, e - 1, -1), peel[b]) * terms[e]",
        "peel[b] * terms[e]",
        ("tests/test_measures.py::test_mass_tables_are_bit_identical_to_cylinder_masses",)),
    # Measure._peel_column: each word peeled by its parent's last letter, not its own
    "peel-column-parent-letter": Mutant(
        "src/gcms/measures.py",
        "            peel[i] = peel[p] * factors[s]",
        "            peel[i] = peel[p] * factors[plan.letters[p]]",
        ("tests/test_measures.py::test_mass_tables_are_bit_identical_to_cylinder_masses",)),
    # SequenceMeasure._mass_table: a constant weight peeled at the word's length, not length - 1
    "constant-peel-at-word-length": Mutant(
        "src/gcms/measures.py",
        "peels[len(w) - 1] * bv[s]",
        "peels[len(w)] * bv[s]",
        ("tests/test_measures.py::test_mass_tables_are_bit_identical_to_cylinder_masses",)),
    # cylinders.shift_image: an inadmissible word imaged as the cylinder on its tail
    "shift-image-skips-admissibility": Mutant(
        "src/gcms/cylinders.py",
        "atoms=[alpha[1:]] if is_admissible(A, alpha) else []",
        "atoms=[alpha[1:]]",
        ("tests/test_measures.py::test_conformality_rows_read_admissibility_bit_identically",
         "tests/test_measures.py::test_prime_y_measure_rows_read_admissibility_bit_identically")),
    # words.generation_layers: each letter's column asked again in every layer
    "generation-layers-no-column-cache": Mutant(
        "src/gcms/words.py",
        "                preds = columns.get(sym)",
        "                preds = None",
        ("tests/test_words.py::test_generation_layers_read_each_column_once",)),
    # SequenceMeasure.base_value: the forced run peeled one letter short
    "base-value-run-one-short": Mutant(
        "src/gcms/measures.py",
        "self.peel(range(n, end, -1))",
        "self.peel(range(n - 1, end, -1))",
        ("tests/test_measures.py::test_verify_conformality_residuals",)),
    # matrices.TransitionMatrix: matrices interned without their prime bound,
    # so prime renewal at every bound is the first one built
    "matrix-intern-key-no-bound": Mutant(
        "src/gcms/matrices.py",
        "prime_bound if rows is None and KINDS[kind].truncated else None)",
        "None)",
        ("tests/test_matrices.py::test_matrix_identity_is_kind_rows_and_bound",)),
    # matrices.TransitionMatrix: stored matrices interned without their rows,
    # so every stored matrix of a kind is the first one built
    "matrix-intern-key-no-rows": Mutant(
        "src/gcms/matrices.py",
        "        key = (kind, rows, ",
        "        key = (kind, None, ",
        ("tests/test_matrices.py::test_matrix_identity_is_kind_rows_and_bound",)),
    # matrices.KINDS: prime renewal's row 2 taken as regular, as if only odd primes branched
    "prime-irregular-odd-primes": Mutant(
        "src/gcms/matrices.py",
        "        irregular=_is_prime,",
        "        irregular=lambda i: i % 2 == 1 and _is_prime(i),",
        ("tests/test_truncations.py",)),
    # matrices._prime_predecessors: the prime whose power j is dropped from column j
    "prime-predecessors-drop-prime": Mutant(
        "src/gcms/matrices.py",
        "    return (1, j + 1) if p is None else (1, p, j + 1)",
        "    return (1, j + 1)",
        ("tests/test_truncations.py",)),
    # matrices._residue_kind: overlapping residue sets taken, so two irregular
    # rows meet in an infinite set
    "residue-overlap-unchecked": Mutant(
        "src/gcms/matrices.py",
        "    if len(set(held)) < len(held):",
        "    if False:",
        ("tests/test_matrices.py::test_residue_kinds_refuse_overlapping_residues",)),
    # matrices._residue_kind: the catalog drops the column limit of the last class
    "residue-catalog-drops-a-class": Mutant(
        "src/gcms/matrices.py",
        "enumerate(dict.fromkeys(classes), 1)",
        "enumerate(dict.fromkeys(classes[:-1]), 1)",
        ("tests/test_matrices.py::test_residue_kinds_derive_the_hand_written_facts",)),
    # matrices._residue_kind: a row holding every class built, cofinite but labelled irregular
    "residue-full-set-unchecked": Mutant(
        "src/gcms/matrices.py",
        "        if len(r) == m:",
        "        if False:",
        ("tests/test_matrices.py::test_residue_kinds_refuse_a_description_outside_their_rule"
         "[full-residue-set]",)),
    # matrices._residue_kind: the backward graph drops the j + 1 edge of the
    # class states, so a walk above the largest irregular row stops climbing
    "residue-graph-drops-class-step": Mutant(
        "src/gcms/matrices.py",
        "tuple(state(p) for p in predecessors(j))",
        "tuple(state(p) for p in predecessors(j) if j <= top or p != j + 1)",
        ("tests/test_matrices.py::test_residue_kinds_derive_the_hand_written_counts_and_growth",)),
    # matrices._perron_root: the double above the Perron root, not the one below
    "perron-root-rounded-up": Mutant(
        "src/gcms/matrices.py",
        "    return lo\n",
        "    return hi\n",
        ("tests/test_matrices.py::test_residue_kinds_derive_the_hand_written_counts_and_growth",)),
    # matrices._perron_root: a zero leading minor taken as positive, so a root
    # that is a double (renewal's 2) reads as below itself
    "perron-minor-zero-pivot": Mutant(
        "src/gcms/matrices.py",
        "            if a[k][k] <= 0:",
        "            if a[k][k] < 0:",
        ("tests/test_matrices.py::test_residue_kinds_derive_the_hand_written_counts_and_growth",)),
    # matrices._residue_kind: the count memo starts one layer late
    "residue-count-memo-off-by-one": Mutant(
        "src/gcms/matrices.py",
        "            [1], [int(s + 1 in terminals)",
        "            [1, 1], [int(s + 1 in terminals)",
        ("tests/test_matrices.py::test_drawn_counting_suites_match",)),
    # YFamilyMeasure._tail: a letter 1 the walk never reached read as a row
    # that holds every letter
    "tail-unreached-base-as-full-row": Mutant(
        "src/gcms/measures.py",
        "self.normalizer_value - 1.0 if self.matrix.row(k) == ss.ALL else 0.0",
        "self.normalizer_value - 1.0",
        ("tests/test_measures.py::test_letters_the_walk_never_reached_have_no_continuations",)),
    # configs._config: the root stored in the stem slot of every preimage
    "config-root-in-stem-slot": Mutant(
        "src/gcms/configs.py",
        "    _set_stem(c, stem)",
        "    _set_stem(c, root)",
        ("tests/test_configs.py::test_preimages_examples",)),
    # cli._BOUNDS: the pressure sweep's cap raised past a minute of work
    "cli-bounds-n-max": Mutant(
        "src/gcms/cli.py",
        '("pressure", "--n-max"): (4, 20),',
        '("pressure", "--n-max"): (4, 30),',
        ("tests/test_cli.py::test_errors_exit_2_with_one_line",)),
}


def mutated(m: Mutant) -> str:
    """The text of ``m.path`` with the edit applied; the old text must occur once."""
    text = (ROOT / m.path).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(f"{m.path} holds {m.old!r} {text.count(m.old)} times, not once")
    return text.replace(m.old, m.new)


def run(m: Mutant) -> str:
    """Apply ``m`` to a temporary copy of the tree and run its tests there."""
    with tempfile.TemporaryDirectory(prefix="gcms-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        (tree / m.path).write_text(mutated(m), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            status = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *m.tests], cwd=tree, env=env, timeout=TIME_LIMIT,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    all_killed = True
    for name in names or CATALOG:
        t0 = time.perf_counter()
        outcome = run(CATALOG[name])
        all_killed &= outcome == "killed"
        print(f"{outcome:9}  {name}  {time.perf_counter() - t0:.1f} s", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

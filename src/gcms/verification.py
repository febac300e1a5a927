"""Brute-force oracles and verification suites.

The cylinder algebra is verified against raw membership: a configuration
belongs to a cylinder iff its evaluation at the defining group word is 1.
The oracle enumerates every boundary configuration up to a stem length
plus a batch of eventually periodic points and stores each membership
row over that universe as an integer bit row (bit k for configuration k).
Raw membership is evaluated once per ``(alpha, inv)``, on the
uncomplemented cylinder; as evaluation is 0 or 1, the complement's row is
its negation.  The oracle then checks each pairwise intersection both for
pointwise agreement and for disjointness of the normalized parts
(membership multiplicity at most one).  The pair check runs only once
every element agrees with its own normal form, so two elements with equal
normal forms have equal raw rows; as ``meet`` is a pure function of its
arguments, an ordered pair of distinct normal forms fixes both the meet
and the expected row.  The oracle therefore meets and checks each such
class pair that some element pair reaches, on the classes' first members;
it walks the element pairs only to report those of a failed class pair, in
their order.  An element's normal form and a meet are checked the same way,
with a few bitwise operations: the parts' rows are folded into the points
covered and the points covered twice, and the first faulty configuration
is the lowest set bit.  Each part's row is computed once per universe
and cached, one row per group of configurations that share the letters
the part reads: ``cylinders.part_contains`` decides the part on one member
of each group (an atom reads its word, a family its prefix and the next
letter, a boundary point the whole configuration), and the rows of the
groups it holds are joined.  The oracle, ``setexpr_count_vec`` and
``cylinders.member`` so share one membership rule.  The raw rows stay one
evaluation per configuration: they are the reference.

The counting, conformality, and pressure suites used by the command line
and the acceptance tests live here as plain functions returning report
dictionaries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

import numpy as np

from . import measures as ms
from . import symbolsets as sset
from . import thermo as th
from .configs import (BoundedConfig, Configuration, UnboundedConfig, count_preimages_closed_form,
                      empty_stem_config, IntegerInterval)
from .cylinders import CylFamily, SetExpr, Subbasis, decompose, meet, part_contains, raw_member
from .matrices import Symbol, TransitionMatrix
from .words import Word, enumerate_words, generation_layers, iter_cycles


# --------------------------------------------------------------------------
# configuration universes
# --------------------------------------------------------------------------

def _pack(flags: Iterable[bool], n: int) -> int:
    """The bit row of ``n`` flags: bit k is set iff flag k is true."""
    packed = np.packbits(np.fromiter(flags, dtype=bool, count=n), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _unpack(row: int, n: int) -> np.ndarray:
    """The ``n`` bits of a bit row as a 0/1 vector."""
    data = np.frombuffer(row.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little")


def _lowest_bit(row: int) -> int:
    return (row & -row).bit_length() - 1


@dataclass
class ConfigUniverse:
    matrix: TransitionMatrix
    configs: list[Configuration]
    # one membership bit row per normal-form part, filled by part_row
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    # prefix length -> prefix -> next letter -> (bit row, one member), filled by _groups
    _index: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.configs)

    @property
    def full(self) -> int:
        """The bit row of the whole universe."""
        return (1 << len(self.configs)) - 1

    def _groups(self, prefix: Word) -> dict:
        """The configurations that start with ``prefix`` and go on past it,
        grouped by their next letter: letter -> (bit row, one member).  The
        groups of every prefix of one length are built on the first call for
        that length."""
        n = len(prefix)
        level = self._index.get(n)
        if level is None:
            level = self._index[n] = {}
            for k, c in enumerate(self.configs):
                nxt = c.symbol_at(n)
                if nxt is not None:
                    groups = level.setdefault(tuple(map(c.symbol_at, range(n))), {})
                    row, member = groups.get(nxt, (0, c))
                    groups[nxt] = (row | 1 << k, member)
        return level.get(prefix, {})

    def part_row(self, part) -> int:
        """Membership bit row of one normal-form part, computed once.

        ``part_contains`` decides it on one member of each group of
        configurations that share the letters the part reads, and the rows
        of the groups it holds are joined: an atom reads its word, a family
        its prefix and the next letter.  A boundary point's group is one
        configuration."""
        row = self._rows.get(part)
        if row is None:
            if isinstance(part, BoundedConfig):
                groups = [(1 << k, c) for k, c in enumerate(self.configs)]
            elif isinstance(part, CylFamily):
                groups = self._groups(part.prefix).values()
            else:
                group = self._groups(part[:-1]).get(part[-1])
                groups = () if group is None else (group,)
            row = self._rows[part] = sum(bits for bits, c in groups if part_contains(c, part))
        return row


def _letters(A: TransitionMatrix, bound: Symbol) -> range:
    """The letters 1..bound, clamped to the alphabet of a stored matrix."""
    return range(1, (bound if A.size is None else min(bound, A.size)) + 1)


def all_bounded_configs(A: TransitionMatrix, stem_len: int, sym_bound: Symbol) -> list[BoundedConfig]:
    """Every boundary configuration with stem length and symbols bounded."""
    out: list[BoundedConfig] = []
    for col in A.accumulation_catalog:
        out.append(BoundedConfig(A, (), col))
        for n in range(1, stem_len + 1):
            for w in enumerate_words(A, n, col.allowed_terminal_symbols, sym_bound).words:
                out.append(BoundedConfig(A, w, col))
    return out


def periodic_points(A: TransitionMatrix, count: int) -> list[UnboundedConfig]:
    """A deterministic batch of ``count`` eventually periodic points
    (periods <= 5, symbols <= 6): each cycle, then each letter <= 6 before
    it, kept if new, until ``count`` are held."""
    out: dict[tuple[Word, Word], UnboundedConfig] = {}
    for n in range(1, 6):
        for through in _letters(A, 3):
            for cyc in iter_cycles(A, n, through):
                if any(s > 6 for s in cyc):
                    continue
                for pre in ((), *((p,) for p in A.predecessors(cyc[0]) if p <= 6)):
                    if len(out) >= count:
                        return list(out.values())
                    cfg = UnboundedConfig(A, pre, cyc)
                    out.setdefault((cfg.preperiod, cfg.period), cfg)
    return list(out.values())


def build_universe(A: TransitionMatrix, stem_len: int, sym_bound: Symbol,
                   n_periodic: int) -> ConfigUniverse:
    configs: list[Configuration] = list(all_bounded_configs(A, stem_len, sym_bound))
    configs.extend(periodic_points(A, n_periodic))
    return ConfigUniverse(A, configs)


def setexpr_count_vec(u: ConfigUniverse, s: SetExpr) -> np.ndarray:
    """Membership multiplicity of every universe configuration in ``s``."""
    if s.whole_space:
        return np.ones(len(u), dtype=np.int64)
    counts = np.zeros(len(u), dtype=np.int64)
    for part in (*s.points, *s.atoms, *s.families):
        counts += _unpack(u.part_row(part), len(u))
    return counts


# --------------------------------------------------------------------------
# the cylinder intersection oracle
# --------------------------------------------------------------------------

@dataclass
class OracleReport:
    n_elems: int
    n_pairs: int
    n_configs: int
    mismatches: list[str]
    whole_space_cover: bool
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.whole_space_cover


def subbasis_elements(A: TransitionMatrix, word_len: int, sym_bound: Symbol,
                      inv_bound: Symbol) -> list[Subbasis]:
    """All four element shapes over admissible words up to the bounds,
    including the empty word."""
    return [Subbasis(A, w, inv, complemented)
            for w in [()] + cylinder_words_up_to(A, word_len, sym_bound)
            for inv in (None, *_letters(A, inv_bound))
            for complemented in (False, True)]


def raw_rows(u: ConfigUniverse, elems: Sequence[Subbasis]) -> list[int]:
    """Raw membership bit row of every element.

    ``raw_member`` runs once per ``(alpha, inv)``, on the uncomplemented
    element; a complement's row is the negation of that row, because a
    configuration's evaluation at a group word is 0 or 1.
    """
    plain: dict[tuple, int] = {}
    rows = []
    for e in elems:
        key = (e.alpha, e.inv)
        if key not in plain:
            cyl = e.complement() if e.complemented else e
            plain[key] = _pack((raw_member(c, cyl) for c in u.configs), len(u))
        rows.append(plain[key] ^ u.full if e.complemented else plain[key])
    return rows


def _meet_fault(u: ConfigUniverse, expr: SetExpr, expected: int) -> tuple[int, str] | None:
    """The first configuration where ``expr`` covers a point twice or
    disagrees with the expected membership bit row, with the reason; None
    if there is none."""
    seen, dup = (u.full, 0) if expr.whole_space else (0, 0)
    parts = (*expr.points, *expr.atoms, *expr.families)
    rows = u._rows
    for part in parts:
        row = rows.get(part)
        if row is None:
            row = u.part_row(part)
        dup |= seen & row
        seen |= row
    if dup:
        k = _lowest_bit(dup)
        return k, f"covered {sum(u.part_row(p) >> k & 1 for p in parts)} times"
    if seen != expected:
        k = _lowest_bit(seen ^ expected)
        return k, f"raw={bool(expected >> k & 1)} normalized={bool(seen >> k & 1)}"
    return None


_MAX_REPORT = 5   # mismatches the oracle reports before it stops


def cylinder_oracle(A: TransitionMatrix, word_len: int = 3, sym_bound: Symbol = 4,
                    inv_bound: Symbol = 4, stem_len: int = 5, universe_syms: Symbol = 6,
                    n_periodic: int = 50) -> OracleReport:
    """Exhaustively verify pairwise intersections against raw membership,
    meeting once per ordered pair of distinct normal forms; the report
    stops at ``_MAX_REPORT`` mismatches.

    On the same universe, it checks that the empty-stem points plus the
    single-letter cylinders cover every configuration exactly once.  The
    parts are checked as they are, not assembled: assembly would fold them
    into the whole-space flag."""
    t0 = time.perf_counter()
    u = build_universe(A, stem_len, universe_syms, n_periodic)
    points = tuple(empty_stem_config(A, col.id) for col in A.accumulation_catalog)
    cover = SetExpr(A, False, points, (), (CylFamily((), sset.ALL),))
    whole_space_cover = _meet_fault(u, cover, u.full) is None
    elems = subbasis_elements(A, word_len, sym_bound, inv_bound)
    raw = raw_rows(u, elems)
    decomposed = [decompose(e) for e in elems]
    # sanity: each element alone matches its normal form
    mismatches: list[str] = []
    for i, e in enumerate(elems):
        if _meet_fault(u, decomposed[i], raw[i]) is not None:
            mismatches.append(f"decompose({e!r}) disagrees with raw membership")
            if len(mismatches) >= _MAX_REPORT:
                break
    n_pairs = 0
    if not mismatches:
        # every element matched its normal form, so equal normal forms have
        # equal raw rows, and an ordered pair of classes fixes both the meet
        # and the expected row: meet and check each class pair once, on the
        # classes' first members; some element pair i <= j falls in the
        # class pair (a, b) iff a's first member comes before b's last
        ids: dict[SetExpr, int] = {}
        cls = [ids.setdefault(d, len(ids)) for d in decomposed]
        first = {c: i for i, c in reversed(list(enumerate(cls)))}
        last = {c: i for i, c in enumerate(cls)}
        failed = {(a, b): fault for a, s in enumerate(ids) for b, t in enumerate(ids)
                  if first[a] <= last[b]
                  and (fault := _meet_fault(u, meet(s, t), raw[first[a]] & raw[first[b]]))}
        n_pairs = len(elems) * (len(elems) + 1) // 2
        if failed:    # report element pairs, in the all-pairs order
            pairs = combinations_with_replacement(range(len(elems)), 2)
            for n_pairs, (i, j) in enumerate(pairs, 1):
                fault = failed.get((cls[i], cls[j]))
                if fault is not None:
                    k, reason = fault
                    mismatches.append(f"{elems[i]!r} & {elems[j]!r}: "
                                      f"config {u.configs[k]!r} {reason}")
                    if len(mismatches) >= _MAX_REPORT:
                        break
    return OracleReport(len(elems), n_pairs, len(u), mismatches,
                        whole_space_cover, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# counting suite
# --------------------------------------------------------------------------

@dataclass
class CountRow:
    n: int
    enumerated: int
    closed_form: str
    match: bool


def counted_families(A: TransitionMatrix) -> list[int]:
    """Ids of the boundary families whose preimage counts can be checked.

    A matrix without accumulation columns has no boundary configurations,
    so a count over it would check nothing; that is an input error.
    """
    ids = [c.id for c in A.accumulation_catalog]
    if not ids:
        raise ValueError(f"kind {A.kind} has no boundary families to count")
    return ids


def counting_suite(A: TransitionMatrix, family_id: int, n_max: int) -> list[CountRow]:
    """Generation sizes of the family's preimage tree against the closed forms or bounds."""
    if n_max < 1:
        raise ValueError(f"the count needs n >= 1, not {n_max}")
    terminals = A.column_by_id(family_id).allowed_terminal_symbols
    rows: list[CountRow] = []
    for n, layer in enumerate(generation_layers(A, terminals, n_max), 1):
        got = sum(layer.values())
        want = count_preimages_closed_form(A, family_id, n)
        if isinstance(want, IntegerInterval):
            rows.append(CountRow(n, got, f"[{want.lower}, {want.upper}]", got in want))
        else:
            rows.append(CountRow(n, got, str(want), got == want))
    return rows


# --------------------------------------------------------------------------
# conformality suite
# --------------------------------------------------------------------------

def cylinder_words_up_to(A: TransitionMatrix, max_len: int, sym_bound: Symbol) -> list[Word]:
    """The admissible words of length 1..max_len on symbols <= sym_bound, sorted.

    The words are enumerated once per (matrix, max_len, sym_bound) and
    kept; each call returns a fresh list of them, which the caller may
    extend or mutate without touching the kept copy.
    """
    return list(_cylinder_words(A, max_len, sym_bound))


@lru_cache(maxsize=None)
def _cylinder_words(A: TransitionMatrix, max_len: int, sym_bound: Symbol) -> tuple[Word, ...]:
    """The words of ``cylinder_words_up_to``, memoized like
    ``cylinders.shift_image``: they depend on nothing else (a
    ``TransitionMatrix`` is interned, one object per matrix), and a tuple
    of tuples is frozen.  The unmemoized function is
    ``_cylinder_words.__wrapped__``.  One walk per length, from every letter."""
    out: list[Word] = []
    for n in range(1, max_len + 1):
        out.extend(enumerate_words(A, n, _letters(A, sym_bound), sym_bound).words)
    return tuple(sorted(out))


def conformality_suite(A: TransitionMatrix, beta: float) -> dict[str, float]:
    """Worst conformality residual of each measure built on A at ``beta``
    (``measures.constructed_measures``), over the cylinders of length up to
    6 on symbols up to 7.  A suite with no measure to check would read as a
    pass, so it is refused."""
    measures = ms.constructed_measures(A, beta)
    if not measures:
        raise ms.MeasureError(f"no measure on kind {A.kind} to check at beta={beta}")
    cyls = cylinder_words_up_to(A, 6, 7)
    return {key: ms.verify_conformality(m, cyls).max_residual for key, m in measures.items()}


# --------------------------------------------------------------------------
# pressure suite
# --------------------------------------------------------------------------

def pressure_identity_rows(A: TransitionMatrix, beta: float) -> list[tuple[int, float, float]]:
    """(n, (1/n) log Z_n for the constant potential -1, closed form), n <= 20.

    Renewal counts 2^(n-1) cycles of length n through 1, so the closed form
    is h - beta - h / n, with h = log 2 its entropy."""
    h = A.spec.critical_beta
    weight = ms.negate(th.UNIT_POTENTIAL)
    rows = []
    for n in range(1, 21):
        z = th.z_n(A, weight, beta, 1, n)
        lhs = math.log(z.value) / n
        rhs = h - beta - h / n
        rows.append((n, lhs, rhs))
    return rows


def pressure_suite(A: TransitionMatrix, beta: float) -> dict[str, float]:
    if A.kind != "renewal":
        raise ValueError("the pressure identities are specific to the renewal matrix")
    worst_id = th.worst(abs(l - r) for _, l, r in pressure_identity_rows(A, beta))
    worst_star = th.worst(abs(l - r) / r for _, l, r in th.first_return_rows(2.0))
    th.superadditivity_check(A, th.UNIT_POTENTIAL, beta, 1, 16)
    numerator = th.z_n_transfer(A, th.LOG_POTENTIAL, 1.0, 1, 8, 10)
    direct = th.z_n(A, th.LOG_POTENTIAL, 1.0, 1, 8).value
    return {
        "pressure_identity_max_residual": worst_id,
        "first_return_max_rel_residual": worst_star,
        "transfer_cross_check": abs(numerator - direct) / direct,
    }

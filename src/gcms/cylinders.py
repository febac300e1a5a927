"""Generalized-cylinder subbasis and its normalized set algebra.

The subbasis of the configuration-space topology consists of cylinders
``C_g`` and their complements, where ``g`` is either a positive admissible
word ``alpha`` or a word ``alpha j^{-1}`` with a single inverse letter
(longer inverse tails reduce to their last letter).

Every subbasis element, and every finite intersection of them, normalizes
to the disjoint form

    finite set of boundary points  |_|  cylinders  |_|  cylinder families,

where a family is a prefix together with a symbol set for the following
letter.  ``decompose`` produces the normal form of one element,
``shift_image`` that of the shift image of a cylinder, ``meet`` closes
the normal forms under finite intersection, and ``intersect_many`` folds
it over a chain of elements.
Building a normal form has two halves: ``normalize`` canonicalizes raw
parts (it forced-extends each atom and cuts each family to the row of its
prefix's last letter), and ``_assemble`` turns canonical parts into a
``SetExpr`` (finite families expanded, empty ones dropped, duplicates
rejected, parts sorted unless already in order, families by prefix alone
since disjoint parts hold one family per prefix, the whole space folded).
``meet`` only assembles: every part it keeps comes from a normal form and
is already canonical.  Two families are met once per (matrix, family,
family) (``_meet_families`` is memoized): many meets pair the same ones.
``part_contains`` decides membership of a configuration in one part;
``member`` asks whether some part contains it.  ``meet`` keeps a boundary
point of one operand iff the other operand holds it, and one normal form
meets many others on the same points, so each normal form remembers
``member``'s answer per point (``SetExpr._held``).  The memo is exact:
normal forms and points are frozen and ``part_contains`` is pure, so it
only stores what ``member`` says.  ``decompose`` interns its boundary
points (``_point``), and every family is interned: ``CylFamily`` returns
one object per (prefix, symbols), so families compare by identity and
hash in C, in every memo and row cache keyed by them.
Normal forms are checked against raw membership (``raw_member``, read off
the configuration's evaluation) in one place: ``verification``'s oracle
compares the bit rows of a normal form's parts with the raw membership
row, for single elements and their meets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterable, Sequence

from . import symbolsets as ss
from .configs import BoundedConfig, Configuration, GroupWord
from .matrices import AccumulationColumn, Symbol, TransitionMatrix
from .words import (Word, forced_extension, format_word, is_admissible, missing_edge,
                    word as parse_word)


# --------------------------------------------------------------------------
# subbasis elements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Subbasis:
    """Cylinder on ``alpha`` or on ``alpha inv^{-1}``, or its complement.

    Only a single inverse letter is stored: the cylinder on
    ``alpha gamma^{-1}`` equals the one on ``alpha gamma[-1]^{-1}``.
    The group word ``alpha inv^{-1}`` is built once per element, on first
    use (``group_word``); it is not a field, so it takes no part in
    equality or hashing.
    """

    matrix: TransitionMatrix
    alpha: Word
    inv: Symbol | None = None
    complemented: bool = False

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.alpha) or (self.inv is not None and self.inv < 1):
            raise ValueError("symbols are positive integers")
        if not is_admissible(self.matrix, self.alpha):
            raise ValueError(f"word {format_word(self.alpha)} is not admissible: "
                             f"{missing_edge(self.matrix, self.alpha)}")

    def complement(self) -> "Subbasis":
        return replace(self, complemented=not self.complemented)

    @cached_property
    def group_word(self) -> GroupWord:
        """The reduced group word ``alpha inv^{-1}`` the cylinder is defined by."""
        return GroupWord(self.alpha, () if self.inv is None else (self.inv,))

    def __repr__(self) -> str:
        inv = "" if self.inv is None else f";inv={self.inv}"
        return f"{'!' if self.complemented else ''}C[{format_word(self.alpha)}{inv}]"


def raw_member(c: Configuration, e: Subbasis) -> bool:
    """Membership straight from the configuration evaluation (the oracle),
    at the element's group word; it reads nothing of the normal forms."""
    return c.eval(e.group_word) == (0 if e.complemented else 1)


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------

# every family built so far, one object per (prefix, symbols)
_families: dict[tuple[Word, ss.SymbolSet], "CylFamily"] = {}


@dataclass(frozen=True, eq=False, init=False)
class CylFamily:
    """Disjoint union of the cylinders ``C_{prefix k}`` for k in ``symbols``.

    ``symbols`` is effective: it is already intersected with the row of the
    prefix's last letter, so only admissible continuations are denoted.

    Families are interned: building one returns the object already built
    from an equal ``(prefix, symbols)``, so two families are equal iff they
    are the same object, and ``==`` and ``hash`` are the object's own, in C.
    ``dataclasses.replace``, ``copy`` and ``pickle`` rebuild a family
    through the constructor (``__reduce__``), so they return the interned
    object too.
    """

    __slots__ = ("prefix", "symbols")

    prefix: Word
    symbols: ss.SymbolSet

    def __new__(cls, prefix: Word, symbols: ss.SymbolSet) -> "CylFamily":
        key = (prefix, symbols)
        f = _families.get(key)
        if f is None:
            f = object.__new__(cls)
            object.__setattr__(f, "prefix", prefix)
            object.__setattr__(f, "symbols", symbols)
            f = _families.setdefault(key, f)
        return f

    def __reduce__(self):
        return CylFamily, (self.prefix, self.symbols)

    def __repr__(self) -> str:
        return f"Fam[{format_word(self.prefix)}; {ss.describe(self.symbols)}]"


@dataclass(frozen=True)
class SetExpr:
    """A normal form: the whole-space flag, or disjoint points, atoms and families.

    ``_held`` answers ``member`` for boundary points and keeps the answers;
    the memo and ``_point_set`` are not fields, so they take no part in
    equality, hashing or the representation.
    """

    matrix: TransitionMatrix
    whole_space: bool
    points: tuple[BoundedConfig, ...]
    atoms: tuple[Word, ...]
    families: tuple[CylFamily, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.whole_space or self.points or self.atoms or self.families)

    @cached_property
    def _point_memo(self) -> dict[BoundedConfig, bool]:
        return {}

    @cached_property
    def _point_set(self) -> frozenset[BoundedConfig]:
        return frozenset(self.points)

    def _held(self, points: Iterable[BoundedConfig]) -> list[BoundedConfig]:
        """The points of ``points`` that ``member`` puts in this normal form,
        each decided once per normal form.  Exact: the normal form and the
        points are frozen and ``part_contains`` is pure, so an answer never
        changes; the memo is keyed by the point itself, so a point of another
        matrix with the same stem and root id is a different key."""
        memo = self._point_memo
        held = []
        for p in points:
            hit = memo.get(p)
            if hit is None:
                hit = memo[p] = member(p, self)
            if hit:
                held.append(p)
        return held

    def __repr__(self) -> str:
        if self.whole_space:
            return "SetExpr[X]"
        if self.is_empty:
            return "SetExpr[empty]"
        bits = []
        bits.extend(repr(p) for p in self.points)
        bits.extend(f"C[{format_word(a)}]" for a in self.atoms)
        bits.extend(repr(f) for f in self.families)
        return "SetExpr[" + " U ".join(bits) + "]"


_point_key = attrgetter("stem", "root.id")
# every first-letter cylinder: the whole space less its empty-stem points
_FIRST_LETTERS = CylFamily((), ss.ALL)


def normalize(A: TransitionMatrix, points: Sequence[BoundedConfig] = (),
              atoms: Iterable[Word] = (), families: Iterable[CylFamily] = ()) -> SetExpr:
    """Canonical SetExpr from raw parts: forced-extended atoms, effective families.

    Each atom is replaced by its forced extension and each family's symbols
    are cut to the row of its prefix's last letter; ``_assemble`` does the
    rest.  The raw atoms and family prefixes must be admissible words (a
    ``Subbasis`` or ``shift_image`` has checked them): they are not checked
    again, so every part of the result is admissible, which is what lets
    the measures read the parts unchecked.
    """
    atoms = [forced_extension(A, a) for a in atoms]
    families = [CylFamily(f.prefix, ss.intersect(A, f.symbols, A.row(f.prefix[-1])))
                if f.prefix else f for f in families]
    return _assemble(A, points, atoms, families)


def _in_order(parts: Sequence, key, what: str) -> tuple:
    """``parts`` sorted by ``key`` (None: by themselves), which no two of them
    may share: two parts of a disjoint decomposition with one key overlap.
    Parts whose keys already increase strictly are returned as they are; a
    meet's points and atoms nearly always are, as its operands' were."""
    if len(parts) < 2:
        return tuple(parts)
    keys = parts if key is None else [key(p) for p in parts]
    if all(k < l for k, l in zip(keys, keys[1:])):
        return tuple(parts)
    order = sorted(range(len(parts)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            raise RuntimeError(f"duplicate {what} {parts[i]!r} in decomposition")
    return tuple(parts[i] for i in order)


def _assemble(A: TransitionMatrix, points: Sequence[BoundedConfig], atoms: Iterable[Word],
              families: Iterable[CylFamily]) -> SetExpr:
    """SetExpr from canonical parts: forced-extended atoms, effective families.

    Families whose symbol set is finite are expanded into atoms and empty
    ones dropped; no points, no families and at most one atom are a normal
    form as they are.  Families are sorted by prefix alone, and two parts
    with one key indicate a broken disjoint decomposition and raise.
    """
    out_atoms = list(atoms)
    out_fams: list[CylFamily] = []
    finite = A.size is not None     # only a finite alphabet has an empty sieve
    for f in families:
        if isinstance(f.symbols, ss.FiniteSet):
            out_atoms.extend(forced_extension(A, f.prefix + (k,)) for k in f.symbols.symbols)
        elif not (finite and ss.is_definitely_empty(A, f.symbols)):
            out_fams.append(f)
    if not points and not out_fams and len(out_atoms) < 2:
        return SetExpr(A, False, (), tuple(out_atoms), ())
    out_points = _in_order(points, _point_key, "point")
    out_atoms = _in_order(out_atoms, None, "cylinder")
    fams = _in_order(out_fams, attrgetter("prefix"), "family")
    # fold the canonical whole-space decomposition (all empty-stem points
    # plus every first-letter cylinder) back into the whole-space flag
    if (not out_atoms and len(fams) == 1 and fams[0] is _FIRST_LETTERS
            and set(map(_point_key, out_points)) == {((), c.id) for c in A.accumulation_catalog}):
        return SetExpr(A, True, (), (), ())
    return SetExpr(A, False, out_points, out_atoms, fams)


# --------------------------------------------------------------------------
# decomposition of a subbasis element
# --------------------------------------------------------------------------

def _roots(A: TransitionMatrix, stem: Word) -> list[AccumulationColumn]:
    """Accumulation columns that root a boundary configuration on ``stem``."""
    return [col for col in A.accumulation_catalog
            if not stem or stem[-1] in col.allowed_terminal_symbols]


# the boundary points of decompose, one object per (matrix, stem, root): a
# memo or row-cache lookup of a point met again stops at the identity check
_point = lru_cache(maxsize=None)(BoundedConfig)


def decompose(e: Subbasis) -> SetExpr:
    """Normal form of one subbasis element.

    Complements split along every prefix position, each contributing the
    boundary points with that proper prefix as stem; inverse cylinders add
    the stem-exactly boundary points plus the family of continuations, both
    decided by the inverse letter's row.
    """
    A, alpha, inv = e.matrix, e.alpha, e.inv
    if inv is not None and alpha and alpha[-1] == inv:
        alpha, inv = alpha[:-1], None    # alpha j j^{-1} reduces to alpha
    if inv is None and not alpha:
        return SetExpr(A, not e.complemented, (), (), ())
    if inv is None and not e.complemented:
        return normalize(A, atoms=[alpha])
    points: list[BoundedConfig] = []
    fams: list[CylFamily] = []
    if e.complemented:
        points = [_point(A, alpha[:m], col)
                  for m in range(len(alpha)) for col in _roots(A, alpha[:m])]
        fams = [CylFamily(alpha[:m], ss.all_except({alpha[m]})) for m in range(len(alpha))]
    if inv is not None:
        points += [_point(A, alpha, col) for col in _roots(A, alpha)
                   if (inv in col.allowed_terminal_symbols) != e.complemented]
        fams.append(CylFamily(alpha, ss.row_zero(A, inv) if e.complemented else A.row(inv)))
    return normalize(A, points=points, families=fams)


@lru_cache(maxsize=None)
def shift_image(A: TransitionMatrix, alpha: Word) -> SetExpr:
    """Normal form of the forward shift image of the cylinder on alpha.

    The shift takes C_(a w) onto C_w and C_a onto the inverse cylinder
    C_(a^-1).  An inadmissible word has an empty cylinder and image: the
    word is checked here, once per (matrix, word), so the measures read the
    parts of every image unchecked.  Memoized like ``_point``: the image is
    frozen and depends on nothing else.  The unmemoized function is
    ``shift_image.__wrapped__``.
    """
    if not alpha:
        raise ValueError("the shift is not defined on the whole space")
    if len(alpha) == 1:
        return decompose(Subbasis(A, (), alpha[0]))
    return normalize(A, atoms=[alpha[1:]] if is_admissible(A, alpha) else [])


# --------------------------------------------------------------------------
# intersection of normal forms
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _meet_families(A: TransitionMatrix, f: CylFamily, g: CylFamily) -> CylFamily | None:
    """The meet of two effective families: one family, or None if they are
    disjoint.  Memoized per (matrix, family, family), like ``_point``: it
    depends on nothing else, and all three are frozen and interned, so
    they hash in C.  The oracle's meets pair the same families many
    times over.  The unmemoized function is ``_meet_families.__wrapped__``."""
    if f.prefix == g.prefix:
        return CylFamily(f.prefix, ss.intersect(A, f.symbols, g.symbols))
    outer, inner = (f, g) if len(f.prefix) < len(g.prefix) else (g, f)
    n = len(outer.prefix)
    if outer.prefix == inner.prefix[:n] and ss.contains(A, outer.symbols, inner.prefix[n]):
        return inner
    return None


def meet(s: SetExpr, t: SetExpr) -> SetExpr:
    """Intersection of two normal forms, again in normal form.

    The operands must be normal forms (from ``decompose``, ``normalize`` or
    ``meet``): every part kept is one of theirs, or the same-prefix meet of
    two effective families, which is effective, so the parts are assembled
    without being canonicalized again.  A point of one operand survives iff
    the other holds it (``SetExpr._held``, which remembers ``member``'s
    answers), so a normal form met many times decides each point once.
    Every part-against-part case is decidable; a pair this function cannot
    resolve would mean the normal form is not closed, which is an internal
    error.
    """
    A = s.matrix
    if A is not t.matrix:
        raise ValueError("set expressions over different matrices")
    if s.whole_space:
        return t
    if t.whole_space:
        return s
    atoms: list[Word] = []
    families: list[CylFamily] = []

    # points survive iff they belong to the other expression
    points = t._held(s.points) if s.points else []
    if t.points:
        points += s._held([q for q in t.points if q not in s._point_set])

    # a part loop runs only if both its sides hold parts: most meets keep
    # little, and an empty side meets nothing
    # of two nested cylinders the longer word survives (u == w[:len(u)]: u prefixes w)
    if s.atoms and t.atoms:
        for a in s.atoms:
            for b in t.atoms:
                if a == b[:len(a)]:
                    atoms.append(b)
                elif b == a[:len(b)]:
                    atoms.append(a)
    # a family inside the cylinder survives whole; a cylinder inside the
    # family survives if its next letter is one of the family's symbols
    for own, other in ((s.atoms, t.families), (t.atoms, s.families)):
        if own and other:
            for a in own:
                for f in other:
                    m = len(f.prefix)
                    if a == f.prefix[:len(a)]:
                        families.append(f)
                    elif f.prefix == a[:m] and ss.contains(A, f.symbols, a[m]):
                        atoms.append(a)
    if s.families and t.families:
        for f in s.families:
            for g in t.families:
                hit = _meet_families(A, f, g)
                if hit is not None:
                    families.append(hit)
    return _assemble(A, points, atoms, families)


def intersect_many(elems: Sequence[Subbasis]) -> SetExpr:
    """Left fold of pairwise intersection; the result is again normal."""
    if not elems:
        raise ValueError("need at least one subbasis element")
    acc = decompose(elems[0])
    for e in elems[1:]:
        acc = meet(acc, decompose(e))
    return acc


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def part_contains(c: Configuration, part: BoundedConfig | Word | CylFamily) -> bool:
    """Whether ``c`` lies in one part of a normal form: a boundary point, the
    cylinder on an atom word, or a cylinder family."""
    if isinstance(part, BoundedConfig):
        return part == c
    if isinstance(part, CylFamily):
        nxt = c.symbol_at(len(part.prefix))
        return (nxt is not None and c.has_prefix(part.prefix)
                and ss.contains(c.matrix, part.symbols, nxt))
    return c.has_prefix(part)


def member(c: Configuration, s: SetExpr) -> bool:
    """Whether some part of ``s`` contains ``c``: the one membership rule, which
    ``SetExpr._held`` only remembers."""
    return s.whole_space or any(part_contains(c, part)
                                for part in (*s.points, *s.atoms, *s.families))


# --------------------------------------------------------------------------
# CLI expression grammar
# --------------------------------------------------------------------------

_MAX_LETTER = 100_000    # the largest letter an expression may name


def parse_elem(A: TransitionMatrix, text: str) -> Subbasis:
    """Parse ``C[3.2.1]``, ``!C[3.2.1]``, ``C[2.1;inv=3]``, ``!C[2.1;inv=3]``.

    Letters above ``_MAX_LETTER`` are rejected before the element is built:
    on the renewal kinds the normal form of a letter ``s`` is a forced word
    of about ``s`` letters.
    """
    text = text.strip()
    complement = text.startswith("!")
    body = text[1:] if complement else text
    if not (body.startswith("C[") and body.endswith("]")):
        raise ValueError(f"cannot parse cylinder expression {text!r}")
    word_part, modified, modifier = body[2:-1].partition(";")
    key, _, value = modifier.partition("=")
    if modified and key.strip() != "inv":
        raise ValueError(f"unknown modifier in {text!r}")
    try:
        inv: Symbol | None = int(value) if modified else None
        alpha = () if word_part.strip() in ("", "e") else parse_word(word_part)
    except ValueError:
        raise ValueError(f"cannot parse cylinder expression {text!r}") from None
    for s in (*alpha, *(() if inv is None else (inv,))):
        if s > _MAX_LETTER:
            raise ValueError(f"symbol {s} is above {_MAX_LETTER}")
    return Subbasis(A, alpha, inv, complement)


def parse_expression(A: TransitionMatrix, text: str) -> list[Subbasis]:
    """Parse an ``&``-separated chain of subbasis elements."""
    return [parse_elem(A, chunk) for chunk in text.split("&")]

"""Word combinatorics over a transition matrix.

Words are tuples of positive integers; the empty word is ``()``.
Enumeration runs backward along the (finite) column supports, so on the
built-in matrix kinds it is exact: ``symbol_bound`` only filters what
``enumerate_words`` returns, recording whether it removed anything.
``backward_words`` checks each distinct edge against ``entry`` once per
walk, when it first reads the edge's column, so every word it yields is
admissible edge by edge, with no second pass over the word; a column
support that lists a letter whose entry is 0 raises ``ValueError`` naming
the pair.  Every walk over words goes through it:
the n-th shift preimages (``configs.preimages``) and the cycles.  A cycle
of length n through a letter b is one rule, written once in
``iter_cycles``: the rotation (b,) + w[:-1] of a backward word w of length
n that ends in b and whose first letter b may precede, so its closing edge
is an edge of the walk too.  ``thermo``'s partition functions count the
same words by the same rule without building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .matrices import Symbol, TransitionMatrix

Word = tuple[Symbol, ...]


def word(text: str) -> Word:
    """Parse a dot-separated word literal, e.g. ``"3.2.1"``; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split("."))


def format_word(w: Word) -> str:
    return ".".join(str(s) for s in w) if w else "e"


def is_admissible(A: TransitionMatrix, w: Word) -> bool:
    """True iff every consecutive transition is allowed; length <= 1 is admissible.

    ``entry`` returns 0 or 1, so its truth value is the ``== 1`` test.
    """
    return all(map(A.entry, w, w[1:]))


def missing_edge(A: TransitionMatrix, w: Word) -> str:
    """``A(a, b) = 0`` for the first transition a -> b of the inadmissible
    word ``w`` that A refuses: what a refusal of the word appends, so that
    ``is_admissible`` stays the one check on the accepting path."""
    a, b = next((a, b) for a, b in zip(w, w[1:]) if not A.entry(a, b))
    return f"A({a}, {b}) = 0"


def is_prefix(p: Word, w: Word) -> bool:
    return len(p) <= len(w) and w[: len(p)] == p


def forced_extension(A: TransitionMatrix, w: Word) -> Word:
    """Extend the admissible word ``w`` while its last symbol has a single
    allowed successor.

    Cylinders on ``w`` and on its forced extension contain exactly the same
    configurations, so the extension is the canonical representative.

    On the rule kinds the forced run is the descent w[-1] - 1, ..., down to
    ``A.spec.descent_stop(w[-1])``: their kind gives them no finite row
    other than ``A.row(i)`` = {i - 1}, so along a forced run every letter
    is one less than the letter before, no letter repeats, and the run is
    one ``range``.

    A stored matrix walks the run letter by letter.  Its trailing forced
    run is the longest suffix of ``w`` in which every letter but the last
    has a single allowed successor.  A run that repeats a letter has
    entered a cycle, and the cylinder is one periodic point: the run is cut
    at its first repeated letter, in ``w`` and in the extension alike, so
    every word naming that point gives the same result and extending the
    result again returns it unchanged.
    """
    if not w:
        return w
    stop = A.spec.descent_stop
    if stop is not None:
        return w + tuple(range(w[-1] - 1, stop(w[-1]) - 1, -1))

    def successor(s: Symbol) -> Symbol | None:
        row = A.row(s)
        return min(row.symbols) if len(row.symbols) == 1 else None

    start = len(w) - 1
    while start > 0 and successor(w[start - 1]) is not None:
        start -= 1
    out = list(w[:start])
    run: set[Symbol] = set()
    for s in w[start:]:
        out.append(s)
        if s in run:
            return tuple(out)
        run.add(s)
    while (nxt := successor(out[-1])) is not None:
        out.append(nxt)
        if nxt in run:
            break
        run.add(nxt)
    return tuple(out)


@dataclass
class Enumeration:
    """Enumerated words and how many the symbol bound dropped (0: complete)."""

    words: list[Word]
    dropped: int


def backward_words(A: TransitionMatrix, n: int, seeds: Iterable[Symbol]) -> Iterator[Word]:
    """All admissible words of length n whose last symbol is in ``seeds``.

    Walks column supports right to left, depth first, and yields each word
    of the last layer as it is built.  Each letter's column is read once
    per walk, when a suffix first starts with that letter ``first``, and
    each of its edges is checked then: ``A(p, first)`` must be 1 for every
    listed ``p``, else ``ValueError`` names the pair.  So ``entry`` runs
    once per distinct edge of the walk, and it has passed every transition
    of every yielded word, which is what ``is_admissible`` asserts.
    """
    if n == 0:
        yield ()
        return
    seeds = sorted(seeds)
    if n == 1:
        yield from ((s,) for s in seeds)
        return
    columns: dict[Symbol, tuple[Symbol, ...]] = {}
    stack: list[Word] = [(s,) for s in reversed(seeds)]
    while stack:
        suffix = stack.pop()
        first = suffix[0]
        preds = columns.get(first)
        if preds is None:
            preds = columns[first] = A.predecessors(first)
            for p in reversed(preds):
                if A.entry(p, first) != 1:
                    raise ValueError(
                        f"{p} listed as a predecessor of {first}, but A({p}, {first}) = 0")
        if len(suffix) == n - 1:
            for p in preds:
                yield (p,) + suffix
        else:
            stack.extend([(p,) + suffix for p in reversed(preds)])


def generation_layers(A: TransitionMatrix, seeds: Iterable[Symbol], n: int,
                      weight: float = 1) -> Iterator[dict[Symbol, float]]:
    """Layers 1..n of the backward walk from ``seeds``, one dict per length,
    each yielded as soon as it is built.

    Layer k maps a first letter to the total ``weight**k`` over the
    admissible words of length k that start with that letter and end in a
    seed; with ``weight=1`` the totals are exact integer counts.  The walk
    keeps one entry per first letter, so it never builds the words that
    ``backward_words`` yields, and it reads each letter's column support
    once, however many layers the letter appears in.  It builds layer k + 1
    only when asked for it, so a caller that stops after layer k has read
    no column of layer k's letters.
    """
    layer = {s: weight for s in sorted(seeds)}
    columns: dict[Symbol, tuple[Symbol, ...]] = {}
    for k in range(n):
        if k:
            nxt: dict[Symbol, float] = {}
            for sym, x in layer.items():
                x *= weight
                preds = columns.get(sym)
                if preds is None:
                    preds = columns[sym] = A.predecessors(sym)
                for p in preds:
                    nxt[p] = nxt.get(p, 0) + x
            layer = nxt
        yield layer


def enumerate_words(A: TransitionMatrix, n: int, last_in: Iterable[Symbol],
                    symbol_bound: Symbol) -> Enumeration:
    """Admissible words of length n over symbols <= symbol_bound ending in ``last_in``.

    Output is in lexicographic order and duplicate-free.  The enumeration
    itself is exact; words containing symbols above the bound are dropped
    and counted.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    seeds = sorted(set(last_in))
    if n == 0:
        return Enumeration([()], 0)
    kept: list[Word] = []
    dropped = 0
    total_seeds = [s for s in seeds if s <= symbol_bound]
    dropped += len(seeds) - len(total_seeds)
    for w in backward_words(A, n, total_seeds):
        if all(s <= symbol_bound for s in w):
            kept.append(w)
        else:
            dropped += 1
    kept.sort()
    return Enumeration(kept, dropped)


def iter_cycles(A: TransitionMatrix, n: int, through: Symbol) -> Iterator[Word]:
    """The cycles of length n through ``through``, each written from it.

    The one cycle rule: (through,) + w[:-1] for each word w of
    ``backward_words(A, n, (through,))`` with A(through, w[0]) = 1.  The
    walk checks every edge against ``entry``, the closing edge into
    ``through`` included.  Exact (no truncation) on every supported kind.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for w in backward_words(A, n, (through,)):
        if A.entry(through, w[0]) == 1:
            yield (through,) + w[:-1]

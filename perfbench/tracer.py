"""In-process tracer for the gcms package, installed from outside it.

``Tracer.install`` replaces every public function of the gcms modules, plus
the hot methods ``TransitionMatrix.entry``/``predecessors`` and
``BoundedConfig.eval``/``UnboundedConfig.eval``, with a timing wrapper in
every ``gcms.*`` namespace that binds them (``from .words import
iter_cycles`` copies the binding, so each copy is replaced).  Nothing under
``src/`` is edited; ``uninstall`` restores the originals.

Each wrapped call pushes a frame on one stack.  A call's self time is its
duration minus the durations of the wrapped calls made inside it, so a
module's self time is the sum over its wrapped functions, and private
helpers count toward the public function that called them.  Generator
functions are timed while their body runs (each ``next``), not while the
consumer holds a yielded item.

Calls named in ``COARSE`` also keep one span each (id, parent id, name,
start, end), in memory; every other function keeps only aggregated counts
and times, which keeps the cost of hot leaf calls (``entry``,
``predecessors``, ``contains``, ``raw_member``, ``eval``) low.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

MODULES = ("matrices", "words", "configs", "symbolsets", "cylinders", "thermo",
           "measures", "verification", "cli")

# (module, class, method) wrapped besides the public top-level functions
METHODS = (("matrices", "TransitionMatrix", "entry"),
           ("matrices", "TransitionMatrix", "predecessors"),
           ("configs", "BoundedConfig", "eval"),
           ("configs", "UnboundedConfig", "eval"))

# Calls that keep per-call spans: a handful to a few hundred per pass.
COARSE = frozenset({
    "cli.main", "cli.cmd_count", "cli.cmd_phase", "cli.cmd_verify", "cli.cmd_converge",
    "cli.cmd_measure", "cli.cmd_decompose", "cli.cmd_pressure",
    "verification.cylinder_oracle", "verification.build_universe",
    "verification.whole_space_cover_check", "verification.counting_suite",
    "verification.conformality_suite", "verification.pressure_suite",
    "verification.pressure_identity_rows", "verification.first_return_rows",
    "thermo.z_n", "thermo.z_n_star", "thermo.z_n_transfer", "thermo.pointwise_z",
    "thermo.gurevich_pressure", "thermo.superadditivity_check",
    "thermo.pressure_log_potential", "thermo.normalization_series", "thermo.zeta",
    "thermo.critical_beta_log",
    "measures.y_measure", "measures.log_eigenmeasure", "measures.verify_conformality",
    "measures.weak_star_sweep",
    "configs.preimages",
})


class Stat:
    """Aggregated numbers of one wrapped function."""

    __slots__ = ("calls", "self_s", "total_s", "items", "attempts", "distinct")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.items = 0          # words, cycles, configs or terms produced
        self.attempts = 0       # enumerate_words: words before the symbol filter
        self.distinct = None    # meet: set of distinct normal forms returned


def normalization_series_terms(beta: float, lam: float, tol: float = 1e-15) -> int:
    """Terms ``thermo.normalization_series`` sums, by its own truncation rule.

    Computed from the arguments, not counted inside the function.
    """
    if lam <= 1.0:
        return 0
    return int(math.ceil((math.log(1.0 / tol) - math.log1p(-1.0 / lam))
                         / math.log(lam))) + 2


# Result hooks: fn(stat, result, args, kwargs) records counts from a result.

def _count_len(st: Stat, result, args, kwargs) -> None:
    st.items += len(result)


def _count_terms(st: Stat, result, args, kwargs) -> None:
    st.items += result.n_terms


def _count_kept(st: Stat, result, args, kwargs) -> None:
    st.items += len(result.words)
    st.attempts += len(result.words) + result.dropped


def _count_distinct(st: Stat, result, args, kwargs) -> None:
    st.distinct.add(result)


def _series_terms(st: Stat, result, args, kwargs) -> None:
    st.items += normalization_series_terms(*args, **kwargs)


POST_HOOKS = {
    "configs.preimages": _count_len,
    "thermo.z_n": _count_terms,
    "thermo.z_n_star": _count_terms,
    "thermo.pointwise_z": _count_terms,
    "words.enumerate_words": _count_kept,
    "cylinders.meet": _count_distinct,
    "thermo.normalization_series": _series_terms,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        # frame = [time covered by wrapped children, id of the enclosing span]
        self._stack: list[list] = [[0.0, 0]]
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []
        self.series_in_roots = 0    # normalization_series calls made by pressure_log_potential

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, fn, st: Stat):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                stack[-1][0] += dur
        return wrapper

    def _call(self, fn, st: Stat, name: str, span: bool, post):
        stack, clock, spans = self._stack, time.perf_counter, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = self._next_span
                self._next_span += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                stack[-1][0] += dur
                if span:
                    spans.append((sid, parent[1], name, t0, t1))
            if post is not None:
                post(st, result, args, kwargs)
            return result
        return wrapper

    def _gen(self, fn, st: Stat):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            st.calls += 1

            def steps():
                try:
                    while True:
                        frame = [0.0, stack[-1][1]]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dur = clock() - t0
                            stack.pop()
                            st.total_s += dur
                            st.self_s += dur - frame[0]
                            stack[-1][0] += dur
                        st.items += 1
                        yield item
                finally:
                    it.close()
            return steps()
        return wrapper

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Stat())
        post = POST_HOOKS.get(name)
        if name == "cylinders.meet":
            st.distinct = set()
        if inspect.isgeneratorfunction(fn):
            return self._gen(fn, st)
        if name == "thermo.pressure_log_potential":
            return self._root_solver(fn, st, name)
        if post is None and name not in COARSE:
            return self._leaf(fn, st)
        return self._call(fn, st, name, name in COARSE, post)

    def _root_solver(self, fn, st: Stat, name: str):
        series = self.stats.setdefault("thermo.normalization_series", Stat())
        inner = self._call(fn, st, name, True, None)

        def wrapper(*args, **kwargs):
            before = series.calls
            try:
                return inner(*args, **kwargs)
            finally:
                self.series_in_roots += series.calls - before
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap the public gcms functions in every gcms namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "gcms" or n.startswith("gcms.")]
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"gcms.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"gcms.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out


# Per-layer metrics reported by a traced run, in report order:
# (function, stats).  Each ``<module>.self_s`` total follows them.
LAYER_METRICS = (
    ("matrices.predecessors", ("calls", "self_s")),
    ("matrices.entry", ("calls", "self_s")),
    ("words.backward_words", ("words", "self_s")),
    ("words.iter_cycles", ("cycles", "self_s")),
    ("words.enumerate_words", ("calls", "self_s", "kept_ratio")),
    ("configs.preimages", ("calls", "configs", "self_s")),
    ("configs.eval", ("calls", "self_s")),
    ("symbolsets.contains", ("calls", "self_s")),
    ("symbolsets.intersect", ("calls", "self_s")),
    ("cylinders.decompose", ("calls", "self_s")),
    ("cylinders.meet", ("calls", "self_s", "distinct_ratio")),
    ("cylinders.raw_member", ("calls", "self_s")),
    ("cylinders.normalize", ("calls", "self_s")),
    ("verification.build_universe", ("calls", "self_s")),
    ("verification.setexpr_count_vec", ("calls", "self_s")),
    ("verification.cylinder_oracle", ("calls", "self_s")),
    ("verification.counting_suite", ("calls", "self_s")),
    ("thermo.z_n", ("calls", "terms", "self_s")),
    ("thermo.z_n_star", ("calls", "terms", "self_s")),
    ("thermo.pointwise_z", ("calls", "terms", "self_s")),
    ("thermo.superadditivity_check", ("self_s",)),
    ("thermo.normalization_series", ("calls", "self_s", "terms")),
    ("thermo.pressure_log_potential", ("calls", "series_per_root")),
    ("thermo.zeta", ("calls", "self_s")),
    ("measures.measure_setexpr", ("calls", "self_s")),
    ("measures.verify_conformality", ("calls", "self_s")),
    ("measures.y_measure", ("calls", "self_s")),
    ("measures.log_eigenmeasure", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

UNITS = {"self_s": "s", "kept_ratio": "ratio", "distinct_ratio": "ratio",
         "series_per_root": "calls/root"}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics as (value, unit); times are in seconds.

    ``words``/``cycles``/``configs`` count items produced, ``terms`` sums
    ``ZValue.n_terms`` (for ``normalization_series``: terms computed from
    the arguments), ``kept_ratio`` is words kept by the symbol bound over
    words enumerated, ``distinct_ratio`` is distinct normal forms returned
    over calls, and ``series_per_root`` is series evaluations per root
    solve.  A ratio over zero calls reads 0.
    """
    out: dict[str, tuple[float, str]] = {}
    for name, stats in LAYER_METRICS:
        st = tr.stats.get(name) or Stat()
        for stat in stats:
            if stat == "calls":
                value = st.calls
            elif stat == "self_s":
                value = st.self_s
            elif stat == "kept_ratio":
                value = st.items / st.attempts if st.attempts else 0.0
            elif stat == "distinct_ratio":
                value = len(st.distinct) / st.calls if st.calls else 0.0
            elif stat == "series_per_root":
                value = tr.series_in_roots / st.calls if st.calls else 0.0
            else:
                value = st.items
            out[f"{name}.{stat}"] = (value, UNITS.get(stat, "count"))
    for module, value in tr.module_self_s().items():
        out[f"{module}.self_s"] = (value, "s")
    return out

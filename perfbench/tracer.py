"""Per-layer tracing by wrapping imprimlab's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
imprimlab module that imported it (and methods on their class), and
``Tracer.uninstall`` puts the originals back.  Each wrapped call is a span
(name, start, end, parent, run id); self time is a span's duration minus the
time its child spans cover.  Hot leaf layers, called hundreds of thousands of
times, add to the counts and self times but keep no individual span, which
bounds the memory and the overhead of a traced run.

Everything runs on one thread, so no layer ever waits on another and no
wait time is recorded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path, hot); the attribute path is "func" or
# "Class.method".
LAYERS = (
    ("linalg.rref", "linalg", "rref", True),
    ("linalg.Subspace.apply", "linalg", "Subspace.apply", True),
    ("linalg.Matrix.mul", "linalg", "Matrix.__mul__", True),
    ("linalg.direct_sum_check", "linalg", "direct_sum_check", True),
    ("linalg.all_subspaces", "linalg", "all_subspaces", True),
    ("imprim.all_systems", "imprim", "all_systems", False),
    ("imprim.subspace_orbit", "imprim", "subspace_orbit", False),
    ("imprim.is_refinement", "imprim", "is_refinement", True),
    ("imprim.nonrefinable_via_stabilizer", "imprim", "nonrefinable_via_stabilizer", False),
    ("imprim.part_stabilizer_elements", "imprim", "part_stabilizer_elements", False),
    ("groups.mulclose", "groups", "mulclose", False),
    ("groups.derived_subgroup", "groups", "MatrixGroup.derived_subgroup", False),
    ("groups.block_systems", "groups", "block_systems", False),
    ("reprs.spin", "reprs", "spin", True),
    ("reprs.is_irreducible", "reprs", "is_irreducible", False),
    ("reprs.invariant_subspaces", "reprs", "invariant_subspaces", False),
    ("reprs.hom_dimension", "reprs", "hom_dimension", False),
    ("wreath.check_hypotheses", "wreath", "check_hypotheses", False),
    ("wreath.wreath_product", "wreath", "wreath_product", False),
    ("descriptions.parse_group", "descriptions", "parse_group", False),
    ("verify.report", "verify", "wreath_uniqueness_report", False),
    ("verify.report", "verify", "induced_example_report", False),
    ("verify.report", "verify", "wreath_inclusion_report", False),
    ("verify.report", "verify", "maximal_solvable_witness", False),
    ("cli.run_command", "cli", "run_command", False),
)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.Subspace.apply.calls", "count"),
    ("linalg.all_subspaces.yielded", "count"),
    ("linalg.direct_sum_check.calls", "count"),
    ("imprim.all_systems.self_s", "s"),
    ("imprim.all_systems.subspaces_scanned", "count"),
    ("imprim.subspace_orbit.calls", "count"),
    ("imprim.subspace_orbit.self_s", "s"),
    ("imprim.orbit_hit_ratio", "ratio"),
    ("groups.mulclose.calls", "count"),
    ("groups.mulclose.elements", "count"),
    ("groups.mulclose.self_s", "s"),
    ("linalg.Matrix.mul.calls", "count"),
    ("groups.derived_subgroup.calls", "count"),
    ("groups.derived_subgroup.self_s", "s"),
    ("imprim.nonrefinable_via_stabilizer.calls", "count"),
    ("imprim.nonrefinable_via_stabilizer.self_s", "s"),
    ("imprim.part_stabilizer_elements.tested", "count"),
    ("imprim.is_refinement.calls", "count"),
    ("wreath.check_hypotheses.calls", "count"),
    ("reprs.is_irreducible.calls", "count"),
    ("reprs.is_irreducible.self_s", "s"),
    ("reprs.spin.calls", "count"),
    ("groups.block_systems.self_s", "s"),
    ("wreath.wreath_product.self_s", "s"),
    ("reprs.invariant_subspaces.self_s", "s"),
    ("reprs.hom_dimension.calls", "count"),
    ("descriptions.parse_group.self_s", "s"),
    ("verify.report.self_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("errors.cap_errors", "count"),
)

MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.run_id = 0
        self.spans = []  # (span id, name, start, end, parent span id, run id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self._stack = []  # [name, start, child seconds, span id or None]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, owner had it)

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str, hot: bool):
        if self._stack:
            self.edges[(self._stack[-1][0], name)] += 1
        else:
            self.run_id += 1  # spans of one top-level call share a run id
        span_id = None
        if not hot:
            span_id, self._next_id = self._next_id, self._next_id + 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def _exit(self, hot: bool):
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if not hot:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, func, hot: bool):
        tracer = self
        after = _AFTER.get(name)

        if name == "linalg.all_subspaces":
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._counted(name, func(*args, **kwargs))
        elif name == "imprim.all_systems":
            def wrapper(*args, **kwargs):
                # pass a stats dict when the caller gave none, so the scan
                # always reports how many subspaces it scanned
                if len(args) < 3 and kwargs.get("stats") is None:
                    kwargs["stats"] = {}
                stats = args[2] if len(args) >= 3 else kwargs["stats"]
                before = stats.get("subspaces_scanned", 0)
                result = tracer._call(name, hot, func, args, kwargs)
                tracer.counts["imprim.all_systems.subspaces_scanned"] += (
                    stats["subspaces_scanned"] - before)
                tracer.counts["imprim.all_systems.systems_found"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = tracer._call(name, hot, func, args, kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _call(self, name, hot, func, args, kwargs):
        self.calls[name] += 1
        self._enter(name, hot)
        try:
            return func(*args, **kwargs)
        finally:
            self._exit(hot)

    def _counted(self, name, gen):
        # time every resumption, so the enumeration is a child of its consumer
        while True:
            self._enter(name, True)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(True)
            self.counts[name + ".yielded"] += 1
            yield item

    def _count_cap_error(self, init):
        tracer = self

        def wrapper(exc, *args, **kwargs):
            tracer.counts["errors.cap_errors"] += 1
            return init(exc, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, attribute, value):
        had = attribute in vars(owner)
        self._patches.append((owner, attribute, getattr(owner, attribute), had))
        setattr(owner, attribute, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import imprimlab.cli  # noqa: F401  (loads every traced module)
        from imprimlab import errors

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "imprimlab" or n.startswith("imprimlab.")]
        try:
            for name, module, path, hot in LAYERS:
                owner = sys.modules[f"imprimlab.{module}"]
                if "." in path:
                    cls_name, attribute = path.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attribute,
                                self._wrap(name, vars(cls)[attribute], hot))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(name, original, hot)
                for mod in modules:
                    for attribute, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attribute, wrapper)
            # every CapError subclass constructor runs CapError.__init__ once
            self._patch(errors.CapError, "__init__",
                        self._count_cap_error(errors.CapError.__init__))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attribute, original, had in reversed(self._patches):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, from the counts and self times so far."""
        values = {}
        for metric, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = self.calls[layer]
            elif field == "self_s":
                values[metric] = self.self_s[layer]
            else:
                values[metric] = self.counts[metric]
        orbits = self.edges[("imprim.all_systems", "imprim.subspace_orbit")]
        found = self.counts["imprim.all_systems.systems_found"]
        values["imprim.orbit_hit_ratio"] = found / orbits if orbits else 0.0
        return values

    def layer_totals(self) -> dict:
        names = sorted(set(self.calls) | set(self.self_s))
        return {n: {"calls": self.calls[n], "self_s": self.self_s[n]} for n in names}


def _tested(tracer, args, result):
    tracer.counts["imprim.part_stabilizer_elements.tested"] += args[0].order


def _elements(tracer, args, result):
    tracer.counts["groups.mulclose.elements"] += len(result)


_AFTER = {
    "imprim.part_stabilizer_elements": _tested,
    "groups.mulclose": _elements,
}


def is_installed() -> bool:
    """True if any traced imprimlab name is still a wrapper."""
    for name, module in list(sys.modules.items()):
        if not (name == "imprimlab" or name.startswith("imprimlab.")):
            continue
        for value in vars(module).values():
            if getattr(value, MARK, False):
                return True
            if isinstance(value, type) and any(
                getattr(v, MARK, False) for v in vars(value).values()
            ):
                return True
    return False

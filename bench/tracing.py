"""Timing wrappers for the traced run.

The wrappers are installed on the loaded stiefel modules only for the
traced phase and removed afterwards.  A function is replaced under every
name it is bound to in any stiefel module, because several modules import
functions by name (cli imports basis_in_bidegree, operations imports
binom_mod).  Methods are replaced on their class.

Each wrapper pushes a frame on one stack; a call's self time is its
duration minus the durations of the wrapped calls it made.  Hot inner
layers (tens of thousands of calls per product) aggregate only counts and
times.  Outer layers additionally keep a span (name, start, end, parent
span) in memory, written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MAX_SPANS = 200_000

# (module, attribute, metric prefix, keeps spans); attribute "Cls.meth" is a method
LAYERS = [
    ("coefficients", "MCoefficient.__post_init__", "coefficients.new", False),
    ("coefficients", "binom_mod", "coefficients.binom", False),
    ("algebra", "Element.__mul__", "algebra.mul", False),
    ("algebra", "_normal_word", "algebra.normal_word", False),
    ("algebra", "Element.__post_init__", "algebra.element_new", False),
    ("algebra", "basis_in_bidegree", "algebra.basis", True),
    ("targets", "PGmElement.__mul__", "targets.mul", False),
    ("operations", "apply_operation", "operations.apply", True),
    ("maps", "apply_map", "maps.apply", True),
    ("maps", "kernel_basis", "maps.kernel", True),
    ("linalg", "module_kernel", "linalg.module_kernel", True),
    ("linalg", "integer_kernel", "linalg.integer_kernel", True),
    ("linalg", "solve_integer", "linalg.solve_integer", True),
    ("linalg", "diagonalize", "linalg.diagonalize", True),
    ("serialize", "element_to_json", "serialize.to_json", True),
    ("serialize", "element_from_json", "serialize.from_json", True),
    ("render", "element_text", "render", True),
    ("render", "presentation_text", "render", True),
    ("render", "presentation_latex", "render", True),
    ("render", "presentation_dict", "render", True),
    ("render", "series_text", "render", True),
    ("render", "basis_report", "render", True),
]
# counted but not timed, so their time stays in the caller's self time
COUNTED = [
    ("operations", "sq_on_generator", "operations.gen_action"),
    ("operations", "power_on_generator", "operations.gen_action"),
]


class Tracer:
    def __init__(self):
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # frames: [child seconds, span id of the nearest enclosing span]
        self._stack: list[list] = [[0.0, None]]
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn, keep_spans: bool, observe=None):
        stack, clock = self._stack, time.perf_counter
        count, total, self_time, spans = self.count, self.total, self.self_time, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if keep_spans else parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                count[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[0]
                if keep_spans:
                    if len(spans) < MAX_SPANS:
                        spans.append((name, start, end, parent[1]))
                    else:
                        self.dropped_spans += 1
            if observe is not None:
                observe(self.extra, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn):
        """Run fn() as a root-level span (one benchmark operation)."""
        return self.wrap(name, fn, True)()

    def _counter(self, name: str, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- install/remove

    def install(self, S) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "stiefel" or name.startswith("stiefel."))]
        for module_name, attr, name, keep in LAYERS:
            self._replace(getattr(S, module_name), attr, modules,
                          lambda fn, name=name, keep=keep:
                              self.wrap(name, fn, keep, OBSERVERS.get(name)))
        for module_name, attr, name in COUNTED:
            self._replace(getattr(S, module_name), attr, modules,
                          lambda fn, name=name: self._counter(name, fn))

    def _replace(self, module, attr: str, modules, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            cls_wrapper = make(original)
            setattr(cls, meth, cls_wrapper)
            self._undo.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def remove(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -------------------------------------------------------------- report

    def metrics(self, ops: int, scale: float) -> dict[str, float]:
        """Per-layer metrics, per benchmark operation where they are sums;
        times are multiplied by scale (to nominal host speed)."""
        c, x = self.count, self.extra
        st = {name: value * scale for name, value in self.self_time.items()}
        st = defaultdict(float, st)

        def per_op(value: float) -> float:
            return value / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for prefix in ("coefficients.new", "coefficients.binom", "algebra.mul",
                       "algebra.normal_word", "algebra.element_new", "algebra.basis",
                       "targets.mul", "operations.apply", "maps.apply", "maps.kernel",
                       "linalg.module_kernel", "serialize.to_json", "serialize.from_json"):
            out[f"{prefix}_count"] = per_op(c[prefix])
            out[f"{prefix}_self_s"] = per_op(st[prefix])
        out["algebra.mul_term_pairs"] = per_op(x["mul_term_pairs"])
        out["algebra.mul_terms_out"] = per_op(x["mul_terms_out"])
        out["algebra.mul_useful_ratio"] = ratio(x["mul_terms_out"], x["mul_term_pairs"])
        out["algebra.normal_word_zero_ratio"] = ratio(x["normal_word_zero"],
                                                      c["algebra.normal_word"])
        out["algebra.contractions"] = per_op(x["contractions"])
        out["algebra.basis_scanned"] = per_op(x["basis_scanned"])
        out["algebra.basis_lines"] = per_op(x["basis_lines"])
        out["algebra.basis_hit_ratio"] = ratio(x["basis_lines"], x["basis_scanned"])
        out["operations.gen_action_count"] = per_op(c["operations.gen_action"])
        out["maps.kernel_cells"] = per_op(x["kernel_cells"])
        for name in ("integer_kernel", "solve_integer", "diagonalize"):
            out[f"linalg.{name}_s"] = per_op(self.total[f"linalg.{name}"] * scale)
        out["serialize.bytes"] = per_op(x["serialize_bytes"])
        out["render.count"] = per_op(c["render"])
        out["render.self_s"] = per_op(st["render"])
        out["cli.command_self_s"] = per_op(st["cli.command"])
        return out


def _observe_mul(extra, args, result) -> None:
    x, y = args
    if hasattr(y, "terms") and hasattr(result, "terms"):
        extra["mul_term_pairs"] += len(x.terms) * len(y.terms)
        extra["mul_terms_out"] += len(result.terms)


def _observe_normal_word(extra, args, result) -> None:
    if result is None:
        extra["normal_word_zero"] += 1
    else:
        extra["contractions"] += result[2]


def _observe_basis(extra, args, result) -> None:
    extra["basis_scanned"] += 1 << args[0].m
    extra["basis_lines"] += len(result)


def _observe_module_kernel(extra, args, result) -> None:
    matrix, src_moduli = args[0], args[1]
    extra["kernel_cells"] += len(matrix) * len(src_moduli)


def _observe_to_json(extra, args, result) -> None:
    extra["serialize_bytes"] += len(result)


def _observe_from_json(extra, args, result) -> None:
    extra["serialize_bytes"] += len(args[0])


OBSERVERS = {
    "algebra.mul": _observe_mul,
    "algebra.normal_word": _observe_normal_word,
    "algebra.basis": _observe_basis,
    "linalg.module_kernel": _observe_module_kernel,
    "serialize.to_json": _observe_to_json,
    "serialize.from_json": _observe_from_json,
}

"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the five ``dahalink`` layers from
outside the package, so no program file changes.  A wrapped function is
replaced in every ``dahalink.*`` namespace that imported it (so
``daha.eigenspace`` is traced like ``exactlinalg.eigenspace``), and a
wrapped method is replaced on its class.  Each call records a span
``(name, layer, start, end, parent)`` in memory; :meth:`Tracer.write`
saves them when the run ends.

Scalar arithmetic is far too fine-grained for spans: ``FieldElement``
constructions and multiplies are only counted.  The work they do is part of
the self time of whichever span performs it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

LAYERS = ("exactfield", "exactlinalg", "leonard", "daha", "cli")
# Spans the benchmark opens itself, one per operation.
HARNESS = "harness"

# Public methods wrapped on each class, by module.  Accessors and the
# immutability guards are left out: they do no arithmetic.
_CLASS_METHODS = {
    "exactlinalg": {
        "ExactMatrix": ("__mul__", "__add__", "__sub__", "__neg__", "__eq__",
                        "scale", "apply", "transpose", "trace", "inverse",
                        "from_rows", "from_cols", "zeros", "identity",
                        "diagonal", "to_json", "from_json"),
        "Subspace": ("__init__", "contains"),
    },
    "leonard": {
        "HuangData": ("to_json", "from_json"),
        "ParameterArray": ("to_json", "from_json"),
    },
    "daha": {
        "HqModule": ("descriptor", "to_json"),
        "HqParams": ("to_json", "from_json"),
        "Report": ("to_json",),
        "Check": ("to_json",),
    },
}

# Span-name groups behind the per-layer metrics.
GROUPS = {
    "exactlinalg.matmul": {"ExactMatrix.__mul__"},
    # eigenspace delegates to kernel_basis; every other name runs one
    # elimination, so the call count below is the number of eliminations.
    "exactlinalg.rowreduce": {"rank", "solve", "kernel_basis", "eigenspace",
                              "ExactMatrix.inverse", "Subspace.__init__",
                              "Subspace.contains"},
    "exactlinalg.char_poly": {"char_poly"},
    "exactlinalg.restrict": {"restrict_to_basis", "restrict", "change_of_basis"},
    "leonard.recognize": {"recognize_leonard_pair"},
    "leonard.split": {"split_sequence", "parameter_arrays"},
    "leonard.huang": {"qracah_parameter", "huang_data_from_array",
                      "huang_equivalent", "check_huang_admissible",
                      "build_pair_from_huang"},
    "daha.build": {"build_module"},
    "daha.verify": {"verify_hq_relations"},
    "daha.feasible": {"is_feasible"},
    "daha.split": {"u_basis", "t0_split", "restricted_leonard_pairs"},
    "daha.link": {"link_check", "link_construct"},
}
ELIMINATIONS = GROUPS["exactlinalg.rowreduce"] - {"eigenspace"}


def _public_functions(mod) -> dict[str, object]:
    """Functions defined in ``mod`` under a public name: those in
    ``__all__``, or every name without a leading underscore when the
    module has no ``__all__`` (the CLI)."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(mod, name, None)
        if callable(obj) and not isinstance(obj, type) \
                and getattr(obj, "__module__", None) == mod.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records spans and scalar counts while installed.

    Spans are kept as lists ``[name, layer, start, end, parent]`` where
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.elements = 0
        self.muls = 0
        self.matmul_products = 0
        self.matmul_nonzero = 0
        self.recording = False

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, name: str):
        """One benchmark operation: the root span of everything it calls."""
        if not self.recording:
            yield
            return
        idx = self._enter(name, HARNESS)
        try:
            yield
        finally:
            self._exit(idx)

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for a while, as for the output checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    def _wrap_matmul(self, fn):
        traced = self._wrap(fn, "ExactMatrix.__mul__", "exactlinalg")
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = traced(a, b)
            if tracer.recording:
                # share of scalar products whose operands are both nonzero;
                # its own span keeps this count out of the caller's self time
                idx = tracer._enter("tracer.matmul_nonzero", HARNESS)
                col_nz = [0] * a.ncols
                for row in a.rows:
                    for j, x in enumerate(row):
                        if x:
                            col_nz[j] += 1
                tracer.matmul_nonzero += sum(
                    c * sum(1 for x in row if x) for c, row in zip(col_nz, b.rows))
                tracer.matmul_products += a.nrows * a.ncols * b.ncols
                tracer._exit(idx)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and listed method of the five layers."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "dahalink" or n.startswith("dahalink."))]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"dahalink.{layer}"]
            for name, fn in _public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
            for cls_name, methods in _CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    label = f"{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, label, layer))
                    elif label == "ExactMatrix.__mul__":
                        wrapped = self._wrap_matmul(raw)
                    else:
                        wrapped = self._wrap(raw, label, layer)
                    self._set(cls, meth, wrapped)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(ns, attr, hit[1])
        self._count_scalars(sys.modules["dahalink.exactfield"].FieldElement)
        self.recording = True

    def _count_scalars(self, cls) -> None:
        tracer = self
        init, mul = cls.__dict__["__init__"], cls.__dict__["__mul__"]

        def counted_init(self, *args, **kwargs):
            if tracer.recording:
                tracer.elements += 1
            init(self, *args, **kwargs)

        def counted_mul(self, other):
            if tracer.recording:
                tracer.muls += 1
            return mul(self, other)

        self._set(cls, "__init__", counted_init)
        self._set(cls, "__mul__", counted_mul)
        if cls.__dict__.get("__rmul__") is mul:
            self._set(cls, "__rmul__", counted_mul)

    def uninstall(self) -> None:
        self.recording = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Self time per layer and per group, and call counts per span name."""
        layer_self: dict[str, float] = {}
        name_self: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, layer = span[0], span[1]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            name_self[name] = name_self.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        group_self = {g: sum(name_self.get(n, 0.0) for n in names)
                      for g, names in GROUPS.items()}
        return {"layer_self": layer_self, "group_self": group_self, "calls": calls}

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines: name, layer, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start", "end", "parent")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

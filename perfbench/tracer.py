"""In-process tracer for the benchmark's traced run.

The tracer wraps module-level names of the twistorgh package through which
one layer calls the next, and restores them afterwards.  Names are resolved
when the tracer is installed, so a name that a later version of the program
no longer has is skipped and its metrics read 0.

Every wrapped call pushes a frame on one stack, so each target gets an exact
call count, inclusive time and self time (inclusive time minus the time of
wrapped calls made inside it).  Coarse targets (the public entry points, the
condition loop, the public evaluators and the oracles) are also recorded one
span each: name, label, start, end, parent span and op id.  The hot kernels
(`_ArgView`, `_dcov`, ...) run millions of times per round, so they are only
aggregated: one span record each would take hundreds of megabytes.

For the layers `fourdim`, `fibre` and `curvature`, every public function
defined in the module is wrapped, and a call counts as an entry into the
layer only when the caller is not in the same layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "twistorgh"

#: hot kernels: aggregated only.  (metric prefix, module, attribute path)
FINE = (
    ("tensors.argview", "tensors", "_ArgView.__init__"),
    ("tensors.dcov", "tensors", "_dcov"),
    ("tensors.acs", "tensors", "_acs_unchecked"),
    ("tensors.dext", "tensors", "_dext"),
    ("tensors.dcodiff", "tensors", "_dcodiff"),
    ("tensors.frame_at_point", "tensors", "frame_at_point"),
    ("classifier.frame_combine", "classifier", "_FrameStack.combine"),
    ("classifier.sample_point", "classifier", "sample_point"),
)

PUBLIC_EVALUATORS = ("cov_deriv_omega", "ext_deriv_omega", "codiff_omega", "codiff_via_frame",
                     "nijenhuis_pairing", "nijenhuis_closed_form", "restriction_residuals")


def _first_arg(args, kwargs, result):
    return str(args[0]) if args else None


def _result_name(args, kwargs, result):
    return getattr(result, "name", None)


#: coarse targets: recorded one span each.  (name, module, attribute path, label)
RECORDED = (
    ("cli.main", "cli", "main", None),
    ("classifier.classify", "classifier", "classify", None),
    ("classifier.verify_theorem", "classifier", "verify_theorem", _first_arg),
    ("classifier.condition_residuals", "classifier", "condition_residuals", None),
    ("selftest.oracle", "selftest", "_tensor_oracle", _result_name),
    ("selftest.oracle", "selftest", "_curvature_commutator", _result_name),
    ("selftest.oracle", "selftest", "_fibre_kaehler", _result_name),
) + tuple((f"tensors.public.{fn}", "tensors", fn, None) for fn in PUBLIC_EVALUATORS)

BOUNDARY_LAYERS = ("fourdim", "fibre", "curvature")

#: the target whose calls carry a SamplingConfig; its samples are counted
SAMPLED = "classifier.condition_residuals"


def _samples_of(args, kwargs) -> int:
    for x in (*args, *kwargs.values()):
        if hasattr(x, "num_points") and hasattr(x, "num_arg_triples"):
            return int(x.num_points) * int(x.num_arg_triples)
    return 0


def _resolve(module, path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    owner = module
    *heads, last = path.split(".")
    for h in heads:
        owner = getattr(owner, h, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        orig = owner.__dict__.get(last)
    else:
        orig = getattr(owner, last, None)
    if orig is None or not callable(orig):
        return None
    return owner, last, orig


class Tracer:
    """Wraps the layer boundaries of the loaded twistorgh package."""

    def __init__(self):
        self.names: list[str] = []        # target index -> metric name
        self.layer_of: list[str] = []     # target index -> layer
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.layer_calls = {layer: 0 for layer in BOUNDARY_LAYERS}
        self.layer_time = {layer: 0.0 for layer in BOUNDARY_LAYERS}
        self.samples = 0
        self.spans: list[tuple] = []      # (id, name, label, start, end, parent, op)
        self.op = None
        self._stack: list[list] = []      # frames [target index, start, child time]
        self._open: list[int] = [-1]      # ids of the open recorded spans
        self._patches: list[tuple] = []   # (owner, attribute, original)
        self._next_id = 0

    # -- installation ---------------------------------------------------------

    def _target(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, owner, attr: str, orig, wrapper, modules) -> None:
        """Replace ``orig`` in its owner and under every alias in ``modules``."""
        self._patch(owner, attr, orig, wrapper)
        if inspect.isclass(owner):
            return
        for mod in modules:
            for alias, val in list(vars(mod).items()):
                if val is orig and not (mod is owner and alias == attr):
                    self._patch(mod, alias, orig, wrapper)

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for metric, modname, path in FINE:
            found = _resolve(by_name[modname], path) if modname in by_name else None
            if found:
                i = self._target(metric, modname)
                self._patch_everywhere(*found, self._fine(found[2], i), modules)
        for metric, modname, path, label in RECORDED:
            found = _resolve(by_name[modname], path) if modname in by_name else None
            if found:
                i = self._target(metric, modname)
                self._patch_everywhere(*found, self._recorded(found[2], i, label), modules)
        for layer in BOUNDARY_LAYERS:
            mod = by_name.get(layer)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    i = self._target(f"{layer}.{attr}", layer)
                    self._patch_everywhere(mod, attr, fn, self._boundary(fn, i, layer), modules)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _fine(self, fn, i: int):
        stack, calls, incl, self_time = self._stack, self.calls, self.incl, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [i, 0.0, 0.0]
            stack.append(frame)
            frame[1] = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += d
                calls[i] += 1
                incl[i] += d
                self_time[i] += d - frame[2]

        return wrapper

    def _boundary(self, fn, i: int, layer: str):
        stack, calls, incl, self_time = self._stack, self.calls, self.incl, self.self_time
        layer_of, layer_calls, layer_time = self.layer_of, self.layer_calls, self.layer_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = not stack or layer_of[stack[-1][0]] != layer
            frame = [i, 0.0, 0.0]
            stack.append(frame)
            frame[1] = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += d
                calls[i] += 1
                incl[i] += d
                self_time[i] += d - frame[2]
                if entry:
                    layer_calls[layer] += 1
                    layer_time[layer] += d

        return wrapper

    def _recorded(self, fn, i: int, label):
        tracer = self
        name = self.names[i]
        sampled = name == SAMPLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            with tracer.span(i) as rec:
                result = fn(*args, **kwargs)
                if label is not None:
                    rec[0] = label(args, kwargs, result)
            if sampled:
                tracer.samples += _samples_of(args, kwargs)
            return result

        return wrapper

    def span(self, i: int):
        """Context manager recording one span of target ``i``."""
        return _Span(self, i)

    def manual_target(self, name: str, layer: str = "bench") -> int:
        """A target that the benchmark times itself, such as one op."""
        if name in self.names:
            return self.names.index(name)
        return self._target(name, layer)


class _Span:
    __slots__ = ("tracer", "i", "frame", "sid", "parent", "label")

    def __init__(self, tracer: Tracer, i: int):
        self.tracer, self.i = tracer, i

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._open[-1]
        tr._open.append(self.sid)
        self.label = [None]
        self.frame = [self.i, 0.0, 0.0]
        tr._stack.append(self.frame)
        self.frame[1] = perf_counter()
        return self.label

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr, frame, i = self.tracer, self.frame, self.i
        d = t1 - frame[1]
        tr._stack.pop()
        tr._open.pop()
        if tr._stack:
            tr._stack[-1][2] += d
        tr.calls[i] += 1
        tr.incl[i] += d
        tr.self_time[i] += d - frame[2]
        tr.spans.append((self.sid, tr.names[i], self.label[0], frame[1], t1,
                         self.parent, tr.op))
        return False

"""In-memory span tracer installed at vacuumlab's layer boundaries.

The tracer is installed from the benchmark's side, without touching the
package: every public function of each layer module is replaced by a
wrapper that records a span, in the defining module and in every other
vacuumlab module that imported it by name.  Each module's ``quad``
reference, and ``scipy.integrate.quad`` itself, is replaced by a counting
wrapper that charges calls, integrand evaluations and quadpack warnings to
the innermost open span.  Warnings are counted from quadpack's return code,
so the ones that ``casimir.quad`` and ``vacuum`` silence are counted too.

A span is ``(name_id, start_ns, end_ns, parent_index, request_id)``;
``parent_index`` is -1 for a root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
import warnings

LAYERS = ("cli", "validation", "casimir", "coulomb", "specfun", "vacuum",
          "cavity", "oscillator", "deltaseq", "numerics")


class Tracer:
    def __init__(self, error_type: type = Exception):
        self.error_type = error_type
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple | None] = []
        self.quad: dict[int, list[int]] = {}   # span index -> [calls, neval, warned]
        self.errors: dict[str, int] = {}       # layer -> errors leaving it
        self.request_id = -1
        self._ids: dict[str, int] = {}
        self._stack: list[tuple[int, int]] = []  # (span index, name id)

    def reset(self):
        """Forget the recorded spans and counts; the wrappers stay."""
        if self._stack:
            raise RuntimeError("spans still open")
        self.spans.clear()
        self.quad.clear()
        self.errors.clear()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else (-1, -1)
            spans.append(None)
            stack.append((idx, nid))
            start = now()
            try:
                return fn(*args, **kwargs)
            except tracer.error_type:
                layer = tracer.layer_of[nid]
                if parent[1] < 0 or tracer.layer_of[parent[1]] != layer:
                    tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
                raise
            finally:
                end = now()
                stack.pop()
                spans[idx] = (nid, start, end, parent[0], tracer.request_id)

        return traced

    def counting_quad(self, real_quad):
        """scipy.integrate.quad with the same results and warnings, counting
        calls, evaluations and non-zero quadpack return codes."""
        stack, counts = self._stack, self.quad

        @functools.wraps(real_quad)
        def quad(func, a, b, *args, full_output=0, **kwargs):
            res = real_quad(func, a, b, *args, full_output=1, **kwargs)
            info = res[2]
            neval = info.get("neval", 0) if isinstance(info, dict) else 0
            warned = len(res) > 3
            c = counts.setdefault(stack[-1][0] if stack else -1, [0, 0, 0])
            c[0] += 1
            c[1] += int(neval)
            c[2] += warned
            if full_output:
                return res
            if warned:
                from scipy.integrate import IntegrationWarning
                warnings.warn(res[3], IntegrationWarning, stacklevel=2)
            return res[:2]

        return quad

    def install(self, package_modules: dict):
        """Wrap the public functions and quad references of the given
        {layer name: module} map in place."""
        import scipy.integrate

        real_quad = scipy.integrate.quad
        counted = self.counting_quad(real_quad)
        scipy.integrate.quad = counted
        originals = {}
        for layer, mod in package_modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                if obj is real_quad:
                    setattr(mod, attr, counted)
                elif id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, (tuple, list)) \
                        and any(id(x) in originals for x in obj):
                    # dispatch tables such as validation.ALL_CHECKS
                    setattr(mod, attr, type(obj)(originals.get(id(x), x)
                                                 for x in obj))

    # ---------------------------------------------------------- output

    def closed_spans(self) -> list[tuple]:
        if self._stack:
            raise RuntimeError("spans still open")
        return [(self.names[s[0]],) + s[1:] for s in self.spans]

    def write(self, path: str):
        """Spans as gzipped CSV: name,start_ns,end_ns,parent,request,
        quad_calls,quad_neval,quad_warnings."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,request,"
                     "quad_calls,quad_neval,quad_warnings\n")
            for i, s in enumerate(self.closed_spans()):
                q = self.quad.get(i, (0, 0, 0))
                fh.write(",".join(map(str, s + tuple(q))) + "\n")


# ------------------------------------------------------------- arithmetic

def self_times_ns(spans) -> list[int]:
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans of one thread nest, so the children cover
    disjoint parts of the parent's interval."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


ROOT_SEARCH = {"coulomb.expand_bracket", "coulomb.sign_change_radius"}
POTENTIALS = {"coulomb.potential_box", "coulomb.potential_lorentz"}


def layer_metrics(spans, quad: dict, errors: dict) -> dict[str, float]:
    """Per-layer and per-function figures from closed spans
    ``(name, start_ns, end_ns, parent, request)`` and the tracer's quad and
    error counters."""
    out: dict[str, float] = {}
    own = self_times_ns(spans)
    fn_self: dict[str, int] = {}
    fn_calls: dict[str, int] = {}
    fn_incl: dict[str, int] = {}
    for s, t in zip(spans, own):
        fn_self[s[0]] = fn_self.get(s[0], 0) + t
        fn_calls[s[0]] = fn_calls.get(s[0], 0) + 1
        fn_incl[s[0]] = fn_incl.get(s[0], 0) + s[2] - s[1]
    for layer in LAYERS:
        names = [n for n in fn_self if n.split(".", 1)[0] == layer]
        calls = qcalls = neval = warned = 0
        for i, c in quad.items():
            if i >= 0 and spans[i][0].split(".", 1)[0] == layer:
                qcalls, neval, warned = qcalls + c[0], neval + c[1], warned + c[2]
        calls = sum(fn_calls[n] for n in names)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = sum(fn_self[n] for n in names) * 1e-9
        out[f"{layer}.errors"] = errors.get(layer, 0)
        out[f"{layer}.quad_calls"] = qcalls
        out[f"{layer}.quad_neval"] = neval
        out[f"{layer}.quad_warnings"] = warned
        # a layer that ran no quadrature wasted none
        out[f"{layer}.quad_clean_frac"] = 1.0 - warned / qcalls if qcalls else 1.0
    for name in fn_self:
        out[f"{name}.calls"] = fn_calls[name]
        out[f"{name}.self_s"] = fn_self[name] * 1e-9
        out[f"{name}.s"] = fn_incl[name] * 1e-9
    roots = fn_calls.get("coulomb.sign_change_radius", 0)
    evals = sum(1 for i, s in enumerate(spans)
                if s[0] in POTENTIALS and has_ancestor(spans, i, ROOT_SEARCH))
    out["coulomb.evals_per_root"] = evals / roots if roots else 0.0
    return out

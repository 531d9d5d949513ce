"""Per-layer tracing from outside the package.

The tracer replaces chosen public functions of ``tropvor`` with timing
wrappers.  A name bound by ``from ... import`` lives on in every importing
module's namespace (``voronoi.lp_solve``, ``lift.voronoi_diagram``,
``delone.cell``, ``cli.region`` ...), so the wrapper is installed in every
module namespace that holds the original function object, and in the class
for methods.  Nothing under ``src/`` changes.

Each wrapped call adds to its name's call count, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it).  Calls to
boundary functions also become spans ``(id, name, start, end, parent, op)``
kept in memory and written out by ``write_spans``.  Hot primitives are only
counted, or timed without spans, because a span per call would dominate
their cost.
"""

from __future__ import annotations

import functools
import json
from math import comb
from time import perf_counter

MODULES = ("_lp", "exactnum", "tropcore", "sites", "voronoi", "lift", "delone", "cli")

# (module, attribute, mode).  mode "span": timed, with a span per call;
# "timed": timed, no spans; "count": call count only.  A dotted attribute
# names a method of a class defined in that module.
WRAPPED = (
    ("_lp", "lp_solve", "span"),
    ("_lp", "lp_affine_dim", "span"),
    ("_lp", "lp_strictly_feasible", "span"),
    ("_lp", "PolyRing.sign", "count"),
    ("_lp", "ThresholdLedger.observe", "count"),
    ("exactnum", "RatFun.__init__", "timed"),
    ("exactnum", "of_solve_linear", "span"),
    ("tropcore", "tconv_membership", "span"),
    ("sites", "signature_reduce", "span"),
    ("sites", "check_general_position", "span"),
    ("sites", "lattice_points", "span"),
    ("voronoi", "region", "span"),
    ("voronoi", "cell", "span"),
    ("voronoi", "voronoi_diagram", "span"),
    ("voronoi", "halfspace_redundant", "span"),
    ("lift", "verify_lift", "span"),
    ("lift", "of_polyhedron_generators", "span"),
    ("lift", "power_diagram_poset", "span"),
    ("delone", "dual_graph", "span"),
    ("delone", "delone_complex", "span"),
    ("delone", "hull_complex", "span"),
    ("delone", "sufficiently_generic", "span"),
    ("delone", "scarf_check", "span"),
    ("cli", "main", "span"),
)


def _label(module: str) -> str:
    """Module name as it appears in metric names, which start with a letter."""
    return module.lstrip("_")


def _is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def _stat_name(module: str, attr: str, args, kwargs) -> str:
    """Metric prefix of one call; two functions split by their input kind."""
    if attr == "lp_solve":
        ring = args[4] if len(args) > 4 else kwargs["ring"]
        return "lp.lp_solve." + ("int" if type(ring).__name__ == "IntRing" else "poly")
    if attr == "power_diagram_poset":
        lifts = args[0] if args else kwargs["lifts"]
        symbolic = hasattr(lifts[0].coords[0], "num")
        return "lift.power_diagram_poset." + ("symbolic" if symbolic else "numeric")
    return f"{_label(module)}.{attr}"


class Tracer:
    """Installs the wrappers, accumulates counts and spans, and removes them."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.stats: dict = {}  # prefix -> [calls, inclusive s, self s]
        self.counts: dict = {}  # derived counters taken from results
        self.spans: list = []
        self.op = 0  # operation id of the batch; 0 is set-up
        self.op_self: dict = {}  # module -> self time inside operations
        self._stack: list = []  # [span id, time of wrapped children]
        self._next_id = 0
        self._saved: list = []  # (owner, attribute, original value)

    # -- installation

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, mode in WRAPPED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(self.modules[module], cls_name)
                self._bind(owner, meth, self._wrap(module, attr, vars(owner)[meth], mode))
                continue
            orig = _unwrap(getattr(self.modules[module], attr))
            for mod in self.modules.values():
                for name, value in list(vars(mod).items()):
                    if _unwrap(value) is orig:
                        self._bind(mod, name, self._wrap(module, attr, value, mode))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved = []

    def _bind(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- wrappers

    def _wrap(self, module: str, attr: str, fn, mode: str):
        if mode == "count":
            cell = self.stats.setdefault(f"{_label(module)}.{attr}", [0, 0.0, 0.0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        stack, stats, spans, op_self = self._stack, self.stats, self.spans, self.op_self
        observe = _OBSERVERS.get(attr)
        record = mode == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = _stat_name(module, attr, args, kwargs)
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if self.op:
                    op_self[module] = op_self.get(module, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((sid, name, t0, t1, parent, self.op))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return timed

    # -- output

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def write_spans(self, path) -> None:
        base = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(t0 - base, 9),
                    "end": round(t1 - base, 9), "parent": parent, "op": op,
                }) + "\n")


def _unwrap(value):
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    return value


# -- counters taken from returned values

def _observe_lp(counts, args, result) -> None:
    if result.status != "infeasible":
        counts["lp.lp_solve.feasible"] = counts.get("lp.lp_solve.feasible", 0) + 1


def _observe_pieces(counts, cells) -> None:
    for c in cells:
        counts["voronoi.pieces"] = counts.get("voronoi.pieces", 0) + len(c.pieces)
        distinct = len({frozenset(p) for p in c.pieces})
        counts["voronoi.pieces_distinct"] = counts.get("voronoi.pieces_distinct", 0) + distinct


def _observe_generators(counts, args, result) -> None:
    P = args[0]
    m = len(P.halfspaces) + (P.n if P.include_orthant else 0)
    inhomogeneous = any(not _is_zero(h.offset) for h in P.halfspaces)
    subsets = (comb(m, P.n) if inhomogeneous else 0) + comb(m, P.n - 1)
    vertices, rays = result
    counts["lift.gen_subsets"] = counts.get("lift.gen_subsets", 0) + subsets
    counts["lift.gen_rays"] = counts.get("lift.gen_rays", 0) + len(vertices) + len(rays)
    degree, bits = counts.get("lift.max_degree", 0), counts.get("lift.max_coeff_bits", 0)
    for v in list(vertices) + list(rays):
        for c in v.coords:
            for poly in (c.num, c.den):
                degree = max(degree, len(poly) - 1)
                for co in poly:
                    bits = max(bits, co.numerator.bit_length(), co.denominator.bit_length())
    counts["lift.max_degree"] = degree
    counts["lift.max_coeff_bits"] = bits


_OBSERVERS = {
    "lp_solve": _observe_lp,
    "cell": lambda counts, args, result: _observe_pieces(counts, [result]),
    "voronoi_diagram": lambda counts, args, result: _observe_pieces(counts, result.cells),
    "of_polyhedron_generators": _observe_generators,
}


# -- per-layer metrics

_SPLIT = {
    "lp_solve": ("lp.lp_solve.int", "lp.lp_solve.poly"),
    "power_diagram_poset": ("lift.power_diagram_poset.symbolic", "lift.power_diagram_poset.numeric"),
}
_DERIVED = (
    ("lp.lp_solve.feasible_ratio", "ratio"),
    ("voronoi.pieces", "count"),
    ("voronoi.pieces_distinct", "count"),
    ("voronoi.pieces_useful_ratio", "ratio"),
    ("lift.gen_subsets", "count"),
    ("lift.gen_rays", "count"),
    ("lift.gen_useful_ratio", "ratio"),
    ("lift.max_degree", "count"),
    ("lift.max_coeff_bits", "bits"),
    ("cli.output_bytes", "bytes"),
)


def _prefixes() -> list:
    """(metric prefix, mode) for every wrapped function."""
    out = []
    for module, attr, mode in WRAPPED:
        for prefix in _SPLIT.get(attr, (f"{_label(module)}.{attr}",)):
            out.append((prefix, mode))
    return out


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for prefix, mode in _prefixes():
        names.append((f"{prefix}.calls", "count"))
        if mode != "count":
            names += [(f"{prefix}.s", "s"), (f"{prefix}.self_s", "s")]
    names += list(_DERIVED)
    for module in MODULES + ("unwrapped",):
        if module != "unwrapped":
            names.append((f"layer.{_label(module)}.self_s", "s"))
        names.append((f"layer.{_label(module)}.share", "ratio"))
    names += [("trace.ops", "count"), ("trace.op_s", "s"), ("trace.overhead_ratio", "ratio")]
    return names


def per_layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, ops: int) -> dict:
    """Per-layer metrics of a traced batch of ops that took traced_s, and
    untraced_s when run again without the wrappers."""
    values = {}
    for prefix, mode in _prefixes():
        calls, incl, self_s = tracer.stats.get(prefix, (0, 0.0, 0.0))
        values[f"{prefix}.calls"] = calls
        if mode != "count":
            values[f"{prefix}.s"] = incl
            values[f"{prefix}.self_s"] = self_s
    counts = tracer.counts

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    lp_calls = values["lp.lp_solve.int.calls"] + values["lp.lp_solve.poly.calls"]
    values["lp.lp_solve.feasible_ratio"] = ratio(counts.get("lp.lp_solve.feasible", 0), lp_calls)
    for key in ("voronoi.pieces", "voronoi.pieces_distinct", "lift.gen_subsets", "lift.gen_rays",
                "lift.max_degree", "lift.max_coeff_bits", "cli.output_bytes"):
        values[key] = counts.get(key, 0)
    values["voronoi.pieces_useful_ratio"] = ratio(values["voronoi.pieces_distinct"], values["voronoi.pieces"])
    values["lift.gen_useful_ratio"] = ratio(values["lift.gen_rays"], values["lift.gen_subsets"])

    # self time by module inside the batch's operations, set-up excluded
    covered = 0.0
    for module in MODULES:
        self_s = tracer.op_self.get(module, 0.0)
        values[f"layer.{_label(module)}.self_s"] = self_s
        covered += self_s
        values[f"layer.{_label(module)}.share"] = ratio(self_s, traced_s)
    values["layer.unwrapped.share"] = ratio(max(traced_s - covered, 0.0), traced_s)
    values["trace.ops"] = ops
    values["trace.op_s"] = traced_s
    values["trace.overhead_ratio"] = ratio(untraced_s, traced_s)
    units = dict(per_layer_names())
    return {name: (values[name], units[name]) for name, _ in per_layer_names()}

"""In-memory spans around maninforge's public functions, and their summary.

The program is not edited: `Tracer.install` replaces each public function
of the traced modules by a wrapper, in the module that defines it and in
every module that rebound it with `from .x import y`, and the wrappers
record one span per call.  Spans stay in memory and are written out when
the run ends; `layer_metrics` turns them into per-layer self times and
counts.

A span is (name, start, end, parent, request, tags): times from
`time.perf_counter`, `parent` the index of the enclosing span or None,
`request` the id of the request the benchmark was serving, and `tags` a set of
markers a wrapper attached (for example "computed" on a Hecke operator call
that built its matrix instead of finding it cached).
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("exact_linalg", "polyarith", "modsym", "hecke_algebra",
           "invariants", "cli")

# Methods that do a layer's work but are not module-level functions.
METHODS = {
    "modsym": {"ModSymSpace": ("operator_from_images", "on_cuspidal")},
    "hecke_algebra": {"HeckeAlgebra": ("mult_coords", "matrix_of",
                                       "coords_of")},
}

# Scalar helpers called in the inner loops of the linear algebra: a span
# around each call would measure the tracer, not the layer.
LEAF_FUNCS = {"exact_linalg.gcdex"}

# Private cli helpers that make up the artifact cache.
CLI_CACHE_FUNCS = ("_load_op_cache", "_save_op_cache")

# Functions that hand out an operator matrix, consulting the per-space cache.
OPERATOR_FUNCS = {"modsym.hecke", "modsym.atkin_lehner", "modsym.degeneracy",
                  "modsym.star_involution"}


class Tracer:
    """Spans and counts of one process, and the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = None
        self._stack = []
        self._restore = []
        self._loaded_ops = set()  # ids of OperatorMatrix read from artifacts
        self._loaded_refs = []

    # -- recording ---------------------------------------------------------

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def tag(self, marker):
        if self._stack:
            self.spans[self._stack[-1]][5].add(marker)

    def span(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.request, set()]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of the traced modules, and rebind every
        alias of them across the package."""
        mods = {short: importlib.import_module(f"maninforge.{short}")
                for short in MODULES}
        replaced = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and not (short == "cli"
                                                 and attr in CLI_CACHE_FUNCS):
                    continue
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would close before the work is done
                name = f"{short}.{attr}"
                if name in LEAF_FUNCS:
                    continue
                hook = None
                if name in OPERATOR_FUNCS:
                    hook = self._operator_returned
                replaced[id(obj)] = (obj, self.span(name, obj, hook))
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None:
                    self._set(mod, attr, hit[1])
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth,
                              self.span(f"{short}.{cls_name}.{meth}", fn))
        self._install_counters(mods)
        return self

    def _install_counters(self, mods):
        linalg = mods["exact_linalg"]
        init = linalg.IntMatrix.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            tracer.count("exact_linalg.intmatrix_built")
            init(obj, *args, **kwargs)

        self._set(linalg.IntMatrix, "__init__", counted_init)

        # operator computations: the space builds a matrix from images
        modsym = mods["modsym"]
        build = modsym.ModSymSpace.operator_from_images  # already wrapped

        @functools.wraps(build)
        def marked_build(space, *args, **kwargs):
            tracer.tag("computed")
            return build(space, *args, **kwargs)

        self._set(modsym.ModSymSpace, "operator_from_images", marked_build)

        cli = mods["cli"]
        op_cls = cli.OperatorMatrix

        def loaded_op(*args, **kwargs):
            op = op_cls(*args, **kwargs)
            tracer._loaded_ops.add(id(op))
            tracer._loaded_refs.append(op)  # keep ids unique for the run
            tracer.count("cli.cache_ops_loaded")
            return op

        self._set(cli, "OperatorMatrix", loaded_op)
        write = cli._write_artifact

        @functools.wraps(write)
        def counted_write(root, n, name, text):
            # payload plus its sha256 sidecar (64 hex digits and a newline)
            tracer.count("cli.cache_bytes_written", len(text.encode()) + 65)
            return write(root, n, name, text)

        self._set(cli, "_write_artifact", counted_write)

    def _operator_returned(self, op):
        if id(op) in self._loaded_ops:
            self.tag("from_artifact")

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)



def write(path, spans, counts):
    """Write every span (one JSON object a line), then the counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, req, tags in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": req,
                                 "tags": sorted(tags)}) + "\n")
        fh.write(json.dumps({"counts": counts}) + "\n")


def load(path):
    """(spans, counts) as written by `write`."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append([rec["name"], rec["start"], rec["end"],
                              rec["parent"], rec["request"], set(rec["tags"])])
    return spans, counts


# ---------------------------------------------------------------------------
# summary


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def outer_durations(spans, name):
    """Total duration of the spans called `name` that have no ancestor of the
    same name (so a nested or recursive call is not counted twice)."""
    total = 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += rec[2] - rec[1]
    return total


# metric -> span names whose self time it sums
SELF_TIME = {
    "modsym.build_space_s": ("modsym.build_space",),
    "modsym.hecke_s": ("modsym.hecke", "modsym.hecke_tn",
                       "modsym.ModSymSpace.operator_from_images",
                       "modsym.ModSymSpace.on_cuspidal"),
    "modsym.degeneracy_s": ("modsym.degeneracy", "modsym.degeneracy_pullback",
                            "modsym.atkin_lehner"),
    "modsym.new_lattice_s": ("modsym.new_lattice",),
    "hecke_algebra.build_s": ("hecke_algebra.build_hecke_algebra",),
    "hecke_algebra.decompose_s": ("hecke_algebra.decompose_new",),
    "hecke_algebra.poly_kernel_s": ("hecke_algebra.poly_kernel_saturated",),
    "polyarith.charpoly_int_s": ("polyarith.charpoly_int",),
    "polyarith.factor_q_s": ("polyarith.factor_q",),
    "hecke_algebra.maximal_ideals_s": ("hecke_algebra.maximal_ideals",),
    "hecke_algebra.lift_idempotent_s": ("hecke_algebra.lift_idempotent",),
    "hecke_algebra.mult_coords_s": ("hecke_algebra.HeckeAlgebra.mult_coords",
                                    "hecke_algebra.HeckeAlgebra.matrix_of"),
    "hecke_algebra.order_of_s": ("hecke_algebra.order_of",),
    "hecke_algebra.is_gorenstein_s": ("hecke_algebra.is_gorenstein",),
    "hecke_algebra.is_dvr_s": ("hecke_algebra.is_dvr",),
    "exact_linalg.kernel_saturated_s": ("exact_linalg.kernel_saturated",),
    "exact_linalg.snf_s": ("exact_linalg.snf", "exact_linalg.snf_with_col_transform",
                           "exact_linalg.quotient_invariants"),
    "exact_linalg.lattice_ops_s": ("exact_linalg.lattice_sum",
                                   "exact_linalg.lattice_intersect"),
    "exact_linalg.restrict_operator_s": ("exact_linalg.restrict_operator",),
    "cli.cache_load_s": ("cli._load_op_cache",),
    "cli.cache_save_s": ("cli._save_op_cache",),
}

# metric -> span names whose calls it counts
CALLS = {
    "polyarith.charpoly_int_calls": ("polyarith.charpoly_int",),
    "hecke_algebra.lift_idempotent_calls": ("hecke_algebra.lift_idempotent",),
    "hecke_algebra.mult_coords_calls": ("hecke_algebra.HeckeAlgebra.mult_coords",),
    "exact_linalg.kernel_saturated_calls": ("exact_linalg.kernel_saturated",),
}

# metric -> span name whose outermost calls it totals (self and children)
INCLUSIVE = {
    "invariants.level_data_s": "invariants.level_data",
    "invariants.deg_cong_report_s": "invariants.deg_cong_report",
    "invariants.manin_certify_s": "invariants.manin_certify",
}

COUNTERS = {"exact_linalg.intmatrix_built": "count",
            "cli.cache_ops_loaded": "count",
            "cli.cache_bytes_written": "B"}


def layer_metrics(spans, counts, warm_requests=()):
    """Per-layer metrics {name: (value, unit)} from spans and counts.

    `warm_requests` names the requests that ran against filled caches; the
    artifact cache hit ratio is taken over their operator requests.
    """
    selfs = self_times(spans)
    by_name = {}
    for rec, s in zip(spans, selfs):
        agg = by_name.setdefault(rec[0], [0.0, 0])
        agg[0] += s
        agg[1] += 1
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(by_name.get(n, (0.0, 0))[0] for n in names), "s")
    for metric, names in CALLS.items():
        out[metric] = (sum(by_name.get(n, (0.0, 0))[1] for n in names), "count")
    for metric, name in INCLUSIVE.items():
        out[metric] = (outer_durations(spans, name), "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (
            sum((v[0] for k, v in by_name.items()
                 if k.split(".", 1)[0] == module), 0.0), "s")
    for metric, unit in COUNTERS.items():
        out[metric] = (counts.get(metric, 0), unit)
    out["cli.import_s"] = (counts.get("cli.import_s", 0.0), "s")
    warm = set(warm_requests)
    computed = [rec[4] for rec in spans
                if rec[0] == "modsym.hecke" and "computed" in rec[5]]
    out["modsym.hecke_computed_calls"] = (len(computed), "count")
    out["modsym.warm_hecke_computed_calls"] = (
        sum(1 for req in computed if req in warm), "count")
    base, hits = {}, {}
    for rec in spans:
        if rec[0] in OPERATOR_FUNCS and rec[4] in warm:
            command = str(rec[4]).split(":", 1)[0]
            base[command] = base.get(command, 0) + 1
            if "from_artifact" in rec[5]:
                hits[command] = hits.get(command, 0) + 1
    total = sum(base.values())
    out["cli.warm_operator_requests"] = (total, "count")
    out["cli.cache_hit_ratio"] = (sum(hits.values()) / total if total else 0.0,
                                  "ratio")
    for command in ("certify", "decompose"):
        b = base.get(command, 0)
        out[f"cli.{command}_cache_hit_ratio"] = (
            hits.get(command, 0) / b if b else 0.0, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out

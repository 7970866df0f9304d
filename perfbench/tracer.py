"""Traced run: spans around the calls into each liegeom module.

The recorder wraps every binding of the traced public functions (the
defining module, every module that imported the name, and the package
root), plus the class attributes Tensor.__post_init__ and
Tensor.__getitem__.  Spans are recorded only while a job is open, are
kept in memory, and restore() puts back every original object.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs reported as <module>.<function>.calls/self_s
TRACED = (
    ("tensors", "solve_linear"), ("tensors", "det"),
    ("tensors", "leading_minors"), ("tensors", "null_vector"),
    ("algebra", "bracket"), ("algebra", "jacobi_check"),
    ("forms", "ce_d"), ("forms", "wedge"),
    ("geometry", "torsion"), ("geometry", "curvature"),
    ("geometry", "nabla_g"), ("geometry", "codazzi_check"),
    ("geometry", "constant_curvature"), ("geometry", "nijenhuis"),
    ("geometry", "classify"), ("geometry", "witness_residual"),
    ("geometry", "lee_form_solve"),
    ("constructions", "cone_extend"), ("constructions", "double"),
    ("constructions", "lck_family"),
    ("constructions", "kahler_form_from_hessian"),
    ("io", "parse"), ("io", "serialize"), ("io", "document_from"),
    ("catalog", "get_example"), ("catalog", "run_check"),
    ("rationals", "parse_rational"), ("rationals", "format_rational"),
    ("cli", "run_command"),
)
TENSOR = "tensors.Tensor"   # Tensor construction, via __post_init__
JOB = "bench.job"           # root span of one job: the benchmark's own glue
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (TENSOR, JOB)

# per_layer metric names other than <span>.calls / <span>.self_s
EXTRA = (
    ("tensors.getitem.calls", "count"),
    ("tensors.getitem.zero_frac", "ratio"),
    ("tensors.solve_linear.max_bits", "bits"),
    ("algebra.jacobi_check.repeat_frac", "ratio"),
    ("geometry.curvature.repeat_frac", "ratio"),
    ("io.bytes", "bytes"),
    ("trace.job_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    return out + list(EXTRA)


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Recorder:
    """Span recorder over one imported liegeom package."""

    def __init__(self):
        self.spans = []          # (job, name, start_ns, end_ns, parent)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.getitem_calls = 0
        self.getitem_zero = 0
        self.solve_bits = 0
        self.jacobi = [0, 0]     # calls, repeats within the job
        self.curv = [0, 0]
        self.io_bytes = 0
        self.job_ns = 0
        self._stack = []         # [name, start_ns, child_ns, span index]
        self._job = None
        self._seen = set()
        self._patched = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][3] if self._stack else None
        self.spans.append(None)
        self._stack.append([name, time.perf_counter_ns(), 0,
                            len(self.spans) - 1, parent])

    def _exit(self):
        end = time.perf_counter_ns()
        name, start, child, idx, parent = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        self.spans[idx] = (self._job, name, start, end, parent)
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def job(self, job_id, fn):
        """Run fn() as the root span of job job_id; returns its result."""
        self._job = job_id
        self._seen = set()
        self._enter(JOB)
        try:
            return fn()
        finally:
            self.job_ns += self._exit()
            self._job = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._job is None:
                return fn(*args, **kwargs)
            rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            rec._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "tensors.solve_linear":
            values = getattr(result, "values", None)
            if values is None:
                values = result.combination + (result.residual,)
            self.solve_bits = max([self.solve_bits]
                                  + [_bits(v) for v in values])
        elif name == "algebra.jacobi_check":
            self._repeat(self.jacobi, ("jacobi", args[0].basis_labels,
                                       args[0].c.entries))
        elif name == "geometry.curvature":
            conn = args[0]
            self._repeat(self.curv, ("curvature", conn.base.basis_labels,
                                     conn.base.c.entries,
                                     conn.gamma.entries))
        elif name == "io.parse":
            self.io_bytes += len(args[0].encode())
        elif name == "io.serialize":
            self.io_bytes += len(result.encode())

    def _repeat(self, counter, key):
        counter[0] += 1
        if key in self._seen:
            counter[1] += 1
        self._seen.add(key)

    def install(self, package):
        """Wrap every binding of the traced functions in package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__
                                                         + "."))]
        for mod_name, func in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"],
                               func)
            wrapper = self._wrap(f"{mod_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        tensor = sys.modules[f"{package.__name__}.tensors"].Tensor
        self._patch(tensor, "__post_init__",
                    self._wrap(TENSOR, tensor.__post_init__))
        getitem = tensor.__getitem__
        rec = self

        def counted(self_, idx):
            value = getitem(self_, idx)
            if rec._job is not None:
                rec.getitem_calls += 1
                if value == 0:
                    rec.getitem_zero += 1
            return value

        self._patch(tensor, "__getitem__", counted)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put every original back; returns the (owner, attr, original)
        list so a caller can check that nothing leaked."""
        patched = self._patched
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        self._patched = []
        return patched

    # -- results -----------------------------------------------------------

    def metrics(self, untraced_ns):
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_ns[name] / 1e9
        out["tensors.getitem.calls"] = self.getitem_calls
        out["tensors.getitem.zero_frac"] = (
            self.getitem_zero / self.getitem_calls
            if self.getitem_calls else 0.0)
        out["tensors.solve_linear.max_bits"] = self.solve_bits
        out["algebra.jacobi_check.repeat_frac"] = (
            self.jacobi[1] / self.jacobi[0] if self.jacobi[0] else 0.0)
        out["geometry.curvature.repeat_frac"] = (
            self.curv[1] / self.curv[0] if self.curv[0] else 0.0)
        out["io.bytes"] = self.io_bytes
        out["trace.job_wall_s"] = self.job_ns / 1e9
        out["trace.untraced_wall_s"] = untraced_ns / 1e9
        out["trace.overhead_s"] = (self.job_ns - untraced_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        return out

    def self_time_gap_ns(self):
        """Traced job wall time minus the sum of all self times (0 when
        the self times account for the whole of every job)."""
        return self.job_ns - sum(self.self_ns.values())

    def write(self, path):
        """Write the spans as JSON lines: job, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

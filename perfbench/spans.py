"""Layer spans recorded from outside the library.

``Tracer.install`` replaces module-level functions, by name, in the
namespaces that call them (``gennet.fem.lax_milgram_solve`` is the name
``solve_dirichlet`` looks up), with wrappers that record a span: name,
start, end and parent; ``uninstall`` puts the originals back.  Spans stay
in memory; ``write`` saves them when the run ends.  ``op_metrics`` turns the
spans and counts of one op into the per-layer metrics listed in NOTES.md.

Times named ``*_self_s`` are a span's duration minus its child spans; every
other ``*_s`` is inclusive, summed over the outermost span of that name.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): every place a layer is entered from the
# layer above it, for the CLI paths the workloads run
WRAPS = [
    ("gennet.cli", "solve_dirichlet", "fem.solve"),
    ("gennet.fem", "h1_norm_net", "fem.h1_norm"),
    ("gennet.fem", "_assemble_all", "fem.assemble"),
    ("gennet.fem", "_certificate", "fem.certificate"),
    ("gennet.fem", "_write_nodal_csv", "fem.write_csv"),
    ("gennet.fem", "lax_milgram_solve", "variational.lax_milgram"),
    ("gennet.cli", "vi_solve_contraction", "variational.vi_contraction"),
    ("gennet.cli", "certify_coercivity", "variational.certify_coercivity"),
    ("gennet.cli", "op_norm_net", "operators.op_norm"),
    ("gennet.variational", "op_norm_net", "operators.op_norm"),
    ("gennet.cli", "classify_operator", "operators.classify"),
    ("gennet.variational", "classify_operator", "operators.classify"),
    ("gennet.cli", "classify_submodule", "submodules.classify"),
    ("gennet.submodules", "interleaved_gram_schmidt", "submodules.gram_schmidt"),
    ("gennet.cli", "valuation_estimate", "gennum.valuation"),
    ("gennet.fem", "valuation_estimate", "gennum.valuation"),
    ("gennet.gennum", "valuation_estimate", "gennum.valuation"),
    ("gennet.cli", "sharp_norm", "gennum.verdict"),
    ("gennet.cli", "is_negligible", "gennum.verdict"),
    ("gennet.cli", "is_moderate", "gennum.verdict"),
    ("gennet.fem", "is_moderate", "gennum.verdict"),
    ("gennet.fem", "ge_zero", "gennum.verdict"),
    ("gennet.fem", "invertible_wrt", "gennum.verdict"),
    ("gennet.variational", "ge_zero", "gennum.verdict"),
    ("gennet.variational", "invertible_wrt", "gennum.verdict"),
]

# per-layer metric -> span name whose outermost spans it sums
INCLUSIVE = {
    "fem.assemble_s": "fem.assemble",
    "fem.certificate_s": "fem.certificate",
    "fem.h1_norm_s": "fem.h1_norm",
    "fem.write_csv_s": "fem.write_csv",
    "variational.lax_milgram_s": "variational.lax_milgram",
    "variational.vi_contraction_s": "variational.vi_contraction",
    "variational.certify_coercivity_s": "variational.certify_coercivity",
    "convex.project_s": "convex.project",
    "operators.op_norm_s": "operators.op_norm",
    "operators.classify_s": "operators.classify",
    "submodules.gram_schmidt_s": "submodules.gram_schmidt",
    "submodules.classify_s": "submodules.classify",
    "gennum.valuation_s": "gennum.valuation",
    "gennum.verdict_s": "gennum.verdict",
}

COUNTS = ["variational.operator_bytes", "variational.vi_iterations.sum",
          "variational.vi_iterations.max", "convex.project_calls", "cli.csv_bytes"]


class Tracer:
    """Spans as [name, start, end, parent index] rows, plus per-op counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.missing = []
        self.patches = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _solver_counts(self, args, result):
        self.counts["variational.operator_bytes"] += args[0].samples.nbytes
        iters = getattr(result, "iterations", None)
        if iters is not None:  # a VISolution
            self.counts["variational.vi_iterations.sum"] += int(iters.sum())
            self.counts["variational.vi_iterations.max"] = max(
                self.counts["variational.vi_iterations.max"], int(iters.max()))
            self.counts["vi_sweeps"] += int(iters.max())

    def _patches(self) -> list:
        """(owner, attribute, original, wrapper) for every function in WRAPS
        and the convex set's batched projector.

        A name that no longer exists is skipped and listed in ``missing``;
        its metrics then read 0.
        """
        patches = []
        for mod_name, attr, span in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            after = self._solver_counts if span in (
                "variational.lax_milgram", "variational.vi_contraction") else None
            patches.append((mod, attr, fn, self._wrap(fn, span, after)))

        convex = importlib.import_module("gennet.convex")
        cls = getattr(convex, "ConvexSetNet", None)
        make = getattr(cls, "batched_projector", None)
        if make is None:
            self.missing.append("gennet.convex.ConvexSetNet.batched_projector")
            return patches

        def batched_projector(set_net):
            proj = make(set_net)
            if proj is None:
                return None

            def project(z):
                self.counts["convex.project_calls"] += 1
                return self.call("convex.project", proj, z)
            return project

        patches.append((cls, "batched_projector", make, batched_projector))
        return patches

    def install(self):
        """Put the wrappers in place; ``uninstall`` puts the originals back."""
        if self.patches is None:
            self.patches = self._patches()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches or ():
            setattr(owner, attr, original)

    def begin_op(self) -> int:
        self.counts.clear()
        return self.open("op")

    def op_metrics(self, root: int) -> tuple[dict, float]:
        """Per-layer metrics of the op whose root span is ``root`` (closed),
        and the sum of the self times of every span below the root."""
        rows = self.spans[root:]
        dur = [end - start for _, start, end, _ in rows]
        child = [0.0] * len(rows)
        for i, (_, _, _, parent) in enumerate(rows[1:], 1):
            child[parent - root] += dur[i]

        def outermost(i: int) -> bool:
            parent = rows[i][3]
            while parent > root:
                if rows[parent - root][0] == rows[i][0]:
                    return False
                parent = rows[parent - root][3]
            return True

        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, *_rest) in enumerate(rows[1:], 1):
            if outermost(i):
                total[name] += dur[i]
            self_time[name] += dur[i] - child[i]

        out = {metric: total[span] for metric, span in INCLUSIVE.items()}
        out["fem.solve_self_s"] = self_time["fem.solve"]
        out["cli.self_s"] = sum(t for name, t in self_time.items() if name.startswith("cli."))
        for name in COUNTS:
            out[name] = self.counts[name]
        sweeps = self.counts["vi_sweeps"]
        out["variational.s_per_iteration"] = \
            out["variational.vi_contraction_s"] / sweeps if sweeps else 0.0
        return out, child[0]

    def write(self, path):
        """Save every span as CSV: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")

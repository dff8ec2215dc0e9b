"""In-memory span recorder wrapped around the public functions of cnpcert.

Spans are recorded from the benchmark's side: each wrapper times one call into
a cnpcert module and notes which span was open when it started. Nothing in the
package itself is instrumented, so a traced run and an untraced run execute the
same program code.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none). The benchmark opens one root span per op, so the
spans of one op share that root. A span's self time is its duration minus the
durations of its direct children; a layer metric is the sum of the self times
of its spans, divided by the number of ops.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> per-layer time metric it contributes its self time to
SELF_TIME_METRIC = {
    "linalg.smallest_eigenvalue": "linalg.eig_s",
    "linalg.gram": "linalg.gram_self_s",
    "kernels.evaluate": "kernels.eval_s",
    "kernels.unit_ball_probe": "kernels.probe_s",
    "series.revert": "series.revert_s",
    "series.compose": "series.compose_s",
    "series.mul": "series.mul_s",
    "sampling.SampleSet.__post_init__": "sampling.self_s",
    "sampling.SampleSet.default": "sampling.self_s",
    "sampling.SampleSet.radial_grid": "sampling.self_s",
    "sampling.SampleSet.random_disk": "sampling.self_s",
    "sampling.SampleSet.extended": "sampling.self_s",
    "sampling.ball_points": "sampling.self_s",
    "dbr.cnp_criterion": "dbr.criterion_self_s",
    "dbr.injectivity_probe": "dbr.injectivity_s",
    "dbr.reversion_residual": "dbr.residual_s",
    "dbr.schwarz_pick_margin": "dbr.margin_s",
    "dbr.extension_margin": "dbr.extension_s",
    "descriptors.symbol_from_json": "descriptors.symbol_s",
    "descriptors.witness_from_json": "descriptors.symbol_s",
    "cnp.cnp_certify": "cnp.certify_self_s",
    "cnp.cnp_basepoint_sweep": "cnp.sweep_self_s",
    "gallery.run_entry": "gallery.entry_self_s",
}
MODULES = ("linalg", "kernels", "series", "sampling", "dbr", "descriptors", "cnp", "gallery")
COUNT_METRICS = (
    "linalg.eig_calls",
    "linalg.eig_n3",
    "kernels.full_evals",
    "kernels.probe_calls",
    "series.revert_calls",
    "series.compose_calls",
    "sampling.sets_built",
) + tuple(f"{m}.errors" for m in MODULES)
# ordered as BENCHMARK.json lists them
PER_LAYER_METRICS = (
    "linalg.eig_s", "linalg.eig_calls", "linalg.eig_n3", "linalg.gram_self_s",
    "kernels.eval_s", "kernels.full_evals", "kernels.probe_s", "kernels.probe_calls",
    "series.revert_s", "series.revert_calls", "series.compose_s", "series.compose_calls",
    "series.mul_s", "series.order_max",
    "sampling.self_s", "sampling.sets_built",
    "dbr.criterion_self_s", "dbr.injectivity_s", "dbr.residual_s", "dbr.margin_s",
    "dbr.extension_s",
    "descriptors.symbol_s", "cnp.certify_self_s", "cnp.sweep_self_s", "gallery.entry_self_s",
) + tuple(f"{m}.errors" for m in MODULES)


class Recorder:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.order_max = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        module = name.split(".", 1)[0]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.counts[f"{module}.errors"] += 1
                raise
            finally:
                rec.close(idx)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def fired(self) -> set:
        return {s[0] for s in self.spans}

    def per_op(self, n_ops: int) -> dict:
        """Per-layer metrics averaged over ``n_ops`` ops (order_max is a max)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(PER_LAYER_METRICS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            metric = SELF_TIME_METRIC.get(name)
            if metric is not None:
                out[metric] += end - start - covered
        for metric, count in self.counts.items():
            out[metric] = count
        n = max(n_ops, 1)
        out = {k: v / n for k, v in out.items()}
        out["series.order_max"] = self.order_max
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
            )


def _replace_everywhere(orig, wrapped):
    """Rebind every module-level name in cnpcert that refers to ``orig``.

    Modules import functions by name (``from .linalg import gram``), so the
    wrapper has to sit at each name a caller resolves, not only at the
    defining module.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cnpcert" or modname.startswith("cnpcert.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(rec: Recorder):
    """Wrap the public functions each per-layer metric is measured on."""
    from cnpcert import cnp, dbr, descriptors, gallery, kernels, linalg, sampling, series

    def count(metric):
        def hook(args, out):
            rec.counts[metric] += 1
        return hook

    def eig_hook(args, out):
        rec.counts["linalg.eig_calls"] += 1
        rec.counts["linalg.eig_n3"] += args[0].n ** 3

    def order_hook(metric):
        def hook(args, out):
            rec.counts[metric] += 1
            rec.order_max = max(rec.order_max, out.order)
        return hook

    def full_eval_hook(args, out):
        # the n x n evaluation of the base-independent kernel inside a defect
        shape = getattr(out, "shape", ())
        if not isinstance(args[0], kernels.NormalizedDefect) and len(shape) == 2 \
                and min(shape) > 1:
            rec.counts["kernels.full_evals"] += 1

    functions = [
        (linalg, "smallest_eigenvalue", eig_hook),
        (linalg, "gram", None),
        (kernels, "unit_ball_probe", count("kernels.probe_calls")),
        (sampling, "ball_points", None),
        (dbr, "cnp_criterion", None),
        (dbr, "injectivity_probe", None),
        (dbr, "reversion_residual", None),
        (dbr, "schwarz_pick_margin", None),
        (dbr, "extension_margin", None),
        (descriptors, "symbol_from_json", None),
        (descriptors, "witness_from_json", None),
        (cnp, "cnp_certify", None),
        (cnp, "cnp_basepoint_sweep", None),
        (gallery, "run_entry", None),
    ]
    for mod, attr, hook in functions:
        orig = getattr(mod, attr)
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
        _replace_everywhere(orig, rec.wrap(name, orig, hook))

    ps = series.PowerSeries
    ps.revert = rec.wrap("series.revert", ps.revert, order_hook("series.revert_calls"))
    ps.compose = rec.wrap("series.compose", ps.compose, order_hook("series.compose_calls"))
    ps.__mul__ = rec.wrap("series.mul", ps.__mul__)

    ss = sampling.SampleSet
    ss.__post_init__ = rec.wrap(
        "sampling.SampleSet.__post_init__", ss.__post_init__, count("sampling.sets_built")
    )
    ss.extended = rec.wrap("sampling.SampleSet.extended", ss.extended)
    for attr in ("default", "radial_grid", "random_disk"):
        fn = vars(ss)[attr].__func__
        setattr(ss, attr, classmethod(rec.wrap(f"sampling.SampleSet.{attr}", fn)))

    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel) \
                and cls is not kernels.Kernel and "evaluate" in vars(cls):
            cls.evaluate = rec.wrap("kernels.evaluate", vars(cls)["evaluate"], full_eval_hook)

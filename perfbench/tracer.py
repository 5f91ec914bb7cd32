"""Per-layer tracing from outside the package.

`Tracer.install()` wraps public functions of `numerics`, `model`, `info`,
`conc`, `bounds`, `sim` and `cli`.  Modules import many of these by name
(`bounds` holds its own `mean_entropy_q_scaled`, `sim` its own
`density_rows`, ...), so each wrapper replaces the original under every
name in every `support_limits` module that refers to it; patching only the
defining module would record nothing for those callers.

A wrapper records one span per call.  Spans are kept in memory as running
totals per function: calls, and self time, which is the span's duration
minus the durations of the traced spans it directly contains.  `metrics()`
turns the totals into the benchmark's per-layer metrics; `reset()` starts a
new pass and `uninstall()` puts the originals back.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "support_limits"

TRACED = (
    "numerics.mean_entropy_q_scaled",
    "numerics.binary_entropy",
    "numerics.log_binomial",
    "model.sample_realization",
    "info.density_rows",
    "info.log_conditional_likelihood",
    "info.log_marginal_likelihood",
    "info.mutual_information",
    "info.gt_mi_closed_form",
    "conc.remainder_n_required",
    "conc.remainder_sum",
    "conc.TailBoundSpec.psi",
    "bounds.figure_curves",
    "bounds.cor_linear_partial",
    "bounds.cor_1bit_partial",
    "bounds.psi_function_1bit",
    "bounds.cor_gt_noiseless",
    "bounds.cor_gt_noisy",
    "bounds.achievability_threshold_generic",
    "bounds.converse_threshold_generic",
    "sim.run_cell",
    "sim.decode_ml",
    "sim.decode_threshold",
    "sim.decode_comp",
    "sim.candidate_supports",
    "cli.main",
)

# (metric, unit) of every per-layer metric, in the order they are printed.
# `calls` and `self_s` come straight from the span totals; the rest are
# computed in Tracer.metrics().
LAYER_METRICS = (
    ("numerics.mean_entropy_q_scaled.calls", "count"),
    ("numerics.mean_entropy_q_scaled.self_s", "s"),
    ("numerics.binary_entropy.calls", "count"),
    ("numerics.binary_entropy.self_s", "s"),
    ("numerics.log_binomial.calls", "count"),
    ("numerics.log_binomial.self_s", "s"),
    ("model.sample_realization.calls", "count"),
    ("model.sample_realization.self_s", "s"),
    ("model.sample_realization.x_bytes", "bytes"),
    ("info.density_rows.calls", "count"),
    ("info.density_rows.rows", "count"),
    ("info.density_rows.self_s", "s"),
    ("info.log_conditional_likelihood.calls", "count"),
    ("info.log_conditional_likelihood.self_s", "s"),
    ("info.log_marginal_likelihood.calls", "count"),
    ("info.log_marginal_likelihood.self_s", "s"),
    ("info.mutual_information.calls", "count"),
    ("info.mutual_information.self_s", "s"),
    ("info.gt_mi_closed_form.calls", "count"),
    ("info.gt_mi_closed_form.distinct_share", "share"),
    ("conc.remainder_n_required.calls", "count"),
    ("conc.remainder_n_required.self_s", "s"),
    ("conc.remainder_n_required.evals_per_solve", "count"),
    ("conc.remainder_sum.calls", "count"),
    ("conc.TailBoundSpec.psi.calls", "count"),
    ("bounds.figure_curves.self_s", "s"),
    ("bounds.cor_linear_partial.self_s", "s"),
    ("bounds.cor_1bit_partial.self_s", "s"),
    ("bounds.psi_function_1bit.calls", "count"),
    ("bounds.psi_function_1bit.calls_per_point", "count"),
    ("bounds.cor_gt_noiseless.self_s", "s"),
    ("bounds.cor_gt_noisy.self_s", "s"),
    ("bounds.achievability_threshold_generic.self_s", "s"),
    ("bounds.converse_threshold_generic.self_s", "s"),
    ("sim.run_cell.calls", "count"),
    ("sim.run_cell.self_s", "s"),
    ("sim.decode_ml.calls", "count"),
    ("sim.decode_ml.self_s", "s"),
    ("sim.decode_ml.candidates", "count"),
    ("sim.decode_threshold.calls", "count"),
    ("sim.decode_threshold.self_s", "s"),
    ("sim.decode_threshold.unique_share", "share"),
    ("sim.decode_threshold.none_share", "share"),
    ("sim.decode_threshold.multiple_share", "share"),
    ("sim.decode_threshold.density_evals_per_candidate", "count"),
    ("sim.decode_comp.calls", "count"),
    ("sim.decode_comp.self_s", "s"),
    ("cli.main.self_s", "s"),
)


class Span:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.stack: list[list] = []  # [name, seconds covered by child spans]
        self.distinct_gt_mi: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        owners = {
            name: importlib.import_module(f"{PACKAGE}.{name.partition('.')[0]}")
            for name in TRACED
        }
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in TRACED:
            owner, attr = owners[name], name.partition(".")[2]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def _patch(self, target, key: str, wrapper) -> None:
        self._patched.append((target, key, getattr(target, key)))
        setattr(target, key, wrapper)

    def reset(self) -> None:
        self.spans.clear()
        self.distinct_gt_mi.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span = spans[name]
                span.calls += 1
                span.self_s += dt - frame[1]
            if hook is not None:
                out = hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value for the spans recorded since reset()."""
        s = self.spans
        c = lambda name, key: s[name].counts[key] if name in s else 0.0
        calls = lambda name: s[name].calls if name in s else 0
        ratio = lambda a, b: a / b if b else 0.0
        out = {}
        for metric, _ in LAYER_METRICS:
            name, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = float(calls(name))
            elif stat == "self_s":
                out[metric] = s[name].self_s if name in s else 0.0
        out["model.sample_realization.x_bytes"] = c("model.sample_realization", "x_bytes")
        out["info.density_rows.rows"] = c("info.density_rows", "rows")
        out["info.gt_mi_closed_form.distinct_share"] = ratio(
            len(self.distinct_gt_mi), calls("info.gt_mi_closed_form")
        )
        out["conc.remainder_n_required.evals_per_solve"] = ratio(
            c("conc.remainder_sum", "in_solve"), calls("conc.remainder_n_required")
        )
        out["bounds.psi_function_1bit.calls_per_point"] = ratio(
            calls("bounds.psi_function_1bit"), c("bounds.figure_curves", "partial_points")
        )
        out["sim.decode_ml.candidates"] = c("sim.decode_ml", "candidates")
        dt = "sim.decode_threshold"
        for status in ("unique", "none", "multiple"):
            out[f"{dt}.{status}_share"] = ratio(c(dt, status), calls(dt))
        out[f"{dt}.density_evals_per_candidate"] = ratio(
            c(dt, "density_evals"), c(dt, "candidates")
        )
        return out


# -- work counts, recorded at the boundary where the work happens ------------


def _sample_realization(tr: Tracer, args, kwargs, out):
    dims = args[0]
    tr.spans["model.sample_realization"].counts["x_bytes"] += dims.n * dims.p * 8
    return out


def _density_rows(tr: Tracer, args, kwargs, out):
    tr.spans["info.density_rows"].counts["rows"] += len(out)
    if tr.inside("sim.decode_threshold"):
        tr.spans["sim.decode_threshold"].counts["density_evals"] += 1
    return out


def _gt_mi_closed_form(tr: Tracer, args, kwargs, out):
    tr.distinct_gt_mi.add((args, tuple(sorted(kwargs.items()))))
    return out


def _remainder_sum(tr: Tracer, args, kwargs, out):
    if tr.inside("conc.remainder_n_required"):
        tr.spans["conc.remainder_sum"].counts["in_solve"] += 1
    return out


def _figure_curves(tr: Tracer, args, kwargs, out):
    from support_limits.bounds import FIG_PARTIAL

    figure, grid = args
    if figure == FIG_PARTIAL:
        tr.spans["bounds.figure_curves"].counts["partial_points"] += len(grid["snr_db"])
    return out


def _decode_threshold(tr: Tracer, args, kwargs, out):
    tr.spans["sim.decode_threshold"].counts[out.status] += 1
    return out


def _candidate_supports(tr: Tracer, args, kwargs, out):
    """Count the candidates the calling decoder actually draws."""
    counts = tr.spans[tr.stack[-1][0]].counts

    def counted():
        for cand in out:
            counts["candidates"] += 1
            yield cand

    return counted()


_HOOKS = {
    "model.sample_realization": _sample_realization,
    "info.density_rows": _density_rows,
    "info.gt_mi_closed_form": _gt_mi_closed_form,
    "conc.remainder_sum": _remainder_sum,
    "bounds.figure_curves": _figure_curves,
    "sim.decode_threshold": _decode_threshold,
    "sim.candidate_supports": _candidate_supports,
}


def top_self_time(metrics: dict[str, float]) -> tuple[str, float]:
    """The traced function with the largest self time, and that time."""
    return max(
        ((m[: -len(".self_s")], v) for m, v in metrics.items() if m.endswith(".self_s")),
        key=lambda kv: kv[1],
    )

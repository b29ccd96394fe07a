"""In-memory span tracer for the adtomo benchmark.

The tracer replaces public functions of adtomo's modules where their callers
look them up (``adtomo.pipeline.collate``, ``adtomo.tomography.train_forest``,
``adtomo.forest.kernels.build_forest``, ...), so no program file changes.
Each call becomes a span ``[name, start, end, parent]`` kept in a list until
the run ends; counters record work at the same boundaries.  A span's self
time is its duration minus the durations of its child spans (calls are
sequential, so children never overlap).

Hooks run after a span has closed but while its parent is still open, so
they only do O(1) bookkeeping; anything heavier is deferred to ``finish``.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

STAGES = ("simulate", "flag", "infer", "syncdetect", "evaluate")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("pipeline.simulate_s", "s"),
    ("pipeline.flag_s", "s"),
    ("pipeline.infer_s", "s"),
    ("pipeline.simulate.self_s", "s"),
    ("pipeline.flag.self_s", "s"),
    ("pipeline.infer.self_s", "s"),
    ("jsonio.read_s", "s"),
    ("jsonio.write_s", "s"),
    ("jsonio.bytes_read", "bytes"),
    ("jsonio.bytes_written", "bytes"),
    ("jsonio.lines_read", "count"),
    ("jsonio.lines_written", "count"),
    ("ecosim.config_s", "s"),
    ("ecosim.simulate_s", "s"),
    ("ecosim.auctions", "count"),
    ("ecosim.ads", "count"),
    ("ecosim.fill_ratio", "ratio"),
    ("ecosim.bids_logged", "count"),
    ("ecosim.requests_logged", "count"),
    ("tomography.collate_s", "s"),
    ("textvec.vectorize_calls", "count"),
    ("textvec.merge_calls", "count"),
    ("textvec.corpus_size", "count"),
    ("tomography.flag_changes_s", "s"),
    ("tomography.flag_rate", "ratio"),
    ("stattest.chi2_calls", "count"),
    ("stattest.chi2_s", "s"),
    ("stattest.chi2_p50_us", "us"),
    ("stattest.chi2_p99_us", "us"),
    ("stattest.collapse_s", "s"),
    ("stattest.degenerate_ratio", "ratio"),
    ("stattest.table_bytes", "bytes_computed"),
    ("forest.cv_grid_s", "s"),
    ("forest.train_calls", "count"),
    ("forest.train_s", "s"),
    ("forest.train_p50_ms", "ms"),
    ("forest.train_p90_ms", "ms"),
    ("forest.build_s", "s"),
    ("forest.prep_s", "s"),
    ("forest.trees_built", "count"),
    ("forest.nodes_built", "count"),
    ("forest.bootstrap_draws", "count_computed"),
    ("forest.pattern_ratio", "ratio"),
    ("forest.predict_calls", "count"),
    ("forest.predict_rows", "count"),
    ("forest.predict_s", "s"),
    ("tomography.run_inference_s", "s"),
    ("tomography.gate_pass_ratio", "ratio"),
    ("syncdetect.detect_s", "s"),
    ("syncdetect.entries", "count"),
    ("syncdetect.pairs", "count"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("tracing.overhead_s", "s"),
    ("tracing.spans", "count"),
    ("tracing.span_cost_s", "s_computed"),
)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._deferred: list = []
        self._undo: list = []
        self.missing: list[str] = []

    def wrap(self, owner, attr, name, after=None, before=None):
        """Record a span for every call of ``owner.attr`` (or ``owner[attr]``).

        ``before(counts, args, kwargs)`` may return replacement arguments;
        ``after(tracer, args, kwargs, result, exc)`` runs once the span closed.
        A missing function is skipped and a failing hook only counted, so a
        changed program API loses a metric instead of breaking the run.
        """
        try:
            original = _get(owner, attr)
        except (AttributeError, KeyError):
            self.missing.append(name)
            return
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(self.counts, args, kwargs)
                except Exception:
                    self.counts["tracing.hook_errors"] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    try:
                        after(self, args, kwargs, result, exc)
                    except Exception:
                        self.counts["tracing.hook_errors"] += 1

        self._undo.append((owner, attr, original))
        _set(owner, attr, traced)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without a span."""
        try:
            original = _get(owner, attr)
        except (AttributeError, KeyError):
            self.missing.append(name)
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._undo.append((owner, attr, original))
        _set(owner, attr, counted)

    def defer(self, fn):
        self._deferred.append(fn)

    def finish(self) -> dict:
        """Restore the wrapped functions, run deferred bookkeeping, and return
        the spans and counters as a JSON-serialisable state."""
        for owner, attr, original in reversed(self._undo):
            _set(owner, attr, original)
        self._undo.clear()
        for fn in self._deferred:
            try:
                fn(self.counts)
            except Exception:
                self.counts["tracing.hook_errors"] += 1
        self._deferred.clear()
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing,
                "span_cost_s": span_cost()}


def span_cost() -> float:
    """Seconds one span adds to a call, hooks aside: a traced minus a bare
    no-op call, timed in the traced process itself."""
    calls = 20000
    holder = {"f": lambda: None}
    bare = holder["f"]
    probe = Tracer()
    probe.wrap(holder, "f", "probe")
    traced = holder["f"]
    t0 = perf_counter()
    for _ in range(calls):
        bare()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _module(name: str):
    """The module, or None once the program no longer has it (its hooks
    then count as missing)."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install_stages(tracer: Tracer, owner) -> None:
    """Span each stage function: ``adtomo.pipeline.stage_<name>`` when
    ``owner`` is the pipeline module, or ``adtomo.cli._STAGES[<name>]``."""
    for stage in STAGES:
        if isinstance(owner, dict):
            tracer.wrap(owner, stage, f"pipeline.{stage}")
        else:
            tracer.wrap(owner, f"stage_{stage}", f"pipeline.{stage}")


def install_layers(tracer: Tracer) -> None:
    """Span the public functions of every layer below the stages."""
    import numpy as np

    pipeline, stattest, tomography, kernels, model = map(_module, (
        "adtomo.pipeline", "adtomo.stattest", "adtomo.tomography",
        "adtomo.forest.kernels", "adtomo.forest.model"))

    def read(t, args, kwargs, result, exc):
        if exc is None:
            t.counts["jsonio.bytes_read"] += os.path.getsize(args[0])
            if isinstance(result, list) and str(args[0]).endswith(".jsonl"):
                t.counts["jsonio.lines_read"] += len(result)

    def count_lines(counts, args, kwargs):
        def counted(records):
            for rec in records:
                counts["jsonio.lines_written"] += 1
                yield rec
        return (args[0], counted(args[1])) + args[2:], kwargs

    def wrote(t, args, kwargs, result, exc):
        if exc is None:
            t.counts["jsonio.bytes_written"] += os.path.getsize(args[0])

    def simulated(t, args, kwargs, result, exc):
        if exc is None:
            world, personas, runs = args[0], args[1], args[2]
            t.counts["ecosim.auctions"] += runs * len(personas) * len(world.slots)
            t.counts["ecosim.ads"] += len(result.ads)
            t.counts["ecosim.bids_logged"] += len(result.bids)
            t.counts["ecosim.requests_logged"] += len(result.requests)

    def collated(t, args, kwargs, result, exc):
        t.counts["textvec.corpus_size"] = max(t.counts["textvec.corpus_size"], args[1].size)

    def flagged(t, args, kwargs, result, exc):
        if exc is None:
            t.defer(lambda counts: counts.update({
                "tomography.records": len(result),
                "tomography.flagged": sum(1 for r in result if r.is_different_from_control)}))

    def chi2(t, args, kwargs, result, exc):
        t.counts["stattest.table_cols"] += np.shape(args[0])[1]
        if isinstance(exc, stattest.DegenerateTableError):
            t.counts["stattest.degenerate"] += 1

    def built(t, args, kwargs, result, exc):
        if exc is not None:
            return
        X, tree_seeds = args[0], args[2]
        bootstrap = kwargs["bootstrap"] if "bootstrap" in kwargs else args[6]
        n_rows, n_trees = len(X), len(tree_seeds)
        t.counts["forest.trees_built"] += n_trees
        t.counts["forest.nodes_built"] += int(result[6].sum())
        t.counts["forest.rows"] += n_rows
        if bootstrap:
            t.counts["forest.bootstrap_draws"] += n_rows * n_trees
        t.defer(lambda counts: counts.update(
            {"forest.patterns": len(np.unique(np.asarray(X), axis=0))}))

    def predicted(t, args, kwargs, result, exc):
        t.counts["forest.predict_rows"] += len(args[1])

    def inferred(t, args, kwargs, result, exc):
        if exc is None:
            threshold = kwargs.get("accuracy_threshold", args[7] if len(args) > 7 else 0.6)
            t.counts["tomography.advertisers"] += len(result)
            t.counts["tomography.gate_passed"] += sum(
                1 for r in result if r.holdout_accuracy >= threshold)

    def detected(t, args, kwargs, result, exc):
        if exc is None:
            t.counts["syncdetect.entries"] += len(args[0])
            t.counts["syncdetect.pairs"] += len(result.pairs)

    wrap = tracer.wrap
    wrap(pipeline, "sim_config_from_dict", "ecosim.config")
    wrap(pipeline, "read_json", "jsonio.read", after=read)
    wrap(pipeline, "read_jsonl", "jsonio.read", after=read)
    wrap(pipeline, "write_json", "jsonio.write", after=wrote)
    wrap(pipeline, "write_jsonl", "jsonio.write", after=wrote, before=count_lines)
    wrap(pipeline, "run_simulation", "ecosim.simulate", after=simulated)
    wrap(pipeline, "collate", "tomography.collate", after=collated)
    tracer.count(tomography, "vectorize_tokens", "textvec.vectorize_calls")
    tracer.count(tomography, "merge_vectors", "textvec.merge_calls")
    wrap(pipeline, "flag_changes", "tomography.flag_changes", after=flagged)
    wrap(tomography, "chi_square_independence", "stattest.chi2", after=chi2)
    wrap(stattest, "collapse_low_mass_columns", "stattest.collapse")
    wrap(pipeline, "run_inference", "tomography.run_inference", after=inferred)
    wrap(tomography, "cross_validate_grid", "forest.cv_grid")
    wrap(model, "train_forest", "forest.train")
    wrap(tomography, "train_forest", "forest.train")
    wrap(kernels, "build_forest", "forest.build", after=built)
    wrap(model, "predict_batch", "forest.predict", after=predicted)
    wrap(pipeline, "detect_cookie_sync", "syncdetect.detect", after=detected)


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def stage_times(states) -> dict[str, float]:
    """Total seconds per stage span over all states."""
    out: dict[str, float] = {}
    for state in states:
        for name, start, end, _ in state["spans"]:
            if name.startswith("pipeline."):
                stage = name.split(".", 1)[1]
                out[stage] = out.get(stage, 0.0) + (end - start)
    return out


def layer_metrics(states) -> dict[str, float]:
    """Per-layer metrics (without the process.* and tracing.* ones) from the
    states of one or more traced processes."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    durations = defaultdict(list)
    counts: Counter = Counter()
    missing: set = set()
    span_cost_s = 0.0
    for state in states:
        missing.update(state["missing"])
        span_cost_s += len(state["spans"]) * state["span_cost_s"]
        spans = state["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            total[name] += end - start
            self_time[name] += (end - start) - child[i]
            durations[name].append(end - start)
        counts.update(state["counts"])
    chi2 = durations["stattest.chi2"]
    train = durations["forest.train"]
    return {
        "pipeline.simulate.self_s": self_time["pipeline.simulate"],
        "pipeline.flag.self_s": self_time["pipeline.flag"],
        "pipeline.infer.self_s": self_time["pipeline.infer"],
        "jsonio.read_s": total["jsonio.read"],
        "jsonio.write_s": total["jsonio.write"],
        "jsonio.bytes_read": counts["jsonio.bytes_read"],
        "jsonio.bytes_written": counts["jsonio.bytes_written"],
        "jsonio.lines_read": counts["jsonio.lines_read"],
        "jsonio.lines_written": counts["jsonio.lines_written"],
        "ecosim.config_s": total["ecosim.config"],
        "ecosim.simulate_s": total["ecosim.simulate"],
        "ecosim.auctions": counts["ecosim.auctions"],
        "ecosim.ads": counts["ecosim.ads"],
        "ecosim.fill_ratio": _ratio(counts["ecosim.ads"], counts["ecosim.auctions"]),
        "ecosim.bids_logged": counts["ecosim.bids_logged"],
        "ecosim.requests_logged": counts["ecosim.requests_logged"],
        "tomography.collate_s": total["tomography.collate"],
        "textvec.vectorize_calls": counts["textvec.vectorize_calls"],
        "textvec.merge_calls": counts["textvec.merge_calls"],
        "textvec.corpus_size": counts["textvec.corpus_size"],
        "tomography.flag_changes_s": total["tomography.flag_changes"],
        "tomography.flag_rate": _ratio(counts["tomography.flagged"],
                                       counts["tomography.records"]),
        "stattest.chi2_calls": len(chi2),
        "stattest.chi2_s": total["stattest.chi2"],
        "stattest.chi2_p50_us": _quantile(chi2, 0.50) * 1e6,
        "stattest.chi2_p99_us": _quantile(chi2, 0.99) * 1e6,
        "stattest.collapse_s": total["stattest.collapse"],
        "stattest.degenerate_ratio": _ratio(counts["stattest.degenerate"], len(chi2)),
        # computed, not measured: one float64 2 x V dense table per call
        "stattest.table_bytes": 2 * 8 * counts["stattest.table_cols"],
        "forest.cv_grid_s": total["forest.cv_grid"],
        "forest.train_calls": len(train),
        "forest.train_s": total["forest.train"],
        "forest.train_p50_ms": _quantile(train, 0.50) * 1e3,
        "forest.train_p90_ms": _quantile(train, 0.90) * 1e3,
        "forest.build_s": total["forest.build"],
        "forest.prep_s": total["forest.train"] - total["forest.build"],
        "forest.trees_built": counts["forest.trees_built"],
        "forest.nodes_built": counts["forest.nodes_built"],
        # computed: one draw per row per bootstrapped tree
        "forest.bootstrap_draws": counts["forest.bootstrap_draws"],
        "forest.pattern_ratio": _ratio(counts["forest.patterns"], counts["forest.rows"]),
        "forest.predict_calls": len(durations["forest.predict"]),
        "forest.predict_rows": counts["forest.predict_rows"],
        "forest.predict_s": total["forest.predict"],
        "tomography.run_inference_s": total["tomography.run_inference"],
        "tomography.gate_pass_ratio": _ratio(counts["tomography.gate_passed"],
                                             counts["tomography.advertisers"]),
        "syncdetect.detect_s": total["syncdetect.detect"],
        "syncdetect.entries": counts["syncdetect.entries"],
        "syncdetect.pairs": counts["syncdetect.pairs"],
        "tracing.spans": sum(len(state["spans"]) for state in states),
        # computed: spans x the measured cost of one span, a floor under the
        # tracing overhead that does not depend on the machine's drift
        "tracing.span_cost_s": span_cost_s,
        "tracing.missing_hooks": len(missing),
        "tracing.hook_errors": counts["tracing.hook_errors"],
    }

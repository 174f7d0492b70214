"""Spans around perfcode's layer boundaries, recorded from outside the package.

A workload reaches every layer through a probe.  `NullProbe` hands back the
package's own functions unchanged, so an untraced run pays nothing.  `Tracer`
wraps them: each call becomes a span (name, start, end, parent, run id, tag)
kept in memory until the run ends; a tag function turns the call's arguments
and result into a hit/miss outcome, a byte count or a tuple of counts.  Where
one perfcode module calls another, `Tracer.hooks()` wraps the name the calling
module imported, for the length of the traced phase only.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import Counter, defaultdict


def _dcm_outcome(args, result):
    return "hit" if result is not None else "miss"


def saved_bytes(args, result):
    return os.path.getsize(args[0])


def emitted_bytes(args, result):
    return len(result.encode())


def cataloged(args, result):
    """((group, automorphism) pairs in, distinct taus out) of one catalog build."""
    return len(args[1]), len(result)


def classified(args, result):
    """(taus in, entries out, invariant buckets, classes) of one classify call."""
    return (
        len(args[0]),
        len(result),
        len({(e.rank, e.kernel_dim, e.intersection_dim) for e in result}),
        len({e.class_id for e in result}),
    )


# (module that imported the name, attribute, span name, tag function)
HOOKS = (
    ("perfcode.classify", "double_coset_member", "algebra.double_coset_member", _dcm_outcome),
    ("perfcode.classify", "aut_order", "sqs.aut_order", None),
    ("perfcode.classify", "point_transitive", "sqs.point_transitive", None),
    ("perfcode.classify", "perm_rank", "classify.perm_rank", None),
    ("perfcode.classify", "perm_kernel_dim", "classify.perm_kernel_dim", None),
    ("perfcode.classify", "perm_intersection_dim", "classify.perm_intersection_dim", None),
    ("perfcode.sqs", "double_coset_member", "algebra.double_coset_member", _dcm_outcome),
    ("perfcode.sqs", "count_linear_products", "algebra.count_linear_products", None),
    ("perfcode.cli", "catalog_taus", "regular_groups.catalog", None),
    ("perfcode.cli", "classify_catalog", "classify.classify", classified),
    ("perfcode.io", "save_tau_catalog", "io.save_tau_catalog", saved_bytes),
    ("perfcode.io", "load_tau_catalog", "io.load_tau_catalog", None),
    ("perfcode.io", "emit_catalog_json", "io.emit", emitted_bytes),
    ("perfcode.io", "emit_catalog_csv", "io.emit", emitted_bytes),
)

INVARIANT_SPANS = ("classify.perm_rank", "classify.perm_kernel_dim", "classify.perm_intersection_dim")


class NullProbe:
    """Tracing off: the workload calls perfcode directly."""

    def wrap(self, name, fn, tag=None):
        return fn

    def iterate(self, name, iterable):
        return iterable

    def item(self, run_id):
        pass


class Tracer:
    """Tracing on: spans in memory, reduced by `layer_metrics`."""

    def __init__(self):
        # span = [name, start, end, parent index or -1, run id, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run_id = 0

    def item(self, run_id):
        self._run_id = run_id

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, tag=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span[5] = tag(args, result)
            return result

        return traced

    def iterate(self, name, iterable):
        """Yield from `iterable`, one span per item produced."""
        it = iter(iterable)
        while True:
            span = self._open(name)
            try:
                value = next(it)
            except StopIteration:
                self._close(span)
                self.spans.pop()
                return
            self._close(span)
            yield value

    @contextlib.contextmanager
    def hooks(self):
        """Wrap the cross-module names in HOOKS; restore them on exit."""
        saved = []
        try:
            for module_name, attr, span_name, tag in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, tag))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Reduce the spans to the per-layer metrics, as {name: (value, unit)}."""
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    tag_sum = defaultdict(float)
    tag_counts = defaultdict(lambda: [0, 0, 0, 0])  # element-wise sums of tuple tags
    dcm = {"hit": [0, 0.0], "miss": [0, 0.0]}
    for name, start, end, parent, _run, tag in tracer.spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
        if name == "algebra.double_coset_member":
            dcm[tag][0] += 1
            dcm[tag][1] += dur
        elif isinstance(tag, tuple):
            acc = tag_counts[name]
            for i, value in enumerate(tag):
                acc[i] += value
        elif tag is not None:
            tag_sum[name] += tag

    self_time = defaultdict(float)
    for i, (name, start, end, *_rest) in enumerate(tracer.spans):
        self_time[name] += (end - start) - child[i]

    auts_found, distinct = tag_counts["regular_groups.catalog"][:2]
    classify_counts = tag_counts["classify.classify"]
    hits, misses = dcm["hit"][0], dcm["miss"][0]
    return {
        "regular_groups.tables_s": (setup["tables_s"], "s"),
        "regular_groups.enum_s": (total["regular_groups.enumerate"], "s"),
        "regular_groups.enum_groups": (calls["regular_groups.enumerate"], "count"),
        "regular_groups.aut_s": (total["regular_groups.automorphisms"], "s"),
        "regular_groups.aut_calls": (calls["regular_groups.automorphisms"], "count"),
        "regular_groups.auts_found": (auts_found, "count"),
        "regular_groups.distinct_taus": (distinct, "count"),
        "regular_groups.dedup_ratio": (_ratio(distinct, auts_found), "ratio"),
        "regular_groups.catalog_s": (total["regular_groups.catalog"], "s"),
        "algebra.sweep_tables_s": (setup["sweep_tables_s"], "s"),
        "algebra.dcm_calls": (hits + misses, "count"),
        "algebra.dcm_hit_calls": (hits, "count"),
        "algebra.dcm_hit_s": (dcm["hit"][1], "s"),
        "algebra.dcm_miss_calls": (misses, "count"),
        "algebra.dcm_miss_s": (dcm["miss"][1], "s"),
        "algebra.dcm_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "algebra.clp_calls": (calls["algebra.count_linear_products"], "count"),
        "algebra.clp_s": (total["algebra.count_linear_products"], "s"),
        "sqs.aut_order_calls": (calls["sqs.aut_order"], "count"),
        "sqs.aut_order_s": (total["sqs.aut_order"], "s"),
        "sqs.point_transitive_calls": (calls["sqs.point_transitive"], "count"),
        "sqs.point_transitive_s": (total["sqs.point_transitive"], "s"),
        "sqs.sqs_from_tau_s": (total["sqs.sqs_from_tau"], "s"),
        "sqs.validate_s": (total["sqs.validate_sqs"], "s"),
        "sqs.count_automorphisms_s": (total["sqs.count_automorphisms"], "s"),
        "classify.calls": (calls["classify.classify"], "count"),
        "classify.classify_s": (total["classify.classify"], "s"),
        "classify.self_s": (self_time["classify.classify"], "s"),
        "classify.invariant_s": (sum(total[n] for n in INVARIANT_SPANS), "s"),
        "classify.invariant_calls": (calls["classify.perm_rank"], "count"),
        "classify.taus_in": (classify_counts[0], "count"),
        "classify.taus_after_filter": (classify_counts[1], "count"),
        "classify.buckets": (classify_counts[2], "count"),
        "classify.classes": (classify_counts[3], "count"),
        "codes.stats_s": (total["codes.stats_coset_union"], "s"),
        "codes.materialize_s": (total["codes.explicit_materialize"], "s"),
        "codes.brute_rank_s": (total["codes.brute_rank"], "s"),
        "codes.brute_kernel_s": (total["codes.brute_kernel_dim"], "s"),
        "codes.weight4_s": (total["codes.weight4_supports"], "s"),
        "constructions.build_s_tau_s": (total["constructions.build_s_tau"], "s"),
        "io.save_catalog_s": (total["io.save_tau_catalog"], "s"),
        "io.load_catalog_s": (total["io.load_tau_catalog"], "s"),
        "io.emit_s": (total["io.emit"], "s"),
        "io.bytes_written": (int(tag_sum["io.save_tau_catalog"] + tag_sum["io.emit"]), "bytes"),
        "cli.calls": (calls["cli.cli_main"], "count"),
        "cli.self_s": (self_time["cli.cli_main"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), "ratio"),
    }


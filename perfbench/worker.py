"""One workload of the census benchmark, run in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--smoke] [--setup-only]

`run.py` starts this with `src/` on PYTHONPATH and reads the JSON object on the
last line of its standard output.  The process sets up (imports, inputs from
the seed, first-use tables), runs the workload's fixed work once untraced and,
with `--trace 1`, once more with spans, then checks the outputs outside every
timed region.
"""

from __future__ import annotations

import time


def _python_kernel():
    acc, table = 0, {}
    for i in range(10_000):
        acc ^= (i * 7) & 0xFFFF
        table[i & 1023] = acc


def _fastest(kernel) -> float:
    """Fastest of three runs of a reference kernel: the machine's speed right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


_PY_BEFORE = _fastest(_python_kernel)  # the machine's speed before set-up, to normalize it
_T0 = time.perf_counter()  # set-up is timed from here, before perfcode is imported

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import perfcode
from perfcode import (
    PointPerm,
    TauCatalog,
    apply_structured,
    aut_order,
    automorphisms,
    brute_kernel_dim,
    brute_rank,
    build_s_tau,
    catalog_taus,
    classify,
    classify_catalog,
    count_automorphisms,
    double_coset_member,
    enumerate_regular_subgroups,
    explicit_materialize,
    identity_perm,
    invert,
    invert_perm,
    is_linear,
    point_transitive,
    sqs_from_tau,
    sqs_isomorphic,
    stats_coset_union,
    validate_sqs,
    weight4_supports,
)
from perfcode.classify import tau_id_string
from perfcode.cli import cli_main
from perfcode.io import (
    CSV_COLUMNS,
    emit_catalog_json,
    load_tau_catalog,
    parse_catalog_json,
    save_tau_catalog,
)

from tracing import NullProbe, Tracer, cataloged, classified, emitted_bytes, layer_metrics, saved_bytes

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = Path(__file__).resolve().parent / "_work"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


_NP_TABLE = np.random.default_rng(0).integers(0, 16, size=(20160, 16), dtype=np.int8)
_NP_COLUMNS = np.arange(16)[::-1].copy()


def _numpy_kernel():
    # the shape of one GL(4,2) double-coset sweep: gather, compare, reduce
    for _ in range(4):
        cand = _NP_TABLE[:, _NP_COLUMNS]
        (cand == cand[:, :1]).all(axis=1).sum()


# reference kernels and their times at the speed the normalized times assume
KERNELS = {"py": (_python_kernel, 0.0018), "np": (_numpy_kernel, 0.00075)}
REF_REUSE_S = 0.05


def reference_s() -> dict:
    return {kind: _fastest(kernel) for kind, (kernel, _) in KERNELS.items()}


class SpeedClock:
    """Times regions of work in seconds at a fixed reference machine speed.

    The machine is shared and its speed drifts by up to a third within
    seconds, interpreted Python more than numpy.  So the reference kernels
    run right before and right after each timed region (outside it), and the
    region's time is scaled by each kernel's nominal time over the mean of
    its two measurements.  A region says which kernel its work resembles:
    "py" (interpreted code), "np" (numpy sweeps) or "mix" (the geometric
    mean of both factors).  Raw wall time is kept alongside.
    """

    def __init__(self):
        self.norm = 0.0
        self.raw = 0.0
        self.refs: list[dict] = []
        self._ref, self._ref_at = reference_s(), time.perf_counter()

    def _reference(self) -> dict:
        if time.perf_counter() - self._ref_at > REF_REUSE_S:
            self._ref = reference_s()
        self._ref_at = time.perf_counter()
        return self._ref

    def time(self, kind: str, fn, *args, **kwargs):
        """(result, normalized seconds) of one call."""
        before = self._reference()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        self._ref = after = reference_s()
        self._ref_at = time.perf_counter()
        factor = {k: 2 * KERNELS[k][1] / (before[k] + after[k]) for k in KERNELS}
        factor["mix"] = (factor["py"] * factor["np"]) ** 0.5
        norm = raw * factor[kind]
        self.norm += norm
        self.raw += raw
        self.refs.append(after)
        return result, norm


def _random_zero_fixing(r: int, rng: random.Random) -> PointPerm:
    rest = list(range(1, 1 << r))
    rng.shuffle(rest)
    return PointPerm(r, tuple([0] + rest))


def _warm_sweep(r: int) -> dict:
    """Build the GL sweep table through one public call."""
    ident = identity_perm(r)
    _, sweep_s = _timed(double_coset_member, ident, ident)
    return {"tables_s": 0.0, "sweep_tables_s": sweep_s}


def _warm_tables(r: int) -> dict:
    """Build the enumeration tables and the GL sweep table through one public call each."""
    _, tables_s = _timed(next, iter(enumerate_regular_subgroups(r)))
    return {**_warm_sweep(r), "tables_s": tables_s}


# ---------------------------------------------------------------------------
# Output checks (never inside a timed region)
# ---------------------------------------------------------------------------


class Checks:
    """Counts every output check; keeps the first few failures for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def tau_from_id(tau_id: str) -> PointPerm:
    head, body = tau_id.split("-", 1)
    r = int(head[1:])
    images = [int(c, 16) for c in body] if r <= 4 else [int(x) for x in body.split(".")]
    return PointPerm(r, tuple(images))


def witness_holds(rep: PointPerm, member: PointPerm) -> bool:
    """Apply the isomorphism witness to SQS_rep and compare with SQS_member."""
    w = sqs_isomorphic(rep, member)
    if w is None:
        return False
    image = apply_structured((0, w.a_mat, 0, w.b_mat, w.t), sqs_from_tau(rep))
    return image.quadruples == sqs_from_tau(member).quadruples


def transitivity_holds(tau: PointPerm) -> bool:
    """point_transitive's witness (A, B) satisfies tau^-1 = sigma_B tau sigma_A^-1 at every point."""
    flag, w = point_transitive(tau)
    if not flag:
        return False
    if w is None:
        return is_linear(tau) is not None
    a_mat, b_mat = w
    a_inv = invert(a_mat)
    inv = invert_perm(tau).images
    return all(inv[x] == b_mat.apply(tau.images[a_inv.apply(x)]) for x in range(1 << tau.r))


def classes_of(entries) -> dict[int, list]:
    """class id -> entries in output order; the first is the class representative."""
    out: dict[int, list] = {}
    for e in entries:
        out.setdefault(e.class_id, []).append(e)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What one pass over a workload's fixed work measured and produced."""

    items: list = field(default_factory=list)  # normalized seconds per item
    stages: dict = field(default_factory=dict)  # stage name -> normalized seconds
    outputs: list = field(default_factory=list)
    clock: SpeedClock = field(default_factory=SpeedClock)


class Workload:
    unit_s = 1.0  # seed-code seconds per repetition; sizes the fixed work from --seconds

    def __init__(self, seed: int, seconds: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reps = 1 if smoke else max(1, round(seconds / self.unit_s))

    def sizes(self) -> dict:
        return {"reps": self.reps}


class CensusR3Cli(Workload):
    """The complete r=3 census through cli_main: catalog-taus, then classify as JSON and CSV."""

    unit_s = 0.6
    JSON_SHA = "567b03bde247c3ef04ba938e7fe7586191b0f5098d10ecf8ec2ef4ebce2842a3"
    CSV_SHA = "783af1a6ef35bc15c3d4599327a8cbf8c88b8bb1e215d61db6e3a728277d3150"
    TAUS, RANKS = 1372, [11, 12, 13, 14]

    def setup(self) -> dict:
        return _warm_tables(3)

    def run(self, probe) -> Phase:
        cli = probe.wrap("cli.cli_main", cli_main)
        cat, out_json, out_csv = (self.workdir / n for n in ("catalog.json", "out.json", "out.csv"))
        phase = Phase(stages={"catalog": 0.0, "classify": 0.0})
        with contextlib.redirect_stdout(io.StringIO()):
            for rep in range(self.reps):
                probe.item(rep)
                rc_cat, t_cat = phase.clock.time("py", cli, ["catalog-taus", "--r", "3", "--out", str(cat)])
                # the seed reorders the catalog file; the classification must not change
                rows = json.loads(cat.read_text())
                random.Random(f"{self.seed}:{rep}").shuffle(rows)
                cat.write_text(json.dumps(rows, separators=(",", ":")))
                (rc_json, rc_csv), t_cls = phase.clock.time(
                    "py",
                    lambda: tuple(
                        cli(["classify", "--catalog", str(cat), "--out", str(out), "--format", fmt])
                        for out, fmt in ((out_json, "json"), (out_csv, "csv"))
                    )
                )
                phase.items.append(t_cat + t_cls)
                phase.stages["catalog"] += t_cat
                phase.stages["classify"] += t_cls
                json_text, csv_text = out_json.read_text(), out_csv.read_text()
                phase.outputs.append(
                    {
                        "rcs": (rc_cat, rc_json, rc_csv),
                        "catalog_rows": len(rows),
                        "json_sha": _sha(json_text),
                        "csv_sha": _sha(csv_text),
                        "texts": (json_text, csv_text) if rep == 0 else None,
                    }
                )
        return phase

    def check(self, first: Phase, second: Phase | None, checks: Checks) -> dict:
        for phase in (first, second) if second else (first,):
            for rep, out in enumerate(phase.outputs):
                checks.expect(out["rcs"] == (0, 0, 0), f"census {rep}: exit codes {out['rcs']}")
                checks.expect(out["catalog_rows"] == self.TAUS, f"census {rep}: {out['catalog_rows']} catalog rows")
                checks.expect(out["json_sha"] == self.JSON_SHA, f"census {rep}: JSON differs from the expected bytes")
                checks.expect(out["csv_sha"] == self.CSV_SHA, f"census {rep}: CSV differs from the expected bytes")
        json_text, csv_text = first.outputs[0]["texts"]
        entries = parse_catalog_json(json_text)
        classes = classes_of(entries)
        checks.expect(len(entries) == self.TAUS, f"{len(entries)} classified taus")
        checks.expect(len(classes) == len(self.RANKS), f"{len(classes)} classes")
        checks.expect(sorted(m[0].rank for m in classes.values()) == self.RANKS, "class ranks")
        checks.expect(all(e.point_transitive for e in entries), "an entry is not point transitive")
        rows = list(csv.reader(io.StringIO(csv_text)))
        checks.expect(rows[0] == CSV_COLUMNS, "CSV header")
        checks.expect(len(rows) - 1 == len(entries), "CSV and JSON row counts differ")
        for e, row in zip(entries, rows[1:]):
            checks.expect(row == _csv_row(e), f"CSV row differs from JSON for {e.tau_id}")
        return {"json_sha": first.outputs[0]["json_sha"], "csv_sha": first.outputs[0]["csv_sha"]}


def _csv_row(e) -> list[str]:
    out = []
    for col in CSV_COLUMNS:
        val = getattr(e, col)
        out.append(("true" if val else "false") if isinstance(val, bool) else "" if val is None else str(val))
    return out


def _build_catalog(r: int, images: list, gids: list, aids: list) -> TauCatalog:
    """Deduplicate (group, automorphism) taus, keeping the first pair seen, as catalog_taus does."""
    arr = np.array(images, dtype=np.uint64)
    shifts = np.uint64(4) * np.arange(1 << r, dtype=np.uint64)
    codes = np.bitwise_or.reduce(arr << shifts, axis=1)
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return TauCatalog(
        r, arr[first].astype(np.int8), np.asarray(gids)[first], np.asarray(aids)[first], complete=True
    )


class CensusR4Slice(Workload):
    """A fixed prefix of the r=4 regular subgroups, cataloged, saved, reloaded and classified."""

    unit_s = 21.0
    # groups, kernel dimension, and the expected (group, aut) pairs, distinct taus,
    # classified entries, classes and JSON digest; the prefix reaches group 164,
    # the first whose taus have kernel dimension 22
    FULL = (165, 22, 50464, 42592, 9216, 1, "dc6fdd5a71f69172c06cbfd6e4fed9605b9d3a1e9aa66eebe0f23b4976ede178")
    SMOKE = (8, 24, 20736, 20352, 192, 1, "a83d76bc6fa4717261b8e21867679681f0fa6a215091160b0431dc5ebf219692")

    def __init__(self, *args):
        super().__init__(*args)
        (self.groups, self.kernel_dim, self.pairs, self.distinct, self.entries, self.classes,
         self.json_sha) = self.SMOKE if self.smoke else self.FULL

    def sizes(self) -> dict:
        return {"reps": self.reps, "groups": self.groups, "kernel_dim": self.kernel_dim}

    def setup(self) -> dict:
        return _warm_tables(4)

    def run(self, probe) -> Phase:
        auts_of = probe.wrap("regular_groups.automorphisms", automorphisms)
        build = probe.wrap("regular_groups.catalog", _build_catalog, tag=cataloged)
        save = probe.wrap("io.save_tau_catalog", save_tau_catalog, tag=saved_bytes)
        load = probe.wrap("io.load_tau_catalog", load_tau_catalog)
        classify_fn = probe.wrap("classify.classify", classify_catalog, tag=classified)
        emit = probe.wrap("io.emit", emit_catalog_json, tag=emitted_bytes)
        path = self.workdir / "catalog.json"
        phase = Phase(stages={"catalog": 0.0, "classify": 0.0, "io": 0.0})
        for rep in range(self.reps):
            probe.item(rep)
            images, gids, aids = [], [], []
            groups = probe.iterate("regular_groups.enumerate", enumerate_regular_subgroups(4))
            for gid in range(self.groups):
                auts, dt = phase.clock.time("py", lambda: auts_of(next(groups)))
                images.extend(a.perm.images for a in auts)
                gids.extend([gid] * len(auts))
                aids.extend(range(len(auts)))
                phase.items.append(dt)
            groups.close()
            catalog, t_build = phase.clock.time("np", build, 4, images, gids, aids)
            # the seed reorders the catalog rows; the classification must not change
            order = np.random.default_rng([self.seed, rep]).permutation(len(catalog))
            shuffled = TauCatalog(4, catalog.images[order], catalog.group_ids[order],
                                  catalog.aut_ids[order], complete=True)
            _, t_save = phase.clock.time("py", save, path, shuffled)
            loaded, t_load = phase.clock.time("py", load, path)
            entries, t_cls = phase.clock.time("np", classify_fn, loaded, kernel_dim=self.kernel_dim)
            text, t_emit = phase.clock.time("py", emit, entries)
            phase.stages["catalog"] += sum(phase.items[-self.groups:]) + t_build
            phase.stages["io"] += t_save + t_load + t_emit
            phase.stages["classify"] += t_cls
            phase.outputs.append(
                {
                    "pairs": len(images),
                    "distinct": len(catalog),
                    "reloaded": bool(np.array_equal(loaded.images, shuffled.images)),
                    "json_sha": _sha(text),
                    "entries": entries if rep == 0 else None,
                }
            )
        return phase

    def check(self, first: Phase, second: Phase | None, checks: Checks) -> dict:
        for phase in (first, second) if second else (first,):
            for rep, out in enumerate(phase.outputs):
                checks.expect(out["pairs"] == self.pairs, f"slice {rep}: {out['pairs']} (group, aut) pairs")
                checks.expect(out["distinct"] == self.distinct, f"slice {rep}: {out['distinct']} distinct taus")
                checks.expect(out["reloaded"], f"slice {rep}: catalog changed in the save/load round trip")
                checks.expect(out["json_sha"] == self.json_sha, f"slice {rep}: JSON differs from the expected bytes")
        entries = first.outputs[0]["entries"]
        classes = classes_of(entries)
        checks.expect(len(entries) == self.entries, f"{len(entries)} classified taus")
        checks.expect(len(classes) == self.classes, f"{len(classes)} classes")
        for e in entries:
            checks.expect(e.kernel_dim == self.kernel_dim, f"{e.tau_id}: kernel {e.kernel_dim}")
            if e.kernel_dim == 22:  # the paper's kernel-22 taus are point transitive and non-Mollard
                checks.expect(e.point_transitive and e.non_mollard, f"{e.tau_id}: not point transitive non-Mollard")
        rng = random.Random(self.seed)
        for members in classes.values():
            rep = tau_from_id(members[0].tau_id)
            if members[0].point_transitive:
                checks.expect(transitivity_holds(rep), f"{members[0].tau_id}: transitivity witness fails")
            for e in rng.sample(members[1:], min(len(members) - 1, 24)):
                checks.expect(witness_holds(rep, tau_from_id(e.tau_id)), f"{e.tau_id}: isomorphism witness fails")
        return {"json_sha": first.outputs[0]["json_sha"], "pairs": first.outputs[0]["pairs"],
                "distinct": first.outputs[0]["distinct"], "entries": len(entries), "classes": len(classes)}


class ClassifyR4Random(Workload):
    """classify() on seeded random zero-fixing r=4 permutations: nearly every double-coset test misses."""

    unit_s = 2.1

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 10 if self.smoke else 40

    def sizes(self) -> dict:
        return {"reps": self.reps, "n": self.n}

    def setup(self) -> dict:
        rng = random.Random(self.seed)
        self.batches = [[_random_zero_fixing(4, rng) for _ in range(self.n)] for _ in range(self.reps)]
        return _warm_sweep(4)

    def run(self, probe) -> Phase:
        classify_fn = probe.wrap("classify.classify", classify, tag=classified)
        phase = Phase()
        for rep, batch in enumerate(self.batches):
            probe.item(rep)
            entries, dt = phase.clock.time("np", classify_fn, batch)
            phase.items.append(dt)
            phase.outputs.append(entries)
        phase.stages["classify"] = phase.clock.norm
        return phase

    def check(self, first: Phase, second: Phase | None, checks: Checks) -> dict:
        if second:
            for rep, (a, b) in enumerate(zip(first.outputs, second.outputs)):
                checks.expect(a == b, f"batch {rep}: traced classification differs")
        rng = random.Random(self.seed)
        merges = classes_total = 0
        for rep, (batch, entries) in enumerate(zip(self.batches, first.outputs)):
            checks.expect(
                sorted(e.tau_id for e in entries) == sorted(tau_id_string(t) for t in batch),
                f"batch {rep}: entries are not the inputs",
            )
            classes = classes_of(entries)
            classes_total += len(classes)
            buckets: dict[tuple, list] = {}
            for members in classes.values():
                head = members[0]
                rep_tau = tau_from_id(head.tau_id)
                buckets.setdefault((head.rank, head.kernel_dim, head.intersection_dim), []).append(rep_tau)
                if head.point_transitive:
                    checks.expect(transitivity_holds(rep_tau), f"{head.tau_id}: transitivity witness fails")
                for e in members[1:]:  # every merge
                    merges += 1
                    checks.expect(witness_holds(rep_tau, tau_from_id(e.tau_id)), f"{e.tau_id}: isomorphism witness fails")
            # a sample of split decisions inside one bucket must repeat
            pairs = [(a, b) for reps in buckets.values() for i, a in enumerate(reps) for b in reps[i + 1 :]]
            for a, b in rng.sample(pairs, min(len(pairs), 4)):
                checks.expect(sqs_isomorphic(a, b) is None, "two class representatives are isomorphic")
            # rank and kernel from the classifier agree with the structural code formulas
            for e in rng.sample(entries, min(len(entries), 4)):
                tau = tau_from_id(e.tau_id)
                stats = stats_coset_union(build_s_tau(tau), tau)
                checks.expect((stats.rank, stats.kernel_dim) == (e.rank, e.kernel_dim), f"{e.tau_id}: invariants")
        return {"classes": classes_total, "merges": merges}


class OraclesR3(Workload):
    """The criterion-4 oracle chain on a seeded, stratified sample of r=3 catalog taus and random taus."""

    unit_s = 0.12
    # every tau runs in each pass, in a new order; its item time is its faster
    # pass, so that a momentary stall inside one chain does not make the tail
    PASSES = 2

    def setup(self) -> dict:
        warm = _warm_tables(3)
        catalog = catalog_taus(3)
        rng = random.Random(self.seed)
        count = 4 if self.smoke else max(1, self.reps // self.PASSES)
        n_random = count // 4
        n_catalog = count - n_random
        # one tau from each of n_catalog equal runs of the catalog order: chain
        # costs vary widely between taus, and an unstratified draw moves the tail
        picks = [int((j + rng.random()) * len(catalog) / n_catalog) for j in range(n_catalog)]
        self.taus = [catalog.perm(i) for i in picks]
        self.taus += [_random_zero_fixing(3, rng) for _ in range(n_random)]
        rng.shuffle(self.taus)
        return warm

    def sizes(self) -> dict:
        return {"taus": len(self.taus), "passes": self.PASSES}

    def run(self, probe) -> Phase:
        w = probe.wrap
        build = w("constructions.build_s_tau", build_s_tau)
        stats_of = w("codes.stats_coset_union", stats_coset_union)
        materialize = w("codes.explicit_materialize", explicit_materialize)
        b_rank = w("codes.brute_rank", brute_rank)
        b_kernel = w("codes.brute_kernel_dim", brute_kernel_dim)
        make_sqs = w("sqs.sqs_from_tau", sqs_from_tau)
        validate = w("sqs.validate_sqs", validate_sqs)
        supports_of = w("codes.weight4_supports", weight4_supports)
        order_of = w("sqs.aut_order", aut_order)
        count_auts = w("sqs.count_automorphisms", count_automorphisms)
        def chain(tau):
            code = build(tau)
            stats = stats_of(code, tau)
            explicit = materialize(code)
            rank = b_rank(explicit)
            kernel = b_kernel(explicit)
            q = make_sqs(tau)
            violation = validate(q)
            supports = supports_of(explicit)
            aut = order_of(tau)
            counted = count_auts(q)
            return stats, rank, kernel, q, violation, supports, aut, counted

        phase = Phase(items=[float("inf")] * len(self.taus))
        for run in range(self.PASSES):
            order = list(range(len(self.taus)))
            random.Random(f"{self.seed}:{run}").shuffle(order)
            for i in order:
                probe.item(i)
                tau = self.taus[i]
                (stats, rank, kernel, q, violation, supports, aut, counted), dt = phase.clock.time("mix", chain, tau)
                phase.items[i] = min(phase.items[i], dt)
                oks = (
                    stats.rank == rank,
                    stats.kernel_dim == kernel,
                    violation is None,
                    {frozenset(quad) for quad in q.quadruples} == supports,
                    aut == counted,
                )
                phase.outputs.append((tau, oks))
        return phase

    def check(self, first: Phase, second: Phase | None, checks: Checks) -> dict:
        names = ("rank", "kernel", "validate_sqs", "weight-4 supports", "aut_order")
        for phase in (first, second) if second else (first,):
            for tau, out in phase.outputs:
                for name, ok in zip(names, out):
                    checks.expect(ok, f"{tau.images}: {name} oracle disagrees")
        return {}


WORKLOADS = {
    "census-r3-cli": CensusR3Cli,
    "census-r4-slice": CensusR4Slice,
    "classify-r4-random": ClassifyR4Random,
    "oracles-r3": OraclesR3,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(perfcode.__file__).resolve().parent != ROOT / "src" / "perfcode":
        print(f"perfcode imported from {perfcode.__file__}, not from this checkout", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        work = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke, workdir)
        setup = work.setup()
        setup_raw_s = time.perf_counter() - _T0
        # set-up is interpreted code (imports, the pure-Python enumeration tables)
        setup_s = setup_raw_s * 2 * KERNELS["py"][1] / (_PY_BEFORE + _fastest(_python_kernel))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        first = work.run(NullProbe())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        second = layers = None
        if args.trace:
            tracer = Tracer()
            with tracer.hooks():
                second = work.run(tracer)
            layers = layer_metrics(tracer, setup, second.clock.norm, first.clock.norm)
        checks = Checks()
        facts = work.check(first, second, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_raw_s": setup_raw_s,
                "setup": setup,
                "sizes": work.sizes(),
                "items": first.items,
                "wall_s": first.clock.norm,
                "raw_wall_s": first.clock.raw,
                "ref_ms": {k: 1000 * float(np.median([r[k] for r in first.clock.refs])) for k in KERNELS},
                "stages": first.stages,
                "peak_rss_mb": peak_rss_mb,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "failures": checks.failures,
                "facts": facts,
                "layers": layers,
                "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Exit codes: 0 success, 1 validation failure (enum-regular and catalog-taus
at an r outside {3, 4} included, no output), 2 budget exhaustion (a spent
time budget, partial output written, or a size beyond the implementation's
limit, no output), 3 malformed input, usage errors included.  The default
time budget of the enumeration commands is PERFCODE_BUDGET_SECONDS.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

from . import io as pio
from .classify import classify_catalog, composed_series, tau_id_string, transitivity_report
from .codes import ExplicitCode, explicit_materialize, extended_hamming, stats_coset_union
from .constructions import build_s_tau, hadamard_a_tau, mollard
from .errors import BudgetExceeded, MalformedInput, PerfcodeError
from .regular_groups import catalog_taus, enumerate_regular_subgroups
from .sqs import sqs_from_tau, validate_sqs


def _budget(args) -> float | None:
    """--budget-seconds, else a non-empty PERFCODE_BUDGET_SECONDS, else None; `inf`
    is none, and a non-number or NaN (a deadline no clock passes) is malformed."""
    raw = args.budget_seconds
    if raw is None and not (raw := os.environ.get("PERFCODE_BUDGET_SECONDS")):
        return None
    try:
        if not math.isnan(seconds := float(raw)):
            return seconds
    except ValueError:
        pass
    raise MalformedInput(f"budget must be a number of seconds, got {raw!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors are malformed input, exit 3: 2 means budget exhaustion."""
        self.exit(3, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _check_out(path) -> None:
    """Raise, before any work, the error that open(path, "w") would raise after
    it when path is empty, a directory, too long, through a file, or in no existing directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        os.stat(path)  # fails here with ENAMETOOLONG or ENOTDIR, as open() would
    except FileNotFoundError:
        pass
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_hamming(args) -> int:
    pio.save_code_file(args.out, extended_hamming(args.r))
    print(f"wrote extended Hamming code of length {1 << args.r} to {args.out}")
    return 0


def cmd_build_stau(args) -> int:
    tau = pio.load_point_perm(args.tau)
    code = build_s_tau(tau)
    pio.save_code_file(args.out, explicit_materialize(code) if args.materialize else code)
    print(f"wrote S_tau (r={tau.r}, length {code.length}) to {args.out}")
    return 0


def cmd_sqs(args) -> int:
    tau = pio.load_point_perm(args.tau)
    q = sqs_from_tau(tau)
    pio.save_sqs(args.out, q)
    print(f"wrote SQS of order {q.order} with {len(q.quadruples)} quadruples to {args.out}")
    return 0


def cmd_check_sqs(args) -> int:
    q = pio.load_sqs(args.infile)
    violation = validate_sqs(q)
    if violation is None:
        print(f"v={q.order} b={len(q.quadruples)} valid")
        return 0
    print(
        f"triple {violation.triple} covered {violation.count} times (expected 1)",
        file=sys.stderr,
    )
    return 1


def cmd_stats(args) -> int:
    tau = pio.load_point_perm(args.tau)
    stats = stats_coset_union(build_s_tau(tau), tau)
    print(f"n={2 << tau.r} size=2^{stats.size.bit_length() - 1}")
    print(f"rank={stats.rank}")
    print(f"kernel_dim={stats.kernel_dim}")
    print(f"min_distance={stats.min_distance}")
    return 0


def cmd_enum_regular(args) -> int:
    # kept until the DFS ends: the file's header says whether it is complete
    groups = []
    complete = True
    try:
        for group in enumerate_regular_subgroups(args.r, budget_seconds=_budget(args)):
            groups.append(group)
    except BudgetExceeded:
        complete = False
    pio.save_groups(args.out, args.r, groups, complete)
    status = "complete" if complete else "partial"
    print(f"wrote {len(groups)} regular subgroups ({status}) to {args.out}")
    return 0 if complete else 2


def cmd_catalog_taus(args) -> int:
    catalog = catalog_taus(args.r, budget_seconds=_budget(args))
    pio.save_tau_catalog(args.out, catalog)
    status = "complete" if catalog.complete else "partial"
    print(f"wrote {len(catalog)} distinct taus ({status}) to {args.out}")
    return 0 if catalog.complete else 2


def cmd_classify(args) -> int:
    catalog = pio.load_tau_catalog(args.catalog)
    entries = classify_catalog(catalog)
    emit = pio.emit_catalog_json if args.format == "json" else pio.emit_catalog_csv
    with open(args.out, "w") as fh:
        fh.write(emit(entries))
    classes = len(entries.classes)
    status = "" if catalog.complete else " of a partial catalog"
    print(f"classified {len(entries)} entries{status} into {classes} classes -> {args.out}")
    return 0 if catalog.complete else 2


def cmd_report(args) -> int:
    tau = pio.load_point_perm(args.tau)
    rep = transitivity_report(tau)
    print(f"tau_id={tau_id_string(tau)}")
    print(f"coordinate_transitive={'true' if rep.coordinate_transitive else 'false'}")
    print(f"transitive={rep.transitive}")
    print(f"neighbor_transitive={'true' if rep.neighbor_transitive else 'false'}")
    return 0


def cmd_series(args) -> int:
    tau, rep, entry = composed_series(args.r)
    print(f"tau_id={entry.tau_id}")
    print(f"length={2 << args.r}")
    print(f"rank={entry.rank}")
    print(f"kernel_dim={entry.kernel_dim}")
    print(f"non_mollard={'true' if entry.non_mollard else 'false'}")
    print(f"neighbor_transitive={'true' if rep.neighbor_transitive else 'false'}")
    return 0


def cmd_hadamard(args) -> int:
    tau = pio.load_point_perm(args.tau)
    code = hadamard_a_tau(tau)
    pio.save_code_file(args.out, code.words)
    print(f"wrote Hadamard analog ({code.words.size} words, length {code.words.length}) to {args.out}")
    return 0


def cmd_mollard(args) -> int:
    def factor(length: int) -> ExplicitCode:
        if length < 2 or length & (length - 1):
            raise MalformedInput(f"factor length {length} is not a power of two >= 2")
        code = extended_hamming(length.bit_length() - 1)
        return ExplicitCode(code.length, tuple(code.words()))

    m_code = mollard(factor(args.t), factor(args.m))
    words = m_code.materialize()
    pio.save_code_file(args.out, words)
    print(f"wrote Mollard code ({words.size} words, length {words.length}) to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perfcode",
        description="Extended perfect propelinear codes, their SQS, and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hamming", help="write an extended Hamming code")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hamming)

    p = sub.add_parser("build-stau", help="build S_tau from a permutation file")
    p.add_argument("--tau", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--materialize", action="store_true")
    p.set_defaults(func=cmd_build_stau)

    p = sub.add_parser("sqs", help="write SQS_tau")
    p.add_argument("--tau", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sqs)

    p = sub.add_parser("check-sqs", help="validate an SQS file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check_sqs)

    p = sub.add_parser("stats", help="rank/kernel statistics of S_tau")
    p.add_argument("--tau", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enum-regular", help="enumerate regular subgroups of GA(r,2)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget-seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enum_regular)

    p = sub.add_parser("catalog-taus", help="catalog induced permutations")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget-seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog_taus)

    p = sub.add_parser("classify", help="classify a tau catalog")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="transitivity report for one permutation")
    p.add_argument("--tau", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("series", help="composed neighbor transitive non-Mollard code")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("hadamard", help="build the Hadamard analog A_tau")
    p.add_argument("--tau", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("mollard", help="build a Mollard code from Hamming factors")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mollard)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            _check_out(args.out)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (MalformedInput, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # a failed read or write, not a command-line path
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3
    except (PerfcodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

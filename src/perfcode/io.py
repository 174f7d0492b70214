"""File formats: permutations and matrices (JSON), code files, SQS files,
regular-subgroup files, tau catalogs, and classification output (JSON/CSV).

Bitstring convention: the leftmost character of a row or word string is
coordinate 0 (column 1); so "110" encodes the integer 0b011 = 3.
"""

from __future__ import annotations

import csv
import io as _io
import json
from itertools import chain

import numpy as np

from .algebra import BitMatrix, PointPerm
from .classify import CatalogEntry
from .codes import CosetUnionCode, ExplicitCode, LinearCode
from .errors import MalformedInput
from .regular_groups import ENUM_MAX_R, ENUM_MIN_R, RegularSubgroup, TauCatalog
from .sqs import SQS


def row_to_string(row: int, width: int) -> str:
    return "".join("1" if (row >> j) & 1 else "0" for j in range(width))


def string_to_row(s: str) -> int:
    if not s or any(ch not in "01" for ch in s):
        raise MalformedInput(f"bad bitstring {s!r}")
    return sum(1 << j for j, ch in enumerate(s) if ch == "1")


def _read_text(path, what: str) -> str:
    """The text of a file; bytes that do not decode are malformed input."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"bad {what}: {exc}") from exc


def _decode_json(text: str, what: str, convert):
    """convert(the JSON value of text).  Text that is not JSON, nests past
    the parser's recursion limit, or has a missing key or a value of the
    wrong type or range is malformed input."""
    try:
        return convert(json.loads(text))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise MalformedInput(f"bad {what}: {exc}") from exc


def _load_json(path, what: str, convert):
    return _decode_json(_read_text(path, what), what, convert)


def matrix_to_strings(m: BitMatrix) -> list[str]:
    return [row_to_string(row, m.cols) for row in m.row_bits]


def matrix_from_strings(rows: list[str]) -> BitMatrix:
    widths = {len(s) for s in rows}
    if len(widths) != 1:
        raise MalformedInput("matrix rows have inconsistent widths")
    return BitMatrix(len(rows), widths.pop(), tuple(string_to_row(s) for s in rows))


# ---------------------------------------------------------------------------
# PointPerm JSON
# ---------------------------------------------------------------------------


def dump_point_perm(tau: PointPerm) -> str:
    return json.dumps({"r": tau.r, "perm": list(tau.images)}, separators=(",", ":"))


def _point_perm_from_obj(obj) -> PointPerm:
    r, images = int(obj["r"]), tuple(int(x) for x in obj["perm"])
    # checked before PointPerm forms 1 << r, which a huge r makes huge
    if len(images).bit_length() != r + 1:
        raise ValueError(f"{len(images)} images do not fit r={r}")
    return PointPerm(r, images)


def parse_point_perm(text: str) -> PointPerm:
    return _decode_json(text, "permutation file", _point_perm_from_obj)


def save_point_perm(path, tau: PointPerm) -> None:
    with open(path, "w") as fh:
        fh.write(dump_point_perm(tau) + "\n")


def load_point_perm(path) -> PointPerm:
    return _load_json(path, "permutation file", _point_perm_from_obj)


# ---------------------------------------------------------------------------
# Code files
# ---------------------------------------------------------------------------


def save_code_file(path, code) -> None:
    """Write a code file: header "n=<length> k=<log2 size>", then either
    explicit 0/1 word lines, or a "G" generator section optionally
    followed by an "R" representative section (coset-union codes)."""
    lines = []
    if isinstance(code, ExplicitCode):
        k = code.size.bit_length() - 1
        if 1 << k != code.size:
            raise ValueError("explicit code size is not a power of two")
        lines.append(f"n={code.length} k={k}")
        lines.extend(row_to_string(w, code.length) for w in code.words)
    elif isinstance(code, CosetUnionCode):
        k = code.r + code.base.dim
        lines.append(f"n={code.length} k={k}")
        lines.append("G")
        lines.extend(row_to_string(w, code.length) for w in code.base.generators.row_bits)
        lines.append("R")
        lines.extend(row_to_string(w, code.length) for w in code.reps)
    elif isinstance(code, LinearCode):
        lines.append(f"n={code.length} k={code.dim}")
        lines.append("G")
        lines.extend(row_to_string(w, code.length) for w in code.generators.row_bits)
    else:
        raise TypeError(f"cannot serialize {type(code).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_code_file(path):
    """Inverse of save_code_file; the section structure picks the type.
    Every row must be n bits long, and explicit words must not repeat."""
    lines = [ln.strip() for ln in _read_text(path, "code file").split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise MalformedInput("missing code header")
    try:
        fields = dict(part.split("=") for part in lines[0].split())
        n = int(fields["n"])
    except (ValueError, KeyError) as exc:
        raise MalformedInput(f"bad code header: {lines[0]!r}") from exc
    body = lines[1:]
    if not body:
        raise MalformedInput("empty code file")

    def rows(strings) -> list[int]:
        out = [string_to_row(s) for s in strings]
        if any(len(s) != n for s in strings):
            raise MalformedInput(f"row length does not match the header n={n}")
        return out

    if body[0] != "G":
        words = rows(body)
        if len(set(words)) != len(words):
            raise MalformedInput("explicit code repeats a word")
        return ExplicitCode(n, tuple(sorted(words)))
    r_idx = body.index("R") if "R" in body else len(body)
    gens = rows(body[1:r_idx])
    base = LinearCode(n, BitMatrix(len(gens), n, tuple(gens)))
    if r_idx == len(body):
        return base
    reps = rows(body[r_idx + 1 :])
    r = len(reps).bit_length() - 1
    if not reps or 1 << r != len(reps) or n != 2 << r:
        raise MalformedInput("coset-union sections do not match the header")
    return CosetUnionCode(r=r, base=base, reps=tuple(reps))


# ---------------------------------------------------------------------------
# SQS files
# ---------------------------------------------------------------------------


def save_sqs(path, q: SQS) -> None:
    """Canonical on-disk form: sorted quadruple lines (golden-test stable)."""
    quads = sorted(q.quadruples)
    with open(path, "w") as fh:
        fh.write(f"v={q.order} b={len(quads)}\n")
        for quad in quads:
            fh.write(" ".join(str(p) for p in quad) + "\n")


def load_sqs(path) -> SQS:
    lines = [ln.strip() for ln in _read_text(path, "SQS file").split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("v="):
        raise MalformedInput("missing SQS header")
    try:
        fields = dict(part.split("=") for part in lines[0].split())
        v, b = int(fields["v"]), int(fields["b"])
    except (ValueError, KeyError) as exc:
        raise MalformedInput(f"bad SQS header: {lines[0]!r}") from exc
    if v <= 0:
        raise MalformedInput(f"bad SQS header: order must be positive, got {v}")
    quads = set()
    for ln in lines[1:]:
        try:
            quad = tuple(sorted(int(x) for x in ln.split()))
        except ValueError as exc:
            raise MalformedInput(f"bad quadruple line {ln!r}") from exc
        if len(quad) != 4:
            raise MalformedInput(f"bad quadruple line {ln!r}")
        if quad[0] < 0 or quad[3] >= v or len(set(quad)) != 4:
            raise MalformedInput(f"quadruple {ln!r} needs four distinct points in [0, {v})")
        quads.add(quad)
    if len(quads) != b:
        raise MalformedInput(f"header claims {b} quadruples, file has {len(quads)}")
    return SQS(order=v, quadruples=frozenset(quads))


# ---------------------------------------------------------------------------
# Regular-subgroup files
# ---------------------------------------------------------------------------


def group_to_obj(group: RegularSubgroup) -> dict:
    return {
        "r": group.r,
        "mats": {str(a): matrix_to_strings(m) for a, m in enumerate(group.mats)},
    }


def group_from_obj(obj: dict) -> RegularSubgroup:
    try:
        r = int(obj["r"])
        mats = tuple(
            matrix_from_strings(obj["mats"][str(a)]) for a in range(1 << r)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad group object: {exc}") from exc
    return RegularSubgroup(r=r, mats=mats)


def save_groups(path, r: int, groups, complete: bool) -> None:
    obj = {"r": r, "complete": complete, "groups": [group_to_obj(g) for g in groups]}
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def load_groups(path):
    return _load_json(path, "groups file", lambda obj: (
        int(obj["r"]), bool(obj["complete"]), [group_from_obj(g) for g in obj["groups"]]
    ))


# ---------------------------------------------------------------------------
# Tau catalogs
# ---------------------------------------------------------------------------


def save_tau_catalog(path, catalog: TauCatalog) -> None:
    """Complete: a JSON list of {"tau": [...], "r":, "group_id":, "aut_id":}.  Partial:
    {"r":, "complete": false, "taus": <list>}, which no reader of bare lists takes as complete."""
    with open(path, "w") as fh:
        if not catalog.complete:
            fh.write(f'{{"r":{catalog.r},"complete":false,"taus":')
        fh.write("[")
        for i in range(len(catalog)):
            if i:
                fh.write(",")
            gid, aid = catalog.provenance(i)
            images = [int(x) for x in catalog.images[i]]
            fh.write(
                json.dumps(
                    {"tau": images, "r": catalog.r, "group_id": gid, "aut_id": aid},
                    separators=(",", ":"),
                )
            )
        fh.write("]\n" if catalog.complete else "]}\n")


def load_tau_catalog(path) -> TauCatalog:
    """Inverse of save_tau_catalog (a bare list must not be empty); every row
    must be a zero-fixing permutation of F^r with r in {3, 4}.  Every tau is
    a list of integers, the ids are integers in [0, 2^63) and `complete` is
    a boolean; JSON that merely converts to these is malformed."""
    return _load_json(path, "tau catalog", _tau_catalog_from_obj)


def _tau_catalog_from_obj(obj) -> TauCatalog:
    if isinstance(obj, list):
        if not obj:
            raise ValueError("catalog must be a non-empty list")
        items, r, complete = obj, obj[0]["r"], True
    else:
        items, r, complete = obj["taus"], obj["r"], obj["complete"]
        if type(complete) is not bool:
            raise ValueError(f"complete must be true or false, got {complete!r}")
    if type(items) is not list:
        raise ValueError("taus must be a list")
    taus = [it["tau"] for it in items]
    if not set(map(type, taus)) <= {list}:
        raise ValueError("every tau must be a list")
    gids = [it["group_id"] for it in items]
    aids = [it["aut_id"] for it in items]
    numbers = chain([r], (it["r"] for it in items), gids, aids, chain.from_iterable(taus))
    if not set(map(type, numbers)) <= {int}:  # bool, float and str are not int
        raise ValueError("r, the ids and the images must be integers")
    if items and not (0 <= min(gids + aids) and max(gids + aids) < 1 << 63):
        raise ValueError("ids must lie in [0, 2^63)")
    images = np.array(taus, dtype=np.int64)
    if any(it["r"] != r for it in items):
        raise ValueError("mixed r in catalog")
    if r not in (ENUM_MIN_R, ENUM_MAX_R):
        raise ValueError(f"r must be {ENUM_MIN_R} or {ENUM_MAX_R}, got {r}")
    n = 1 << r
    images = images.reshape(-1, n) if images.size == 0 else images
    if images.shape != (len(items), n):
        raise ValueError(f"every tau needs {n} images")
    if ((images < 0) | (images >= n)).any() or images[:, 0].any():
        raise ValueError(f"images must lie in [0, {n}) and fix 0")
    images = images.astype(np.int8)
    if (np.sort(images, axis=1) != np.arange(n, dtype=np.int8)).any():
        raise ValueError("a tau repeats an image")
    return TauCatalog(r, images, gids, aids, complete=complete)


# ---------------------------------------------------------------------------
# Classification output
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "tau_id",
    "r",
    "rank",
    "kernel_dim",
    "intersection_dim",
    "point_transitive",
    "aut_order",
    "class_id",
    "non_mollard",
    "provenance",
]


def _entry_obj(e: CatalogEntry) -> dict:
    return {c: getattr(e, c) for c in CSV_COLUMNS}


def emit_catalog_json(entries: list[CatalogEntry]) -> str:
    return json.dumps([_entry_obj(e) for e in entries], separators=(",", ":")) + "\n"


# the JSON types of the columns: bool is not int here, and aut_order is
# null where no order is reported
_COLUMN_TYPES = (
    (("tau_id", "provenance"), {str}, "a string"),
    (("r", "rank", "kernel_dim", "intersection_dim", "class_id"), {int}, "an integer"),
    (("point_transitive", "non_mollard"), {bool}, "true or false"),
    (("aut_order",), {int, type(None)}, "an integer or null"),
)


def _entries_from_obj(items) -> list[CatalogEntry]:
    if type(items) is not list:
        raise ValueError("classification JSON must be a list")
    for cols, types, what in _COLUMN_TYPES:
        for col in cols:
            if not {type(it[col]) for it in items} <= types:
                raise ValueError(f"{col} must be {what}")
    return [CatalogEntry(**{col: it[col] for col in CSV_COLUMNS}) for it in items]


def parse_catalog_json(text: str) -> list[CatalogEntry]:
    """Inverse of emit_catalog_json.  Every field must have its JSON type;
    values that merely convert to it (the string "false" for a flag, 8.9
    for a dimension) are malformed."""
    return _decode_json(text, "classification JSON", _entries_from_obj)


def emit_catalog_csv(entries: list[CatalogEntry]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        obj = _entry_obj(e)
        row = []
        for col in CSV_COLUMNS:
            val = obj[col]
            if isinstance(val, bool):
                row.append("true" if val else "false")
            elif val is None:
                row.append("")
            else:
                row.append(str(val))
        writer.writerow(row)
    return buf.getvalue()

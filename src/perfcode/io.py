"""File formats: permutations and matrices (JSON), code files, SQS files,
regular-subgroup files, tau catalogs, and classification output (JSON/CSV).

Bitstring convention: the leftmost character of a row or word string is
coordinate 0 (column 1); so "110" encodes the integer 0b011 = 3.

Every reader raises MalformedInput on input outside its format's schema.
JSON values must have their JSON types: "false" is not a flag, and true or
3.9 is not an integer.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import json
import re
from collections.abc import Sequence
from itertools import chain
from typing import get_args, get_type_hints

import numpy as np

from .algebra import BitMatrix, PointPerm, rows_are_perms
from .classify import CatalogEntry, Classification
from .codes import CosetUnionCode, ExplicitCode, LinearCode
from .errors import MalformedInput
from .regular_groups import RegularSubgroup, TauCatalog, check_census_r
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


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               bool: "true or false", type(None): "null"}


def _require(values, types: set, what: str) -> None:
    """Raise ValueError unless the type of every value, as json.loads gives
    it, is in types: bool is not int here, and neither is float."""
    if not set(map(type, values)) <= types:
        raise ValueError(f"{what} must be " + " or ".join(sorted(_JSON_NAMES[t] for t in types)))


def _read_headed(path, what: str, keys: str) -> tuple[list[int], list[str]]:
    """(header values, other non-blank lines) of a text file whose first line
    gives exactly the one-letter keys, in order, decimal values: "n=8 k=4"."""
    lines = [ln.strip() for ln in _read_text(path, what).split("\n") if ln.strip()] or [""]
    header = re.fullmatch(r"\s+".join(f"{k}=([0-9]+)" for k in keys), lines[0])
    if header is None:
        raise MalformedInput(f"bad {what} header {lines[0]!r}, expected {' '.join(k + '=<int>' for k in keys)!r}")
    return [int(v) for v in header.groups()], lines[1:]


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
    r, images = obj["r"], obj["perm"]
    _require([r], {int}, "r")
    _require([images], {list}, "perm")
    _require(images, {int}, "every image")
    # checked before PointPerm forms 1 << r, which a huge r makes huge
    if len(images).bit_length() != r + 1:
        raise ValueError(f"{len(images)} images do not fit r={r}")
    return PointPerm(r, tuple(images))


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


def _code_k(code) -> int | None:
    """log2 of the code's size, None for an explicit code whose size is not
    a power of two (an empty one's is 0)."""
    if not isinstance(code, (ExplicitCode, CosetUnionCode, LinearCode)):
        raise TypeError(f"cannot serialize {type(code).__name__}")
    k = code.size.bit_length() - 1
    return k if k >= 0 and 1 << k == code.size else None


def save_code_file(path, code) -> None:
    """Write a code file: header "n=<length> k=<log2 size>", then either
    explicit 0/1 word lines, or a "G" generator section optionally
    followed by an "R" representative section (coset-union codes)."""
    if (k := _code_k(code)) is None:
        raise ValueError("explicit code size is not a power of two")

    def rows(words) -> list[str]:
        return [row_to_string(w, code.length) for w in words]

    lines = [f"n={code.length} k={k}"]
    if isinstance(code, ExplicitCode):
        lines += rows(code.words)
    elif isinstance(code, CosetUnionCode):
        lines += ["G", *rows(code.base.generators.row_bits), "R", *rows(code.reps)]
    else:
        lines += ["G", *rows(code.generators.row_bits)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_code_file(path):
    """Inverse of save_code_file; the section structure picks the type.  Every
    row is n bits long, explicit words do not repeat, and there are 2^k words."""
    (n, k), body = _read_headed(path, "code file", "nk")

    def rows(strings) -> list[int]:
        out = [string_to_row(s) for s in strings]
        if any(len(s) != n for s in strings):
            raise MalformedInput(f"row length does not match the header n={n}")
        return out

    if body[:1] != ["G"]:
        words = rows(body)
        if len(set(words)) != len(words):
            raise MalformedInput("explicit code repeats a word")
        code = ExplicitCode(n, tuple(sorted(words)))
    else:
        r_idx = body.index("R") if "R" in body else len(body)
        gens = rows(body[1:r_idx])
        code = LinearCode(n, BitMatrix(len(gens), n, tuple(gens)))
        if r_idx < len(body):
            reps = rows(body[r_idx + 1 :])
            r = len(reps).bit_length() - 1
            if not reps or 1 << r != len(reps) or n != 2 << r:
                raise MalformedInput("coset-union sections do not match the header")
            code = CosetUnionCode(r=r, base=code, reps=tuple(reps))
    if _code_k(code) != k:
        raise MalformedInput(f"header k={k} does not match a code of {code.size} words")
    return code


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
    (v, b), body = _read_headed(path, "SQS file", "vb")
    if v <= 0:
        raise MalformedInput(f"bad SQS header: order must be positive, got {v}")
    quads = set()
    for ln in body:
        if not re.fullmatch(r"[0-9]+(\s+[0-9]+){3}", ln):
            raise MalformedInput(f"bad quadruple line {ln!r}")
        quad = tuple(sorted(map(int, ln.split())))
        if quad[3] >= v or len(set(quad)) != 4:
            raise MalformedInput(f"quadruple {ln!r} needs four distinct points in [0, {v})")
        if quad in quads:
            raise MalformedInput(f"quadruple {ln!r} repeats an earlier line")
        quads.add(quad)
    if len(body) != b:
        raise MalformedInput(f"header claims {b} quadruples, file has {len(body)}")
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
    """Inverse of group_to_obj: an r x r matrix of row bitstrings under each key "0" .. "2^r - 1"."""
    r, mats = obj["r"], obj["mats"]
    _require([r], {int}, "a group's r")
    _require([mats], {dict}, "mats")
    # the count is checked before 1 << r is formed, which a huge r makes huge
    if len(mats).bit_length() != r + 1 or set(mats) != {str(a) for a in range(1 << r)}:
        raise ValueError(f"mats must have exactly the keys 0 .. 2^{r} - 1")
    _require(mats.values(), {list}, "every matrix")
    _require(chain.from_iterable(mats.values()), {str}, "every row")
    mats = tuple(matrix_from_strings(mats[str(a)]) for a in range(1 << r))
    if any((m.rows, m.cols) != (r, r) for m in mats):
        raise ValueError(f"every matrix must be {r} x {r}")
    return RegularSubgroup(r=r, mats=mats)


def save_groups(path, r: int, groups, complete: bool) -> None:
    """A groups file: the bytes of `json.dump` in compact form, written one
    group at a time."""
    with open(path, "w") as fh:
        fh.write(f'{{"r":{r},"complete":{json.dumps(complete)},"groups":[')
        for i, group in enumerate(groups):
            if i:
                fh.write(",")
            fh.write(json.dumps(group_to_obj(group), separators=(",", ":")))
        fh.write("]}\n")


def _groups_from_obj(obj):
    r, complete, groups = obj["r"], obj["complete"], obj["groups"]
    _require([r], {int}, "r")
    _require([complete], {bool}, "complete")
    _require([groups], {list}, "groups")
    check_census_r(r)
    groups = [group_from_obj(g) for g in groups]
    if any(g.r != r for g in groups):
        raise ValueError(f"every group must have the file's r={r}")
    return r, complete, groups


def load_groups(path):
    """(r, complete, groups), the inverse of save_groups; every group has the file's r."""
    return _load_json(path, "groups file", _groups_from_obj)


# ---------------------------------------------------------------------------
# Tau catalogs
# ---------------------------------------------------------------------------


_CATALOG_BLOCK_ROWS = 8192
_CATALOG_READ_BYTES = 1 << 20  # a block of the reader: about 12,000 rows at r=4
_PARTIAL_HEAD = b'{"r":%d,"complete":false,"taus":['
_DIGITS_ONLY = bytes(c if 48 <= c < 58 else 32 for c in range(256))  # every other byte a space


def _render_rows(r: int, images, group_ids, aut_ids) -> bytes:
    """The rows as save_tau_catalog writes them, each after a ",": the row template
    in a byte matrix, each image's digits and comma filled in from a lookup
    table, each id's d digits, and a keep mask that drops leading zeros."""
    n, w, m = 1 << r, len(str((1 << r) - 1)), len(images)
    ids = np.stack((group_ids, aut_ids))[:, :, None]
    powers = 10 ** np.arange(len(str(ids.max(initial=0))) - 1, -1, -1, dtype=np.int64)
    head, mid, d = ',{"tau":[', f'],"r":{r},"group_id":', len(powers)
    template = head + ",".join(["0" * w] * n) + mid + "0" * d + ',"aut_id":' + "0" * d + "}"
    fields = np.frombuffer("".join(f"{v:0{w}d}," for v in range(n)).encode(), f"V{w + 1}")
    mat = np.tile(np.frombuffer(template.encode(), np.uint8), (m, 1))
    cols = slice(len(head), len(head) + (w + 1) * n)
    mat[:, cols] = np.take(fields, images).view(np.uint8).reshape(m, -1)
    mat[:, cols.stop - 1] = ord("]")  # the last image's comma ends the list
    keep = mat != ord("0")  # the template has no "0" outside its numbers
    keep[:, cols.start + w - 1 : cols.stop : w + 1] = True  # an image's last digit
    for i, start in enumerate((cols.stop - 1 + len(mid), len(template) - 1 - d)):
        mat[:, start : start + d] = ids[i] // powers % 10 + 48
        keep[:, start : start + d] = ids[i] >= np.append(powers[:-1], 0)
    return mat[keep].tobytes()


def save_tau_catalog(path, catalog: TauCatalog) -> None:
    """Complete: a JSON list of {"tau": [...], "r":, "group_id":, "aut_id":}.  Partial:
    {"r":, "complete": false, "taus": <list>}, which no reader of bare lists takes as complete.
    Rows are rendered a block at a time, in json.dumps' compact form.  A complete census is
    never empty, and an empty bare list would not load back: that catalog is refused."""
    if catalog.complete and not len(catalog):
        raise ValueError("a complete catalog is never empty")
    with open(path, "wb") as fh:
        fh.write(b"[" if catalog.complete else _PARTIAL_HEAD % catalog.r)
        for start in range(0, len(catalog), _CATALOG_BLOCK_ROWS):
            rows = slice(start, start + _CATALOG_BLOCK_ROWS)
            block = _render_rows(catalog.r, catalog.images[rows], catalog.group_ids[rows], catalog.aut_ids[rows])
            fh.write(block[1:] if start == 0 else block)
        fh.write(b"]\n" if catalog.complete else b"]}\n")


def load_tau_catalog(path) -> TauCatalog:
    """Inverse of save_tau_catalog (a bare list must not be empty); every row
    must be a zero-fixing permutation of F^r with r in {3, 4}, and the ids
    lie in [0, 2^63).  Any JSON of that schema is read.  The writer's own
    rows, after its head and before its tail with any trailing JSON
    whitespace (space, tab, newline, carriage return), are read in numpy, to
    the same result, in blocks of at most _CATALOG_READ_BYTES: parsed,
    checked, rendered again and compared.  So is json.dumps' compact form
    of the same list, whose rows are the writer's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        complete = data.startswith(b"[")
        # r from a bare list's first image count, or from a partial catalog's head
        r = (data.count(b",", 0, data.find(b"]")) + 1).bit_length() - 1 if complete else int(data[5:6])
        check_census_r(r)  # the JSON reader below names the size it refuses
        head, tail = (b"[", b"]") if complete else (_PARTIAL_HEAD % r, b"]}")
        stop = len(data)
        while stop and data[stop - 1] in b" \t\n\r":  # bytes.rstrip() would copy, and drop \x0b and \x0c too
            stop -= 1
        n, pos, stop, blocks = 1 << r, len(head), stop - len(tail), []
        if not data.startswith(head) or not data.startswith(tail, stop) or stop <= pos:
            raise ValueError("not a catalog file of the writer")
        while pos < stop:
            end = stop if stop - pos <= _CATALOG_READ_BYTES else data.rfind(b"}", pos, pos + _CATALOG_READ_BYTES) + 1
            values = np.fromstring(data[pos:end].translate(_DIGITS_ONLY), np.int64, sep=" ").reshape(-1, n + 3)
            images, group_ids, aut_ids = _checked_images(values[:, :n], n), values[:, n + 1], values[:, n + 2]
            # each rendered row starts with a comma; the file's first row follows the head
            if end <= pos or _render_rows(r, images, group_ids, aut_ids)[pos == len(head) :] != data[pos:end]:
                raise ValueError(f"bytes {pos} to {end} are not the writer's")
            blocks.append((images, group_ids.copy(), aut_ids.copy()))
            pos = end
        return TauCatalog(r, *map(np.concatenate, zip(*blocks)), complete=complete)
    except ValueError:  # not the writer's bytes of a valid catalog: drop them, read as JSON
        data = blocks = None
    return _load_json(path, "tau catalog", _tau_catalog_from_obj)


def _checked_images(images: np.ndarray, n: int) -> np.ndarray:
    """The rows as int8, once each is a permutation of range(n) that fixes 0."""
    if ((images < 0) | (images >= n)).any() or images[:, 0].any():
        raise ValueError(f"images must lie in [0, {n}) and fix 0")
    if not rows_are_perms(images, n):
        raise ValueError("a tau repeats an image")
    return images.astype(np.int8)


def _tau_catalog_from_obj(obj) -> TauCatalog:
    if isinstance(obj, list):
        if not obj:
            raise ValueError("catalog must be a non-empty list")
        items, r, complete = obj, obj[0]["r"], True
    else:
        items, r, complete = obj["taus"], obj["r"], obj["complete"]
        _require([complete], {bool}, "complete")
    _require([items], {list}, "taus")
    taus = [it["tau"] for it in items]
    _require(taus, {list}, "every tau")
    gids = [it["group_id"] for it in items]
    aids = [it["aut_id"] for it in items]
    numbers = chain([r], (it["r"] for it in items), gids, aids, chain.from_iterable(taus))
    _require(numbers, {int}, "each of r, the ids and the images")
    if items and not (0 <= min(gids + aids) and max(gids + aids) < 1 << 63):
        raise ValueError("ids must lie in [0, 2^63)")
    images = np.array(taus, dtype=np.int64)
    if any(it["r"] != r for it in items):
        raise ValueError("mixed r in catalog")
    check_census_r(r)
    n = 1 << r
    images = images.reshape(-1, n) if images.size == 0 else images
    if images.shape != (len(items), n):
        raise ValueError(f"every tau needs {n} images")
    return TauCatalog(r, _checked_images(images, n), gids, aids, complete=complete)


# ---------------------------------------------------------------------------
# Classification output
# ---------------------------------------------------------------------------

CSV_COLUMNS = [f.name for f in dataclasses.fields(CatalogEntry)]


def emit_catalog_json(entries: Sequence[CatalogEntry]) -> str:
    """The compact json.dumps of the entries as objects.  A Classification is
    formatted from its columns, each middle tuple once, with json.dumps'
    string encoder for its tau ids and provenances; other entries are
    written by one json.dumps call."""
    if not isinstance(entries, Classification):
        return json.dumps([{col: getattr(e, col) for col in CSV_COLUMNS} for e in entries], separators=(",", ":")) + "\n"
    tau_ids, middles, keys, provenance = entries.columns()
    fields = [json.dumps(dict(zip(CSV_COLUMNS[1:-1], m)), separators=(",", ":"))[1:-1] for m in middles]
    quote = json.encoder.encode_basestring_ascii
    objs = (f'{{"tau_id":{quote(t)},{fields[k]},"provenance":{quote(p)}}}' for t, k, p in zip(tau_ids, keys, provenance))
    return f"[{','.join(objs)}]\n"


def _entries_from_obj(items) -> list[CatalogEntry]:
    _require([items], {list}, "classification JSON")
    for col, hint in get_type_hints(CatalogEntry).items():
        # an optional column, int | None, takes null as well
        _require([it[col] for it in items], set(get_args(hint)) or {hint}, col)
    return [CatalogEntry(**{col: it[col] for col in CSV_COLUMNS}) for it in items]


def parse_catalog_json(text: str) -> list[CatalogEntry]:
    """Inverse of emit_catalog_json; every field has the JSON type of its
    CatalogEntry field."""
    return _decode_json(text, "classification JSON", _entries_from_obj)


def _csv_text(row) -> str:
    """One row as the emitter's csv.writer writes it, without its line end."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()[:-1]


def _cells(values) -> tuple:
    """Flags are written true/false; csv writes a null aut_order as ""."""
    return tuple(str(v).lower() if isinstance(v, bool) else v for v in values)


def emit_catalog_csv(entries: Sequence[CatalogEntry]) -> str:
    """The csv.writer rows of the entries.  A Classification is formatted
    from its columns, each middle tuple once: its tau ids and provenances
    never need quoting.  Other entries are written by one writerows call."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    if isinstance(entries, Classification):
        tau_ids, middles, keys, provenance = entries.columns()
        fields = [_csv_text(("", *_cells(m), "")) for m in middles]  # ",<cells>,"
        buf.writelines(f"{t}{fields[k]}{p}\n" for t, k, p in zip(tau_ids, keys, provenance))
    else:
        writer.writerows(_cells(getattr(e, col) for col in CSV_COLUMNS) for e in entries)
    return buf.getvalue()

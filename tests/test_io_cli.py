import csv
import errno
import hashlib
import importlib
import io
import json
import os
import random
import re
import tempfile
from dataclasses import astuple, replace
from functools import cache
from itertools import islice, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from perfcode import (
    CatalogEntry,
    ExplicitCode,
    MalformedInput,
    PointPerm,
    brute_kernel_dim,
    brute_min_distance,
    brute_rank,
    build_s_tau,
    catalog_taus,
    classify,
    enumerate_regular_subgroups,
    explicit_materialize,
    extended_hamming,
    identity_perm,
    invert_perm,
    sqs_from_tau,
    weight4_supports,
)
from perfcode.algebra import unpack_codes
from perfcode.cli import build_parser, cli_main
from perfcode.classify import classify_catalog
from perfcode.regular_groups import TauCatalog, _census_codes, _tables
from perfcode import io as pio
from conftest import random_zero_fixing
import catalog_oracle

# every command that reads a permutation or an SQS file
_FILE_COMMANDS = [
    ["report", "--tau", "{path}"],
    ["stats", "--tau", "{path}"],
    ["sqs", "--tau", "{path}", "--out", "{out}"],
    ["build-stau", "--tau", "{path}", "--out", "{out}"],
    ["hadamard", "--tau", "{path}", "--out", "{out}"],
    ["check-sqs", "--in", "{path}"],
]
_CLASSIFY = ["classify", "--catalog", "{path}", "--out", "{out}"]

# the complete r=3 census, `catalog-taus --r 3` then `classify`: every
# classification change must reproduce these bytes
R3_CENSUS_JSON_SHA256 = "567b03bde247c3ef04ba938e7fe7586191b0f5098d10ecf8ec2ef4ebce2842a3"
R3_CENSUS_CSV_SHA256 = "783af1a6ef35bc15c3d4599327a8cbf8c88b8bb1e215d61db6e3a728277d3150"
# the groups file of `enum-regular --r 3`, in the DFS's order
R3_GROUPS_SHA256 = "92f02b6ebedc75965fff93aa075d6ceb5b9cceaf3dd858f7075790b612fa0972"
# the catalog file of `catalog-taus --r 3`, which every catalog writer must reproduce
R3_CATALOG_SHA256 = "4217bfb1f8902574459fe4f566184ebeae86a4cef68035d269a6b02d6e1397d2"
# the classification JSON of the kernel-22 taus of the first 165 regular
# subgroups of GA(4,2): 9,216 taus in one class
R4_SLICE_JSON_SHA256 = "dc6fdd5a71f69172c06cbfd6e4fed9605b9d3a1e9aa66eebe0f23b4976ede178"


class TestBitstrings:
    def test_leftmost_char_is_coordinate_zero(self):
        assert pio.string_to_row("110") == 0b011
        assert pio.row_to_string(0b011, 3) == "110"

    def test_matrix_roundtrip(self):
        from perfcode import identity_matrix

        m = identity_matrix(3)
        assert pio.matrix_from_strings(pio.matrix_to_strings(m)) == m


class TestPointPermIO:
    def test_roundtrip(self, tmp_path, rng):
        tau = random_zero_fixing(3, rng)
        path = tmp_path / "tau.json"
        pio.save_point_perm(path, tau)
        assert pio.load_point_perm(path).images == tau.images

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 3}')
        from perfcode import MalformedInput

        with pytest.raises(MalformedInput):
            pio.load_point_perm(path)


class TestCodeFiles:
    def test_linear_roundtrip(self, tmp_path):
        h = extended_hamming(3)
        path = tmp_path / "h.code"
        pio.save_code_file(path, h)
        loaded = pio.load_code_file(path)
        assert set(loaded.words()) == set(h.words())
        header = path.read_text().splitlines()[0]
        assert header == "n=8 k=4"

    def test_coset_union_roundtrip(self, tmp_path, rng):
        code = build_s_tau(random_zero_fixing(3, rng))
        path = tmp_path / "stau.code"
        pio.save_code_file(path, code)
        loaded = pio.load_code_file(path)
        assert loaded.r == code.r
        assert loaded.reps == code.reps
        assert set(explicit_materialize(loaded).words) == set(
            explicit_materialize(code).words
        )

    def test_explicit_roundtrip(self, tmp_path, rng):
        code = explicit_materialize(build_s_tau(random_zero_fixing(3, rng)))
        path = tmp_path / "explicit.code"
        pio.save_code_file(path, code)
        assert pio.load_code_file(path).words == code.words

    def test_save_code_file_refuses_what_it_cannot_write(self, tmp_path):
        path = tmp_path / "c.code"
        with pytest.raises(ValueError, match="not a power of two"):
            pio.save_code_file(path, ExplicitCode(4, (0, 3, 15)))
        with pytest.raises(ValueError, match="not a power of two"):
            pio.save_code_file(path, ExplicitCode(4, ()))
        with pytest.raises(TypeError, match="cannot serialize list"):
            pio.save_code_file(path, [0, 15])
        assert not path.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "n=4 k=1\n0000\n1111\n0000\n",  # a repeated word
            "n=4 k=1\n0000\n111\n",  # a short word
            "n=4 k=1\n0000\n1121\n",  # a word that is not binary
            "n=4 k=1\nG\n11\n",  # a short generator
            "n=4 k=1\nG\n11110\n",  # a long generator
            "n=4 k=2\nG\n1111\nR\n11111111\n0000\n",  # long representatives
            "n=4 k=2\nG\n1111\nR\n000\n111\n",  # short representatives
            "n=8 k=4\nG\n11111111\nR\n",  # no representatives
        ],
    )
    def test_rows_must_fit_the_header(self, tmp_path, text):
        path = tmp_path / "bad.code"
        path.write_text(text)
        with pytest.raises(MalformedInput):
            pio.load_code_file(path)

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_code_kind_roundtrips_to_an_equal_object(self, tmp_path, rng, r):
        hamming, s_tau = extended_hamming(3), build_s_tau(random_zero_fixing(r, rng))
        path = tmp_path / "c.code"
        for code in [hamming, ExplicitCode(8, tuple(hamming.words())), s_tau, s_tau.base, explicit_materialize(s_tau)]:
            pio.save_code_file(path, code)
            assert pio.load_code_file(path) == code

    @pytest.mark.parametrize(
        "text",
        [
            "n=4 k=7\n0000\n1111\n",  # k does not match two words
            "n=4 k=x\n0000\n1111\n",  # a value that is not an integer
            "n=4 k=1.0\n0000\n1111\n",
            "n=4 k=-1\n0000\n1111\n",
            "n=4\n0000\n1111\n",  # no k
            "k=1\n0000\n1111\n",  # no n
            "n=4 k=1 v=2\n0000\n1111\n",  # an extra key
            "n=4 k=1 k=1\n0000\n1111\n",
            "n=4 k=1\n",  # no words
            "n=3 k=1\n000\n111\n101\n",  # three words: no k fits
            "n=4 k=2\nG\n1111\n",  # a linear code of dimension 1
            "n=4 k=2\nG\n1111\n1111\n",  # dependent generators
            "n=4 k=2\nG\n1100\n0011\nR\n0000\n1010\n",  # 2^(1 + 2) words
        ],
    )
    def test_header_must_name_n_and_the_code_size(self, tmp_path, text):
        path = tmp_path / "bad.code"
        path.write_text(text)
        with pytest.raises(MalformedInput):
            pio.load_code_file(path)

    def test_header_of_an_empty_code_is_malformed(self, tmp_path):
        # no words: size 0 has no log2, and k=0 claims one word
        path = tmp_path / "empty.code"
        path.write_text("n=4 k=0\n")
        with pytest.raises(MalformedInput, match="header k=0 does not match a code of 0 words"):
            pio.load_code_file(path)


class TestSqsFiles:
    def test_roundtrip_and_canonical_order(self, tmp_path, rng):
        q = sqs_from_tau(random_zero_fixing(3, rng))
        path = tmp_path / "q.sqs"
        pio.save_sqs(path, q)
        lines = path.read_text().splitlines()
        assert lines[0] == "v=16 b=140"
        quad_lines = lines[1:]
        assert quad_lines == sorted(
            quad_lines, key=lambda ln: tuple(int(x) for x in ln.split())
        )
        assert pio.load_sqs(path).quadruples == q.quadruples

    @pytest.mark.parametrize(
        "header",
        ["v=8 b=2", "v=8 b=x", "v=8 b=1.0", "v=8", "b=1", "v=8 b=1 k=1", "v=8 b=1 b=1", "v=+8 b=1"],
    )
    def test_header_must_name_v_and_b(self, tmp_path, header):
        path = tmp_path / "bad.sqs"
        path.write_text(header + "\n0 1 2 3\n")
        with pytest.raises(MalformedInput):
            pio.load_sqs(path)

    @pytest.mark.parametrize(
        "text",
        [
            "v=8 b=1\n0 1 2 3\n3 2 1 0\n",  # a repeat in another point order
            "v=8 b=1\n0 1 2 3\n0 1 2 3\n",
            "v=8 b=2\n0 1 2 3\n4 5 6 7\n7 5 6 4\n",
            "v=8 b=2\n0 1 2 3\n1 0 3 2\n",  # b counts lines, but a line repeats
            "v=8 b=3\n0 1 2 3\n4 5 6 7\n2 1 0 3\n",
        ],
    )
    def test_a_repeated_quadruple_is_malformed(self, tmp_path, text):
        path = tmp_path / "bad.sqs"
        path.write_text(text)
        with pytest.raises(MalformedInput, match="repeats an earlier line"):
            pio.load_sqs(path)

    def test_points_and_lines_in_any_order(self, tmp_path):
        path = tmp_path / "q.sqs"
        path.write_text("v=8 b=2\n7 6 5 4\n3 1 2 0\n")
        assert pio.load_sqs(path).quadruples == {(0, 1, 2, 3), (4, 5, 6, 7)}


class TestGroupFiles:
    def test_roundtrip(self, tmp_path):
        from perfcode import enumerate_regular_subgroups

        groups = []
        for g in enumerate_regular_subgroups(3):
            groups.append(g)
            if len(groups) == 5:
                break
        path = tmp_path / "groups.json"
        pio.save_groups(path, 3, groups, complete=False)
        r, complete, loaded = pio.load_groups(path)
        assert r == 3 and complete is False
        assert [g.mats for g in loaded] == [g.mats for g in groups]

    def test_rows_of_one_matrix_differ_in_width(self, tmp_path):
        from perfcode import enumerate_regular_subgroups

        obj = pio.group_to_obj(next(enumerate_regular_subgroups(3)))
        obj["mats"]["1"][2] += "0"
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"r": 3, "complete": False, "groups": [obj]}))
        with pytest.raises(MalformedInput, match="inconsistent widths"):
            pio.load_groups(path)


# catalog ids: a small one, or any int64 that the reader takes
_ids = st.one_of(st.integers(0, 9999), st.integers(0, (1 << 63) - 1))


def _saved_bytes(tmp_path, catalog) -> bytes:
    pio.save_tau_catalog(tmp_path / "saved.json", catalog)
    return (tmp_path / "saved.json").read_bytes()


def _oracle_bytes(tmp_path, catalog) -> bytes:
    catalog_oracle.save_tau_catalog(tmp_path / "oracle.json", catalog)
    return (tmp_path / "oracle.json").read_bytes()


def _no_json(*args, **kwargs):
    raise AssertionError("json.loads was called")


def _catalog_outcome(load, path):
    """What a catalog reader gives for a file: the catalog's fields, or the
    type and message of what it raised."""
    try:
        c = load(path)
    except Exception as exc:  # the outcomes of two readers are compared, whatever they are
        return type(exc), str(exc)
    images = c.images
    return c.r, c.complete, images.dtype, images.shape, images.tobytes(), c.group_ids.tolist(), c.aut_ids.tolist()


# edits of one row, {"tau":[0,..],"r":r,"group_id":..,"aut_id":..}, of an r-catalog
_ROW_EDITS = {
    "space after a comma": lambda row, r: row.replace(b",", b", ", 1),
    "reordered keys": lambda row, r: re.sub(rb'^\{("tau":\[[^]]*\]),("r":\d+),', rb"{\2,\1,", row),
    "leading zero": lambda row, r: row.replace(b'"group_id":', b'"group_id":0'),
    "id -1": lambda row, r: re.sub(rb'"aut_id":\d+', b'"aut_id":-1', row),
    "id 2^63": lambda row, r: re.sub(rb'"aut_id":\d+', b'"aut_id":%d' % (1 << 63), row),
    "id of 20 digits": lambda row, r: re.sub(rb'"group_id":\d+', b'"group_id":12345678901234567890', row),
    "r of 3.0": lambda row, r: row.replace(b'"r":%d' % r, b'"r":3.0'),
    "image true": lambda row, r: re.sub(rb"\[0,\d+", b"[0,true", row),
    "image 16": lambda row, r: re.sub(rb"\[0,\d+", b"[0,16", row),
    "image 17": lambda row, r: re.sub(rb"\[0,\d+", b"[0,17", row),
    "repeated image": lambda row, r: re.sub(rb"\[0,(\d+),\d+,", rb"[0,\1,\1,", row),
    "non-zero image at point 0": lambda row, r: re.sub(rb"\[0,(\d+),", rb"[\1,0,", row),
    "r of 5": lambda row, r: row.replace(b'"r":%d' % r, b'"r":5'),
    "mixed r": lambda row, r: row.replace(b'"r":%d' % r, b'"r":%d' % (7 - r)),
    "byte that is not UTF-8": lambda row, r: row.replace(b'"tau"', b'"t\xffu"'),
}
# edits of a whole file that the JSON reader reads
_FILE_EDITS = {
    "r of 5 in the partial head": lambda data: re.sub(rb'^\{"r":\d+,', b'{"r":5,', data),
    "empty list": lambda data: b"[]\n",
    "cut in half": lambda data: data[: len(data) // 2],
    "one trailing x": lambda data: data + b"x",
    "the end of the list changed": lambda data: data[:-2] + b"x\n",
    "a leading space": lambda data: b" " + data,
    "a leading newline": lambda data: b"\n" + data,
    # not JSON whitespace, though bytes.strip() drops them: malformed input
    "a trailing form feed": lambda data: data + b"\x0c",
    "a trailing vertical tab": lambda data: data + b"\x0b",
}
# edits of its trailing JSON whitespace, which the fast reader reads too
_FAST_FILE_EDITS = {
    "cut short by a byte": lambda data: data[:-1],  # json.dumps' own form, with no final newline
    "one trailing space": lambda data: data + b" ",
    "trailing tab, carriage return and newlines": lambda data: data + b"\t\r\n\n",
}


class TestCatalogFiles:
    def test_tau_catalog_roundtrip(self, tmp_path, monkeypatch):
        catalog = catalog_taus(3)
        path = tmp_path / "catalog.json"
        pio.save_tau_catalog(path, catalog)
        with monkeypatch.context() as m:  # the writer's bytes take the reader's fast path
            m.setattr(pio.json, "loads", _no_json)
            loaded = pio.load_tau_catalog(path)
        assert len(loaded) == len(catalog)
        assert loaded.perm(5).images == catalog.perm(5).images
        assert loaded.provenance(5) == catalog.provenance(5)
        assert loaded.complete
        assert json.loads(path.read_text())[0]["tau"] == list(catalog.perm(0).images)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.sampled_from([3, 4]),
        complete=st.booleans(),
        rows=st.lists(st.tuples(st.randoms(use_true_random=False), _ids, _ids), max_size=6),
    )
    def test_partial_flag_roundtrip(self, r, complete, rows):
        # a partial catalog, empty or not, must load back partial; an empty
        # complete catalog would be an empty bare list, which is malformed.
        # Every file has the oracle writer's bytes.
        assume(rows or not complete)
        images = [[0] + rnd.sample(range(1, 1 << r), (1 << r) - 1) for rnd, _, _ in rows]
        catalog = TauCatalog(
            r, np.array(images, dtype=np.int8).reshape(-1, 1 << r),
            [g for _, g, _ in rows], [a for _, _, a in rows], complete=complete,
        )
        with tempfile.TemporaryDirectory() as tmp:
            assert _saved_bytes(Path(tmp), catalog) == _oracle_bytes(Path(tmp), catalog)
            loaded = pio.load_tau_catalog(Path(tmp) / "saved.json")
        assert (loaded.r, loaded.complete, len(loaded)) == (r, complete, len(rows))
        assert np.array_equal(loaded.images, catalog.images)
        assert [loaded.provenance(i) for i in range(len(rows))] == [
            catalog.provenance(i) for i in range(len(rows))
        ]

    @pytest.mark.parametrize("form", ["complete", "partial"])
    def test_r3_catalog_matches_the_oracle_writer(self, tmp_path, r3_catalog, form):
        catalog = TauCatalog(3, r3_catalog.images, r3_catalog.group_ids, r3_catalog.aut_ids,
                             complete=form == "complete")
        saved = _saved_bytes(tmp_path, catalog)
        assert saved == _oracle_bytes(tmp_path, catalog)
        if form == "complete":
            assert hashlib.sha256(saved).hexdigest() == R3_CATALOG_SHA256

    def test_empty_partial_catalog_matches_the_oracle_writer(self, tmp_path):
        catalog = TauCatalog(4, np.zeros((0, 16), dtype=np.int8), [], [], complete=False)
        saved = _saved_bytes(tmp_path, catalog)
        assert saved == _oracle_bytes(tmp_path, catalog) == b'{"r":4,"complete":false,"taus":[]}\n'

    @pytest.mark.parametrize("r", [2, 5])
    def test_census_file_readers_share_the_census_gate(self, tmp_path, r):
        # the groups reader, the JSON reader of a partial catalog, and a bare
        # list in json.dumps' compact form, which the numpy reader sees first
        row = {"tau": list(range(1 << r)), "r": r, "group_id": 0, "aut_id": 0}
        files = [
            (pio.load_groups, {"r": r, "complete": True, "groups": []}),
            (pio.load_tau_catalog, {"r": r, "complete": False, "taus": []}),
            (pio.load_tau_catalog, [row]),
        ]
        path = tmp_path / "census.json"
        for load, obj in files:
            path.write_text(json.dumps(obj, separators=(",", ":")))
            with pytest.raises(MalformedInput, match=re.escape(f"the census supports r in {{3, 4}}, got {r}")):
                load(path)

    def test_empty_catalog_round_trips_only_partial(self, tmp_path):
        # an empty complete catalog would be written as a bare [], which the
        # reader refuses: the writer refuses it first, and writes no file
        path = tmp_path / "empty.json"
        with pytest.raises(ValueError, match="never empty"):
            pio.save_tau_catalog(path, TauCatalog(3, np.zeros((0, 8), dtype=np.int8), [], [], complete=True))
        assert not path.exists()
        pio.save_tau_catalog(path, TauCatalog(3, np.zeros((0, 8), dtype=np.int8), [], [], complete=False))
        assert path.read_bytes() == b'{"r":3,"complete":false,"taus":[]}\n'
        loaded = pio.load_tau_catalog(path)
        assert (loaded.r, loaded.complete, loaded.images.dtype, loaded.images.shape) == (3, False, np.int8, (0, 8))

    @pytest.mark.parametrize("offset, blocks", [(1, 0), (-1, 1), (0, 1), (1, 1), (1, 2)])
    @pytest.mark.parametrize("complete", [True, False])
    def test_r4_block_edges_match_the_oracle_writer(self, tmp_path, monkeypatch, offset, blocks, complete):
        # 1, block - 1, block, block + 1 and 2 block + 1 rows of seeded random
        # zero-fixing taus, with distinct group and aut ids near 2^63 - 1
        rows = blocks * pio._CATALOG_BLOCK_ROWS + offset
        gen = np.random.default_rng(rows)
        images = np.zeros((rows, 16), dtype=np.int8)
        images[:, 1:] = np.argsort(gen.random((rows, 15)), axis=1) + 1
        ids = gen.choice(np.arange((1 << 63) - 4 * rows, 1 << 63, dtype=np.int64), 2 * rows, replace=False)
        catalog = TauCatalog(4, images, ids[:rows], ids[rows:], complete=complete)
        saved = _saved_bytes(tmp_path, catalog)
        assert saved == _oracle_bytes(tmp_path, catalog)
        monkeypatch.setattr(pio.json, "loads", _no_json)
        loaded = pio.load_tau_catalog(tmp_path / "saved.json")
        assert np.array_equal(loaded.images, images) and loaded.complete == complete
        assert np.array_equal(loaded.group_ids, catalog.group_ids)
        assert np.array_equal(loaded.aut_ids, catalog.aut_ids)

    @pytest.mark.parametrize("r, complete", [(3, True), (3, False), (4, True), (4, False)])
    def test_edited_files_load_as_the_json_reader_loads_them(self, tmp_path, monkeypatch, r3_catalog, r, complete):
        # canonical files of at least three reader blocks; each edit gives
        # what the JSON reader gives, in the first block or only in the second
        monkeypatch.setattr(pio, "_CATALOG_READ_BYTES", 2048)
        if r == 3:
            catalog = TauCatalog(3, r3_catalog.images[:200], r3_catalog.group_ids[:200],
                                 r3_catalog.aut_ids[:200], complete=complete)
        else:
            gen = np.random.default_rng(27)
            images = np.zeros((100, 16), dtype=np.int8)
            images[:, 1:] = np.argsort(gen.random((100, 15)), axis=1) + 1
            ids = gen.integers(0, 1 << 63, 200, dtype=np.int64) >> gen.integers(0, 63, 200)
            catalog = TauCatalog(4, images, ids[:100], ids[100:], complete=complete)
        path = tmp_path / "catalog.json"
        pio.save_tau_catalog(path, catalog)
        data = path.read_bytes()
        assert len(data) > 3 * 2048

        load_json, json_reads = pio._load_json, []

        def read_as_json(*args):
            json_reads.append(args)
            return load_json(*args)

        def same_outcome(edited: bytes, name: str, fast: bool = False):
            path.write_bytes(edited)
            json_outcome = _catalog_outcome(lambda p: load_json(p, "tau catalog", pio._tau_catalog_from_obj), path)
            json_reads.clear()
            assert _catalog_outcome(pio.load_tau_catalog, path) == json_outcome, name
            assert bool(json_reads) != fast, f"{name}: {'the JSON' if fast else 'the fast'} reader took the file"
            return json_outcome

        monkeypatch.setattr(pio, "_load_json", read_as_json)
        assert _catalog_outcome(pio.load_tau_catalog, path) == _catalog_outcome(lambda p: catalog, path)
        assert not json_reads  # the writer's bytes take the fast path
        starts = [m.start() for m in re.finditer(rb'\{"tau":', data)]
        head = data.index(b"[") + 1
        # the first row that starts past the first block, which ends after a row within 2048 bytes
        second = next(i for i, start in enumerate(starts) if start > head + 2048)
        for name, edit in _ROW_EDITS.items():
            for i in (0, 1, second):
                row = data[starts[i] : starts[i + 1] - 1]
                edited = edit(row, r)
                assert edited != row, name
                same_outcome(data[: starts[i]] + edited + data[starts[i + 1] - 1 :], f"{name} in row {i}")
        for name, edit in _FILE_EDITS.items():
            if edit(data) != data:
                outcome = same_outcome(edit(data), name)
                if name.startswith("a trailing"):
                    assert outcome[0] is MalformedInput, name
                    assert cli_main(["classify", "--catalog", str(path), "--out", str(tmp_path / "out.json")]) == 3
        for name, edit in _FAST_FILE_EDITS.items():
            assert same_outcome(edit(data), name, fast=True) == _catalog_outcome(lambda p: catalog, path), name

    def test_classification_json_roundtrip(self, rng):
        taus = [random_zero_fixing(3, rng) for _ in range(6)]
        entries = classify(taus)
        text = pio.emit_catalog_json(entries)
        assert pio.parse_catalog_json(text) == entries
        assert pio.emit_catalog_json(pio.parse_catalog_json(text)) == text

    @pytest.mark.parametrize(
        "field, value",
        [
            ("point_transitive", "false"),  # a string, which bool() would read as true
            ("point_transitive", 1),
            ("non_mollard", None),
            ("kernel_dim", 8.9),
            ("intersection_dim", True),
            ("r", "3"),
            ("rank", 13.0),
            ("class_id", False),
            ("aut_order", 1536.0),
            ("aut_order", True),
            ("tau_id", 7),
            ("provenance", 1),
            ("provenance", None),
        ],
    )
    def test_classification_fields_must_have_their_json_types(self, r3_taus, field, value):
        entries = classify(r3_taus[:3])
        items = json.loads(pio.emit_catalog_json(entries))
        assert pio.parse_catalog_json(json.dumps(items)) == entries
        items[1][field] = value
        with pytest.raises(MalformedInput):
            pio.parse_catalog_json(json.dumps(items))

    def test_csv_shape(self, rng):
        taus = [random_zero_fixing(3, rng) for _ in range(4)]
        entries = classify(taus)
        text = pio.emit_catalog_csv(entries)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(pio.CSV_COLUMNS)
        assert len(lines) == len(entries) + 1
        assert all(ln.count(",") == len(pio.CSV_COLUMNS) - 1 for ln in lines)


def _mixed_induced(taus, rng):
    return [PointPerm(t.r, t.images, induced=rng.random() < 0.5) for t in taus]


class TestClassificationOutput:
    """The emitters format a classification straight from its columns and any
    other sequence of entries by one json.dumps or csv.writer call: the two agree."""

    @pytest.mark.parametrize("kernel_dim", [None, 8, 9, 11])
    def test_columns_and_entries_emit_the_same_text(self, r3_catalog, kernel_dim):
        entries = classify_catalog(r3_catalog, kernel_dim=kernel_dim)
        assert len(entries) > 0
        for emit in (pio.emit_catalog_json, pio.emit_catalog_csv):
            assert emit(entries) == emit(list(entries))

    @pytest.mark.parametrize("r, count", [(4, 12), (5, 3)])
    def test_random_batches_emit_the_same_text(self, r, count):
        rng = random.Random(1900 + r)
        taus = [random_zero_fixing(r, rng) for _ in range(count)]
        # equal rows and inverses join classes; half the rows are tagged induced
        entries = classify(_mixed_induced(taus + taus[:2] + [invert_perm(t) for t in taus[:2]], rng))
        assert len({e.class_id for e in entries}) < len(entries)
        assert {e.non_mollard for e in entries} == {False, True}
        for emit in (pio.emit_catalog_json, pio.emit_catalog_csv):
            assert emit(entries) == emit(list(entries))

    def test_r4_slice_classification_bytes(self):
        # group 164 is the first whose taus have kernel dimension 22
        auts = [unpack_codes(codes, 16) for codes in islice(_census_codes(4, None), 165)]
        images = np.concatenate(auts).astype(np.int8)
        gids = np.repeat(np.arange(len(auts)), [len(a) for a in auts])
        aids = np.concatenate([np.arange(len(a)) for a in auts])
        # deduplicated in first-seen order, as catalog_taus does
        _, first = np.unique(images, axis=0, return_index=True)
        first.sort()
        catalog = TauCatalog(4, images[first], gids[first], aids[first], complete=True)
        entries = classify_catalog(catalog, kernel_dim=22)
        assert len(entries) == 9216 and len(entries.classes) == 1
        text = pio.emit_catalog_json(entries)
        assert hashlib.sha256(text.encode()).hexdigest() == R4_SLICE_JSON_SHA256

    def test_strings_are_escaped_as_json_and_csv_escape_them(self):
        base = CatalogEntry("r3-01234567", 3, 11, 11, 4, True, None, 0, False, "user")
        odd = ['say "hi"', "back\\slash", "a,b", "line\nbreak", "caf\u00e9 \u2192 \U0001d53d", ""]
        entries = [replace(base, tau_id=t, provenance=p) for t, p in zip(odd, odd[::-1])]
        entries += [replace(base, aut_order=1536, non_mollard=True), replace(base, point_transitive=1)]
        objs = [{col: getattr(e, col) for col in pio.CSV_COLUMNS} for e in entries]
        assert pio.emit_catalog_json(entries) == json.dumps(objs, separators=(",", ":")) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(pio.CSV_COLUMNS)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in obj.values()] for obj in objs)
        assert pio.emit_catalog_csv(entries) == buf.getvalue()
        assert pio.parse_catalog_json(pio.emit_catalog_json(entries[:-1])) == entries[:-1]

    def test_csv_of_ids_that_are_not_strings_is_csv_writers(self):
        # the per-middle rows need string ids; csv.writer writes None as "" and 7 as "7"
        base = CatalogEntry("r3-01234567", 3, 11, 11, 4, True, None, 0, False, "user")
        entries = [base, replace(base, tau_id=None), replace(base, provenance=7)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(pio.CSV_COLUMNS)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in astuple(e)] for e in entries)
        assert pio.emit_catalog_csv(entries) == buf.getvalue()

    def test_json_of_ids_that_are_not_strings_is_json_dumps(self):
        # the per-middle objects quote string ids; json.dumps writes None as null and 7 as 7
        base = CatalogEntry("r3-01234567", 3, 11, 11, 4, True, None, 0, False, "user")
        entries = [base, replace(base, tau_id=None), replace(base, provenance=7)]
        objs = [{col: getattr(e, col) for col in pio.CSV_COLUMNS} for e in entries]
        assert pio.emit_catalog_json(entries) == json.dumps(objs, separators=(",", ":")) + "\n"

    def test_no_entry_is_built_to_classify_and_emit(self, monkeypatch, r3_catalog):
        # the columns replace the rows: the census path builds no CatalogEntry
        classify_module = importlib.import_module("perfcode.classify")
        built = []

        class Counted(classify_module.CatalogEntry):
            def __init__(self, *args, **kwargs):
                built.append(args or kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(classify_module, "CatalogEntry", Counted)
        entries = classify_catalog(r3_catalog)
        texts = pio.emit_catalog_json(entries), pio.emit_catalog_csv(entries)
        assert built == []
        assert hashlib.sha256(texts[0].encode()).hexdigest() == R3_CENSUS_JSON_SHA256
        assert hashlib.sha256(texts[1].encode()).hexdigest() == R3_CENSUS_CSV_SHA256
        entries[-1]  # an entry is built when it is indexed
        assert len(built) == 1


class TestCli:
    def test_hamming(self, tmp_path, capsys):
        out = tmp_path / "h.code"
        assert cli_main(["hamming", "--r", "3", "--out", str(out)]) == 0
        assert out.exists()

    def test_build_stau_and_stats(self, tmp_path, rng, capsys):
        tau = random_zero_fixing(3, rng)
        tau_path = tmp_path / "tau.json"
        pio.save_point_perm(tau_path, tau)
        out = tmp_path / "stau.code"
        assert cli_main(["build-stau", "--tau", str(tau_path), "--out", str(out)]) == 0
        loaded = pio.load_code_file(out)
        assert loaded.reps == build_s_tau(tau).reps
        assert cli_main(["stats", "--tau", str(tau_path)]) == 0
        captured = capsys.readouterr().out
        assert "rank=" in captured and "kernel_dim=" in captured

    @pytest.mark.parametrize("images", [(0, *p) for p in permutations((1, 2, 3))], ids=str)
    def test_build_stau_and_stats_at_r2(self, tmp_path, capsys, images):
        # every zero-fixing tau of F^2 is linear: S_tau is an [8, 4, 4] code
        tau = PointPerm(2, images)
        tau_path, out = tmp_path / "tau.json", tmp_path / "stau.code"
        pio.save_point_perm(tau_path, tau)
        assert cli_main(["build-stau", "--tau", str(tau_path), "--out", str(out)]) == 0
        assert pio.load_code_file(out).reps == build_s_tau(tau).reps
        capsys.readouterr()
        assert cli_main(["stats", "--tau", str(tau_path)]) == 0
        assert capsys.readouterr().out.split() == [
            "n=8", "size=2^4", "rank=4", "kernel_dim=4", "min_distance=4"
        ]
        explicit = explicit_materialize(build_s_tau(tau))
        assert (
            len(explicit.words),
            brute_rank(explicit),
            brute_kernel_dim(explicit),
            brute_min_distance(explicit),
        ) == (16, 4, 4, 4)

    def test_build_stau_and_stats_at_r1(self, tmp_path, capsys):
        # the length-2 extended Hamming code is {00}, so S_tau is {0000, 1111},
        # the [4, 1, 4] extended perfect code, and its SQS is one quadruple
        tau = PointPerm(1, (0, 1))
        tau_path, out = tmp_path / "tau.json", tmp_path / "stau.code"
        pio.save_point_perm(tau_path, tau)
        assert cli_main(["build-stau", "--tau", str(tau_path), "--out", str(out)]) == 0
        assert pio.load_code_file(out).reps == build_s_tau(tau).reps
        capsys.readouterr()
        assert cli_main(["stats", "--tau", str(tau_path)]) == 0
        assert capsys.readouterr().out.split() == [
            "n=4", "size=2^1", "rank=1", "kernel_dim=1", "min_distance=4"
        ]
        explicit = explicit_materialize(build_s_tau(tau))
        assert explicit.words == (0, 0b1111)
        assert (
            brute_rank(explicit), brute_kernel_dim(explicit), brute_min_distance(explicit)
        ) == (1, 1, 4)
        assert weight4_supports(explicit) == {frozenset(q) for q in sqs_from_tau(tau).quadruples}

    def test_sqs_and_check_roundtrip(self, tmp_path, rng, capsys):
        tau = random_zero_fixing(4, rng)
        tau_path = tmp_path / "tau.json"
        pio.save_point_perm(tau_path, tau)
        q_path = tmp_path / "q.sqs"
        assert cli_main(["sqs", "--tau", str(tau_path), "--out", str(q_path)]) == 0
        capsys.readouterr()
        assert cli_main(["check-sqs", "--in", str(q_path)]) == 0
        assert "v=32 b=1240 valid" in capsys.readouterr().out

    def test_check_sqs_detects_deletion(self, tmp_path, rng, capsys):
        tau = random_zero_fixing(3, rng)
        tau_path = tmp_path / "tau.json"
        pio.save_point_perm(tau_path, tau)
        q_path = tmp_path / "q.sqs"
        cli_main(["sqs", "--tau", str(tau_path), "--out", str(q_path)])
        lines = q_path.read_text().splitlines()
        removed = lines.pop(1)
        header = lines[0].split()
        lines[0] = f"{header[0]} b={len(lines) - 1}"
        q_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["check-sqs", "--in", str(q_path)]) == 1
        err = capsys.readouterr().err
        assert "covered 0 times" in err

    def test_check_sqs_at_the_largest_order(self, tmp_path, capsys):
        # the triple keys (a·v + b)·v + c and C(v, 3) are int64: the largest
        # order still names the least uncovered triple, and the next one is
        # refused as over budget rather than misread or overflowed
        from perfcode.sqs import VALIDATE_MAX_ORDER

        path = tmp_path / "q.sqs"
        path.write_text(f"v={VALIDATE_MAX_ORDER} b=1\n0 1 2 3\n")
        assert cli_main(["check-sqs", "--in", str(path)]) == 1
        assert "triple (0, 1, 4) covered 0 times" in capsys.readouterr().err
        for v in (VALIDATE_MAX_ORDER + 1, 1 << 40):
            path.write_text(f"v={v} b=1\n0 1 2 3\n")
            assert cli_main(["check-sqs", "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == f"budget exhausted: validate_sqs supports order <= {VALIDATE_MAX_ORDER}, got {v}\n"

    @pytest.mark.parametrize(
        "argv, r, code, message",
        [
            (["sqs", "--tau", "{tau}", "--out", "{out}"], 6, 2, "budget exhausted: sqs_from_tau supports r <= 5, got 6"),
            (["build-stau", "--tau", "{tau}", "--out", "{out}"], 6, 2, "budget exhausted: build_s_tau supports r <= 5, got 6"),
            (["hadamard", "--tau", "{tau}", "--out", "{out}"], 5, 2, "budget exhausted: hadamard_a_tau supports r <= 4, got 5"),
            (["series", "--r", "2"], 3, 1, "error: series needs r >= 3, got 2"),
            (["catalog-taus", "--r", "5", "--out", "{out}"], 3, 1, "error: the census supports r in {3, 4}, got 5"),
        ],
        ids=["sqs", "build-stau", "hadamard", "series", "catalog-taus"],
    )
    def test_size_guards(self, tmp_path, capsys, argv, r, code, message):
        tau, out = tmp_path / "tau.json", tmp_path / "out"
        pio.save_point_perm(tau, identity_perm(r))
        assert cli_main([arg.format(tau=tau, out=out) for arg in argv]) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_malformed_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert cli_main(["report", "--tau", str(bad)]) == 3

    @pytest.mark.parametrize("command", _FILE_COMMANDS + [_CLASSIFY], ids=lambda command: command[0])
    def test_undecodable_input_exit_3(self, tmp_path, capsys, command):
        # bytes that are not UTF-8, and JSON nested past the parser's recursion limit
        bad, out = tmp_path / "bad", tmp_path / "out"
        argv = [arg.format(path=bad, out=out) for arg in command]
        for content in (b"\xff\xfe\x00\x01not utf-8", b"[" * 100_000):
            bad.write_bytes(content)
            assert cli_main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("malformed input: ")
            assert "Traceback" not in err
            assert not out.exists()

    def test_every_json_reader_rejects_deep_nesting(self, tmp_path):
        from perfcode import MalformedInput

        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        readers = [pio.load_point_perm, pio.load_groups, pio.load_tau_catalog]
        readers += [lambda p: pio.parse_point_perm(p.read_text())]
        readers += [lambda p: pio.parse_catalog_json(p.read_text())]
        for read in readers:
            with pytest.raises(MalformedInput):
                read(path)

    @pytest.mark.parametrize(
        "text",
        [
            "v=16 b=1\n0 7 3 17\n",  # point past the order
            "v=16 b=1\n6 16 6 16\n",  # repeated point past the order
            "v=16 b=1\n-2 2 13 7\n",  # negative point
            "v=16 b=2\n0 1 2 3\n0 4 4 9\n",  # repeated point
            "v=16 b=1\n0 1 2 3\n3 2 1 0\n",  # repeated quadruple
            "v=0 b=0\n",  # empty order
            "v=-4 b=1\n0 1 2 3\n",  # negative order
        ],
    )
    def test_malformed_sqs_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "bad.sqs"
        path.write_text(text)
        assert cli_main(["check-sqs", "--in", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tau",
        [
            [0, 1, 2, 3, 4, 5, 6, 200],  # image out of range
            [0, 1, 2, 3, 4, 5, 6, 6],  # repeated image
            [1, 0, 2, 3, 4, 5, 6, 7],  # tau(0) != 0
            [0, 1, 2, 3],  # wrong length
        ],
    )
    def test_malformed_catalog_exit_3(self, tmp_path, capsys, tau):
        good = list(range(8))
        items = [{"tau": t, "r": 3, "group_id": 0, "aut_id": i} for i, t in enumerate((good, tau))]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(items))
        out = tmp_path / "classes.json"
        assert cli_main(["classify", "--catalog", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("malformed input: bad tau catalog")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "r, tau",
        [
            (5, list(range(32))),  # r outside {3, 4}
            (3, list(range(7))),  # every r=3 row one image short
        ],
    )
    def test_catalog_of_another_size_exit_3(self, tmp_path, capsys, r, tau):
        items = [{"tau": tau, "r": r, "group_id": 0, "aut_id": i} for i in range(2)]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(items))
        out = tmp_path / "classes.json"
        assert cli_main(["classify", "--catalog", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("malformed input: bad tau catalog")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("complete", "false"),  # a string, which bool() would read as true
            ("complete", 0),
            ("r", 3.7),
            ("r", True),
            ("item r", 3.0),
            ("group_id", 2**70),  # past int64
            ("group_id", 1 << 63),
            ("group_id", -1),
            ("group_id", 0.5),
            ("aut_id", True),
            ("aut_id", "1"),
            ("tau", "02134567"),  # a string, not a list
            ("tau", {"0": 0}),
            ("tau", [0, 2, 1, 3, 4, 5, 6, 7.0]),
            ("tau", [0, 2, True, 3, 4, 5, 6, 7]),
            ("tau", [0, 2, 1, 3, 4, 5, 6, 2**70]),
        ],
    )
    def test_catalog_fields_must_have_their_json_types(self, tmp_path, capsys, field, value):
        items = [
            {"tau": [0, 1, 2, 3, 4, 5, 6, 7], "r": 3, "group_id": 0, "aut_id": 0},
            {"tau": [0, 2, 1, 3, 4, 5, 6, 7], "r": 3, "group_id": 1, "aut_id": 0},
        ]
        obj = {"r": 3, "complete": False, "taus": items}
        if field in obj:
            obj[field] = value
        else:
            items[1][field.removeprefix("item ")] = value
        path = tmp_path / "catalog.json"
        out = tmp_path / "classes.json"
        # a field of a row is checked in the complete (bare list) form too
        texts = [json.dumps(obj)] + ([] if field in obj else [json.dumps(items)])
        for text in texts:
            path.write_text(text)
            assert cli_main(["classify", "--catalog", str(path), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("malformed input: bad tau catalog")
            assert "Traceback" not in err
            assert not out.exists()

    def test_enum_and_catalog_and_classify_pipeline(self, tmp_path, capsys):
        groups_path = tmp_path / "groups.json"
        assert (
            cli_main(["enum-regular", "--r", "3", "--out", str(groups_path)]) == 0
        )
        r, complete, groups = pio.load_groups(groups_path)
        assert r == 3 and complete and len(groups) == 232
        assert hashlib.sha256(groups_path.read_bytes()).hexdigest() == R3_GROUPS_SHA256

        catalog_path = tmp_path / "catalog.json"
        assert cli_main(["catalog-taus", "--r", "3", "--out", str(catalog_path)]) == 0
        assert hashlib.sha256(catalog_path.read_bytes()).hexdigest() == R3_CATALOG_SHA256

        out_json = tmp_path / "classes.json"
        assert (
            cli_main(
                ["classify", "--catalog", str(catalog_path), "--out", str(out_json), "--format", "json"]
            )
            == 0
        )
        entries = pio.parse_catalog_json(out_json.read_text())
        assert len(entries) == 1372
        assert len({e.class_id for e in entries}) == 4
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == R3_CENSUS_JSON_SHA256

        out_csv = tmp_path / "classes.csv"
        assert (
            cli_main(
                ["classify", "--catalog", str(catalog_path), "--out", str(out_csv), "--format", "csv"]
            )
            == 0
        )
        assert out_csv.read_text().splitlines()[0] == ",".join(pio.CSV_COLUMNS)
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == R3_CENSUS_CSV_SHA256

    def test_empty_partial_catalog_classifies_to_empty_output(self, tmp_path, capsys):
        catalog_path = tmp_path / "catalog.json"
        args = ["catalog-taus", "--r", "3", "--budget-seconds", "0", "--out", str(catalog_path)]
        assert cli_main(args) == 2
        assert len(pio.load_tau_catalog(catalog_path)) == 0
        capsys.readouterr()
        out = tmp_path / "classes.json"
        assert cli_main(["classify", "--catalog", str(catalog_path), "--out", str(out)]) == 2
        assert "partial" in capsys.readouterr().out
        assert pio.parse_catalog_json(out.read_text()) == []

    def test_partial_catalog_classifies_with_exit_2(self, tmp_path, capsys, r3_catalog):
        partial = TauCatalog(3, r3_catalog.images[:40], r3_catalog.group_ids[:40],
                             r3_catalog.aut_ids[:40], complete=False)
        catalog_path = tmp_path / "catalog.json"
        pio.save_tau_catalog(catalog_path, partial)
        out = tmp_path / "classes.csv"
        args = ["classify", "--catalog", str(catalog_path), "--out", str(out), "--format", "csv"]
        assert cli_main(args) == 2
        assert "partial" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 41

    @pytest.mark.parametrize(
        "command",
        [
            ["enum-regular", "--r", "3", "--out", "{out}"],
            ["catalog-taus", "--r", "4", "--out", "{out}"],
            ["classify", "--catalog", "{catalog}", "--out", "{out}"],
            ["hamming", "--r", "3", "--out", "{out}"],
        ],
        ids=lambda command: command[0],
    )
    def test_unwritable_out_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("cli.enumerate_regular_subgroups", "cli.catalog_taus", "cli.classify_catalog",
                     "cli.extended_hamming", "io.load_tau_catalog"):
            monkeypatch.setattr(f"perfcode.{name}", no_work)
        catalog = tmp_path / "catalog.json"
        catalog.write_text('{"r":3,"complete":false,"taus":[]}\n')
        missing = tmp_path / "no" / "such" / "out.json"
        too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
        not_dir = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}"
        for out, message in [(missing, "[Errno 2] No such file or directory"), ("", "[Errno 2] No such file or directory"),
                             (tmp_path, "[Errno 21] Is a directory"), (tmp_path / ("x" * 300), too_long),
                             (catalog / "x", not_dir)]:
            assert cli_main([arg.format(out=out, catalog=catalog) for arg in command]) == 3
            assert capsys.readouterr().err == f"malformed input: {message}: '{out}'\n"
        assert not missing.parent.exists()

    @pytest.mark.parametrize("command", _FILE_COMMANDS + [_CLASSIFY], ids=lambda command: command[0])
    def test_input_path_errors_exit_3(self, tmp_path, capsys, command):
        # a path through a regular file, and a name longer than a directory entry
        afile = tmp_path / "t.json"
        afile.write_text('{"r": 3, "perm": [0, 1, 2, 4, 3, 5, 6, 7]}')
        for path, code in [(afile / "x", errno.ENOTDIR), (tmp_path / ("x" * 300), errno.ENAMETOOLONG)]:
            assert cli_main([arg.format(path=path, out=tmp_path / "out") for arg in command]) == 3
            message = f"[Errno {code}] {os.strerror(code)}: '{path}'"
            assert capsys.readouterr().err == f"malformed input: {message}\n"

    @pytest.mark.parametrize("r", [2, 5])
    def test_enum_regular_outside_its_range_exits_1(self, tmp_path, capsys, r):
        out = tmp_path / "groups.json"
        assert cli_main(["enum-regular", "--r", str(r), "--out", str(out)]) == 1
        assert f"the census supports r in {{3, 4}}, got {r}" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_is_raised_not_malformed_input(self, tmp_path, monkeypatch):
        # an OSError that names no path is a failed read or write: cli_main
        # raises it rather than exit 3
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def save_tau_catalog(path, catalog):
            raise full

        monkeypatch.setattr(pio, "save_tau_catalog", save_tau_catalog)
        out = tmp_path / "catalog.json"
        with pytest.raises(OSError) as caught:
            cli_main(["catalog-taus", "--r", "3", "--out", str(out)])
        assert caught.value is full and caught.value.filename is None
        assert not out.exists()

    def test_budget_exit_2(self, tmp_path, capsys):
        # the tables are built first, so the budget goes to the DFS alone
        # and the partial file holds groups even in a fresh process
        _tables(4)
        groups_path = tmp_path / "partial.json"
        code = cli_main(
            ["enum-regular", "--r", "4", "--budget-seconds", "0.3", "--out", str(groups_path)]
        )
        assert code == 2
        _, complete, groups = pio.load_groups(groups_path)
        assert complete is False
        # the groups kept during the DFS, written once it has ended, give the
        # bytes of one json.dump
        obj = {"r": 4, "complete": False, "groups": [pio.group_to_obj(g) for g in groups]}
        assert groups_path.read_text() == json.dumps(obj, separators=(",", ":")) + "\n"
        # and they are the stream's first groups, in its order
        assert groups
        assert groups == list(islice(enumerate_regular_subgroups(4), len(groups)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--out", "{out}"],
            ["no-such-command"],
            ["classify", "--catalog", "{out}", "--out", "{out}", "--format", "xml"],
            ["series", "--r", "three"],
        ],
        ids=["missing-argument", "unknown-command", "format-xml", "r-three"],
    )
    def test_usage_error_exits_3(self, tmp_path, capsys, argv):
        # 2 is reserved for budget exhaustion: a typo must not read as a partial run
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(out=out) for arg in argv])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: perfcode")
        assert "error: " in captured.err
        assert not out.exists()

    def test_usage_errors_in_a_row_give_one_usage(self, tmp_path, capsys):
        # the parser is built once per process; a failed parse leaves it as it was
        assert build_parser() is build_parser()
        out = tmp_path / "out.json"
        errs = []
        for argv in (["classify", "--out", str(out)], ["classify", "--out", str(out), "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 3
            errs.append(capsys.readouterr().err)
        usages = [err.split("perfcode classify: error: ")[0] for err in errs]
        assert usages[0] == usages[1] and usages[0].startswith("usage: perfcode classify")
        assert errs[0] != errs[1]
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: perfcode")

    @pytest.mark.parametrize(
        "flag, env",
        [("nan", None), ("abc", None), (None, "nan"), (None, "abc")],
        ids=["flag-nan", "flag-abc", "env-nan", "env-abc"],
    )
    def test_malformed_budget_exits_3(self, tmp_path, capsys, monkeypatch, flag, env):
        # a NaN deadline is never passed, so it would silently mean no budget
        if env is None:
            monkeypatch.delenv("PERFCODE_BUDGET_SECONDS", raising=False)
        else:
            monkeypatch.setenv("PERFCODE_BUDGET_SECONDS", env)
        out = tmp_path / "catalog.json"
        argv = ["catalog-taus", "--r", "3", "--out", str(out)]
        if flag is not None:
            argv += ["--budget-seconds", flag]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"malformed input: budget must be a number of seconds, got {flag or env!r}\n"
        assert not out.exists()

    def test_infinite_budget_is_no_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PERFCODE_BUDGET_SECONDS", "abc")  # the flag takes precedence
        out = tmp_path / "catalog.json"
        assert cli_main(["catalog-taus", "--r", "3", "--budget-seconds", "inf", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == R3_CATALOG_SHA256

    def test_series_and_report(self, tmp_path, rng, capsys):
        assert cli_main(["series", "--r", "6"]) == 0
        out = capsys.readouterr().out
        assert "kernel_dim=114" in out
        assert cli_main(["series", "--r", "5"]) == 1

        tau_path = tmp_path / "tau.json"
        pio.save_point_perm(tau_path, random_zero_fixing(3, rng))
        assert cli_main(["report", "--tau", str(tau_path)]) == 0

    def test_hadamard_and_mollard(self, tmp_path, rng, capsys):
        tau_path = tmp_path / "tau.json"
        pio.save_point_perm(tau_path, random_zero_fixing(3, rng))
        h_out = tmp_path / "hadamard.code"
        assert cli_main(["hadamard", "--tau", str(tau_path), "--out", str(h_out)]) == 0
        loaded = pio.load_code_file(h_out)
        assert loaded.size == 32 and loaded.length == 16

        m_out = tmp_path / "mollard.code"
        assert cli_main(["mollard", "--t", "4", "--m", "4", "--out", str(m_out)]) == 0
        loaded = pio.load_code_file(m_out)
        assert loaded.size == 2048 and loaded.length == 16

        assert cli_main(["mollard", "--t", "8", "--m", "4", "--out", str(m_out)]) == 2

    @pytest.mark.parametrize("length", [0, 1, 3, -4])
    def test_mollard_factor_length_not_a_power_of_two_exits_3(self, tmp_path, capsys, length):
        out = tmp_path / "mollard.code"
        assert cli_main(["mollard", "--t", str(length), "--m", "4", "--out", str(out)]) == 3
        assert f"factor length {length} is not a power of two" in capsys.readouterr().err
        assert not out.exists()


# floats stay below 64 so that no draw asks for a 2^r-sized allocation;
# -inf and nan are drawn as well
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 17), st.floats(max_value=64), st.text(max_size=3),
)


@st.composite
def _perm_json(draw):
    """Permutation files: valid and invalid ones of r <= 4, and any JSON."""
    perm = st.one_of(
        st.permutations(range(1 << draw(st.integers(0, 4)))).map(list),
        st.lists(st.integers(-2, 17), max_size=17),
        _json_scalars,
    )
    obj = draw(st.one_of(
        st.fixed_dictionaries({"r": st.one_of(st.integers(-2, 5), st.floats(max_value=64)), "perm": perm}),
        st.recursive(
            _json_scalars,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["r", "perm", "x"]), inner, max_size=3),
            max_leaves=6,
        ),
    ))
    return json.dumps(obj)


@st.composite
def _sqs_with_bad_point(draw):
    """SQS text whose quadruple lines hold a point outside [0, v) or a repeated one."""
    v = draw(st.integers(1, 40))
    quads = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=4, max_size=4), max_size=6))
    bad = draw(st.lists(st.integers(0, v - 1), min_size=4, max_size=4))
    i = draw(st.integers(0, 3))
    if draw(st.booleans()):
        bad[i] = draw(st.one_of(st.integers(-50, -1), st.integers(v, v + 50)))
    else:
        bad[i] = bad[(i + 1) % 4]
    quads.insert(draw(st.integers(0, len(quads))), bad)
    b = len({tuple(sorted(q)) for q in quads})
    return "\n".join([f"v={v} b={b}"] + [" ".join(map(str, q)) for q in quads]) + "\n"


def _run_on_text(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        return cli_main([arg.format(path=path, out=Path(tmp) / "out") for arg in command])


class TestFileInputProperties:
    @settings(max_examples=150, deadline=None)
    @given(text=_perm_json(), command=st.sampled_from(_FILE_COMMANDS))
    def test_permutation_json_gives_an_exit_code(self, text, command):
        assert _run_on_text(command, text) in (0, 1, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(text=_sqs_with_bad_point(), command=st.sampled_from(_FILE_COMMANDS))
    def test_sqs_with_a_bad_point_exits_3(self, text, command):
        assert _run_on_text(command, text) == 3


# values of the wrong JSON type for each catalog field
_NOT_INT = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 7), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NOT_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NOT_BOOL = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=5), st.lists(st.booleans(), max_size=2),
)
_PAST_INT64 = st.one_of(st.integers(1 << 63, 1 << 80), st.integers(-(1 << 80), -(1 << 63)))


@st.composite
def _catalog_file(draw):
    """(JSON text, exit code): a complete or partial catalog that
    `classify` must accept, or one with a single defect that makes it
    malformed input."""
    r = draw(st.sampled_from([3, 4]))
    n = 1 << r
    ids = st.integers(0, (1 << 63) - 1)
    items = [
        {"tau": [0] + draw(st.permutations(range(1, n))), "r": r,
         "group_id": draw(ids), "aut_id": draw(ids)}
        for _ in range(draw(st.integers(0, 3)))
    ]
    complete = draw(st.booleans())
    obj = items if complete else {"r": r, "complete": False, "taus": items}
    defects = ["none", "empty list"] if complete else ["none", "top r", "complete", "taus", "top key"]
    if items:
        defects += ["image type", "image range", "repeated image", "tau type", "id type",
                    "id range", "item r", "item type", "item key"]
    defect = draw(st.sampled_from(defects))
    item = draw(st.sampled_from(items)) if items else None
    j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    id_field = draw(st.sampled_from(["group_id", "aut_id"]))
    if defect == "none":
        # an empty complete catalog is an empty bare list, which is malformed
        return json.dumps(obj), 3 if obj == [] else 0 if complete else 2
    if defect == "empty list":
        obj = []
    elif defect == "top r":
        obj["r"] = draw(st.one_of(_NOT_INT, st.integers().filter(lambda x: x not in (3, 4))))
    elif defect == "complete":
        obj["complete"] = draw(_NOT_BOOL)
    elif defect == "taus":
        obj["taus"] = draw(_NOT_LIST)
    elif defect == "top key":
        del obj[draw(st.sampled_from(["r", "complete", "taus"]))]
    elif defect == "image type":
        item["tau"][j] = draw(_NOT_INT)
    elif defect == "image range":
        item["tau"][j] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=n), _PAST_INT64))
    elif defect == "repeated image":
        item["tau"][j] = item["tau"][k]
    elif defect == "tau type":
        item["tau"] = draw(_NOT_LIST)
    elif defect == "id type":
        item[id_field] = draw(_NOT_INT)
    elif defect == "id range":
        item[id_field] = draw(st.one_of(st.integers(max_value=-1), _PAST_INT64))
    elif defect == "item r":
        item["r"] = draw(st.one_of(_NOT_INT, st.integers().filter(lambda x: x != r)))
    elif defect == "item type":
        items[items.index(item)] = draw(st.one_of(_NOT_LIST, st.lists(st.integers(0, 7), max_size=3)))
    elif defect == "item key":
        del item[draw(st.sampled_from(["tau", "r", "group_id", "aut_id"]))]
    return json.dumps(obj), 3


_any_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["r", "complete", "taus", "tau", "group_id", "aut_id", "x"]),
                      inner, max_size=4),
    max_leaves=10,
)


class TestCatalogFileProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=_catalog_file())
    def test_catalog_files_give_their_exit_code(self, case):
        text, expected = case
        assert _run_on_text(_CLASSIFY, text) == expected

    @settings(max_examples=100, deadline=None)
    @given(text=st.builds(json.dumps, _any_json))
    def test_any_json_catalog_gives_an_exit_code(self, text):
        assert _run_on_text(_CLASSIFY, text) in (0, 2, 3)


# wrong JSON types that int() or bool() would convert, and some that no
# conversion takes
def _wrong_int(x):
    wrong = [float(x), x + 0.5, str(x), [x], None]
    return st.sampled_from(wrong + [bool(x)] * (x in (0, 1)))


@st.composite
def _perm_file(draw):
    """(JSON text, exit code of `report`): a zero-fixing permutation file of
    r <= 4, valid or with a single defect."""
    r = draw(st.integers(0, 4))
    perm = [0] + draw(st.permutations(range(1, 1 << r)))
    obj = {"r": r, "perm": perm}
    defects = ["none", "r type", "perm type", "image type", "count"] + ["repeated image"] * (r > 0)
    defect = draw(st.sampled_from(defects))
    j, k = draw(st.lists(st.integers(0, len(perm) - 1), min_size=2, max_size=2, unique=r > 0))
    if defect == "none":
        return json.dumps(obj), 0
    if defect == "r type":
        obj["r"] = draw(_wrong_int(r))
    elif defect == "perm type":
        obj["perm"] = draw(st.sampled_from(["".join(map(str, perm)), dict.fromkeys(map(str, perm), 0), None, r]))
    elif defect == "image type":
        perm[j] = draw(_wrong_int(perm[j]))
    elif defect == "count":
        obj["perm"] = draw(st.sampled_from([perm[:-1], perm + [len(perm)], perm + perm]))
    elif defect == "repeated image":
        perm[j] = perm[k]
    return json.dumps(obj), 3


@cache
def _r3_group_objs():
    return [pio.group_to_obj(g) for g in islice(enumerate_regular_subgroups(3), 6)]


@st.composite
def _groups_file(draw):
    """(JSON text, groups or None): a groups file holding a prefix of the r=3
    groups, or the same with a single defect (None)."""
    groups = json.loads(json.dumps(_r3_group_objs()[: draw(st.integers(0, 6))]))
    obj = {"r": 3, "complete": draw(st.booleans()), "groups": groups}
    defects = ["none", "r type", "complete type", "groups type", "r range"]
    if groups:
        defects += ["group r type", "group r", "row type", "missing key", "extra key", "short matrix", "wide matrix"]
    defect = draw(st.sampled_from(defects))
    group = draw(st.sampled_from(groups)) if groups else None
    mat = group["mats"][str(draw(st.integers(0, 7)))] if groups else None
    if defect == "none":
        return json.dumps(obj), groups
    if defect == "r type":
        obj["r"] = draw(_wrong_int(3))
    elif defect == "r range":
        obj["r"] = draw(st.sampled_from([2, 5, -1, 1 << 70]))
    elif defect == "complete type":
        obj["complete"] = draw(st.sampled_from(["false", "true", 0, 1, None, []]))
    elif defect == "groups type":
        obj["groups"] = draw(st.sampled_from([{str(i): g for i, g in enumerate(groups)}, None, "groups", 3]))
    elif defect == "group r type":
        group["r"] = draw(_wrong_int(3))
    elif defect == "group r":
        # a group's r, or the file's, changes: the r=3 groups then do not fit r=4
        if draw(st.booleans()):
            obj["r"] = 4
        else:
            group["r"] = draw(st.sampled_from([2, 4]))
    elif defect == "row type":
        i = draw(st.integers(0, 2))
        mat[i] = draw(st.sampled_from([list(mat[i]), int(mat[i], 2), None]))
    elif defect == "missing key":
        del group["mats"][str(draw(st.integers(0, 7)))]
    elif defect == "extra key":
        group["mats"][draw(st.sampled_from(["8", "x", "-1"]))] = ["100", "010", "001"]
    elif defect == "short matrix":
        mat.pop()
    elif defect == "wide matrix":
        mat[:] = [row + "0" for row in mat]
    return json.dumps(obj), None


class TestJsonReaderProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=_perm_file())
    @example(case=('{"r": 3.9, "perm": "02134567"}', 3))
    @example(case=('{"r": true, "perm": [0, 1]}', 3))
    def test_permutation_files_give_their_exit_code(self, case):
        text, expected = case
        assert _run_on_text(["report", "--tau", "{path}"], text) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=_groups_file())
    @example(case=('{"r": 3, "complete": "false", "groups": []}', None))
    def test_groups_files_roundtrip_or_are_malformed(self, case):
        text, groups = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "groups.json"
            path.write_text(text)
            if groups is None:
                with pytest.raises(MalformedInput):
                    pio.load_groups(path)
                return
            r, complete, loaded = pio.load_groups(path)
            pio.save_groups(path, r, loaded, complete)
            assert path.read_text() == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
            assert [pio.group_to_obj(g) for g in loaded] == groups

"""Every table deqlab writes goes through `reporting.write_csv`."""

import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deqlab.reporting import write_csv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deqlab"


def rows_of(path):
    return [line.split(",") for line in path.read_text().splitlines()]


class TestWriteCsv:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_floats_round_trip_bit_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_csv(path, "step,value", enumerate(values))
        read = [float(v) for _, v in rows_of(path)[1:]]
        pack = lambda xs: struct.pack(f"{len(xs)}d", *xs)
        assert pack(read) == pack(values)

    def test_special_floats_and_numpy_scalars(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b,c,d", [(math.inf, -math.inf, -0.0,
                                     np.float64(0.1))])
        assert rows_of(path)[1] == ["inf", "-inf", "-0", "0.10000000000000001"]

    def test_bools_ints_and_strings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "name,flag,numpy_flag,count",
                  [("margin", True, np.bool_(False), np.int64(7))])
        assert rows_of(path) == [["name", "flag", "numpy_flag", "count"],
                                 ["margin", "true", "false", "7"]]

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "l,error", enumerate([0.5, 0.25], start=1))
        assert path.read_bytes() == b"l,error\r\n1,0.5\r\n2,0.25\r\n"

    def test_append_skips_rows_up_to_the_last_step(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "step,loss", [(0, 1.0), (1, 0.5), (2, 0.25)])
        write_csv(path, "step,loss", [(2, 9.0), (3, 0.125), (4, 0.0625)],
                  append=True)
        assert rows_of(path) == [["step", "loss"], ["0", "1"], ["1", "0.5"],
                                 ["2", "0.25"], ["3", "0.125"],
                                 ["4", "0.0625"]]

    def test_append_cuts_the_file_after_the_first_new_step(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "step,loss", [(0, 1.0), (1, 0.5), (2, 0.25), (3, 0.125)])
        write_csv(path, "step,loss", [(1, 9.0), (2, 8.0), (3, 7.0)], append=True)
        assert rows_of(path) == [["step", "loss"], ["0", "1"], ["1", "0.5"],
                                 ["2", "8"], ["3", "7"]]

    @pytest.mark.parametrize("existing", [None, b"", b"step,loss\r\n"])
    def test_append_rewrites_a_missing_empty_or_header_only_file(
            self, tmp_path, existing):
        path = tmp_path / "t.csv"
        if existing is not None:
            path.write_bytes(existing)
        write_csv(path, "step,loss", [(2, 0.25), (3, 0.125)], append=True)
        assert path.read_bytes() == b"step,loss\r\n2,0.25\r\n3,0.125\r\n"

    def test_without_append_overwrites(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "step,loss", [(0, 1.0), (1, 0.5)])
        write_csv(path, "step,loss", [(0, 2.0)])
        assert rows_of(path) == [["step", "loss"], ["0", "2"]]


def test_csv_is_imported_only_by_reporting():
    """A new table goes through write_csv instead of growing its own
    writer; data.py's matrix and labels schema writers need no csv module."""
    importers = []
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "csv" in names:
                importers.append(source.name)
    assert importers == ["reporting.py"]

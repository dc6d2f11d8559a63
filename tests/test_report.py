import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from test_cli import VERIFY_FULL_3D, write
from wavecert import cli, condition
from wavecert.bundled import config_text
from wavecert.report import CSV_BLOCK_ROWS, _spell_repeats, dumps_stable, strip_duration, write_csv

B = CSV_BLOCK_ROWS
VALUES = [-0.0, 5e-324, 1e300, -1.5e-7, 0.1, 2.0, -3.0, float("inf"), float("-inf"), float("nan")]
# NaN without and with its sign bit, and with a payload: three bit patterns, one spelling
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
SPECIALS = [0.0, -0.0, *NANS.view(np.float64), 5e-324, float("inf"), float("-inf"), 3.0, -7.0, 1e17]


def reference_csv(header, columns):
    """The per-point CSV as ``csv.writer`` writes it, one value at a time:
    Python ints as they are, floats as ``format(v, ".17g")``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for idx in range(len(columns[0])):
        row = []
        for column in columns:
            values = column[idx].tolist()
            for v in values if isinstance(values, list) else [values]:
                row.append(v if isinstance(v, int) else format(v, ".17g"))
        writer.writerow(row)
    return out.getvalue().encode()


def repeated(m, distinct, shift=0):
    """``m`` rows cycling through the first ``distinct`` of SPECIALS (then
    integral floats), starting ``shift`` places in."""
    pool = np.array(SPECIALS + [10.0 + k for k in range(max(0, distinct - len(SPECIALS)))])
    return np.roll(np.resize(pool[:distinct], m), shift)


class TestJsonReport:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_float_reads_back_bit_for_bit(self, value):
        got = json.loads(dumps_stable({"v": value}))["v"]
        assert type(got) is float
        if math.isnan(value):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", value)

    def test_strip_duration_keeps_signed_zero_and_integer(self):
        doc = dumps_stable({"duration_seconds": 1.5, "zero": -0.0, "count": 3})
        got = json.loads(strip_duration(doc))
        assert got == {"zero": -0.0, "count": 3}
        assert math.copysign(1.0, got["zero"]) == -1.0 and type(got["count"]) is int

    def test_text_outside_ascii_is_escaped(self):
        # a lone surrogate (a path byte that is not UTF-8) has no UTF-8 of its own
        assert dumps_stable({"path": "\udcff-\u00e9\n"}) == '{\n  "path": "\\udcff-\\u00e9\\n"\n}\n'


class TestWriteCsv:
    @pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_matches_csv_writer_byte_for_byte(self, tmp_path, m):
        cycle = np.resize(np.array(VALUES), 7 * m)
        columns = [
            np.arange(m),  # integral ids print as integers
            cycle[: 3 * m].reshape(m, 3),
            cycle[3 * m : 4 * m],
            cycle[4 * m :].reshape(m, 3),
        ]
        header = ["id", "x1", "x2", "x3", "k", "minor1", "minor2", "minor3"]
        path = tmp_path / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, columns)

    def test_value_spellings(self, tmp_path):
        path = tmp_path / "values.csv"
        write_csv(path, ["v"], [np.array(VALUES)])
        lines = path.read_bytes().split(b"\r\n")
        assert lines[:4] == [b"v", b"-0", b"4.9406564584124654e-324", b"1.0000000000000001e+300"]
        assert lines[-4:] == [b"inf", b"-inf", b"nan", b""]


class TestRepeatedFields:
    """A field with at most one distinct float64 bit pattern per four rows is
    formatted once per pattern; the bytes are the same as value by value."""

    @pytest.mark.parametrize("m", [B - 1, B + 1, 4 * B + 5])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_signed_zeros_nans_and_specials(self, tmp_path, m, shift):
        # -0.0 and 0.0 share a field, as do three NaN bit patterns; a value
        # keyed lookup would print the second zero as the first
        distinct = len(SPECIALS) if m > 4 * len(SPECIALS) else m // 4
        field = repeated(m, distinct, shift)
        columns = [
            np.repeat(np.arange(4), -(-m // 4))[:m],  # an int64 field that repeats
            field,
            np.column_stack([field[::-1], np.linspace(-1.0, 1.0, m), repeated(m, 2, shift)]),
            np.arange(m) * 0.5 - 1.0,  # a distinct field
        ]
        assert _spell_repeats(field).dtype == object
        header = ["ray", "v", "w1", "w2", "w3", "u"]
        path = tmp_path / "repeats.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, columns)
        if shift == 0 and m > 4 * len(SPECIALS):
            rows = path.read_bytes().split(b"\r\n")[1 : 1 + len(SPECIALS)]
            assert [row.split(b",")[1] for row in rows] == [
                b"0", b"-0", b"nan", b"nan", b"nan", b"4.9406564584124654e-324",
                b"inf", b"-inf", b"3", b"-7", b"1e+17",
            ]

    @pytest.mark.parametrize("m", [B, 4 * B + 3])
    @pytest.mark.parametrize("over", [0, 1], ids=["at-threshold", "over-threshold"])
    def test_distinct_counts_around_the_threshold(self, tmp_path, m, over):
        field = repeated(m, m // 4 + over, shift=1)
        assert len(set(field.view(np.int64).tolist())) == m // 4 + over
        assert (_spell_repeats(field).dtype == object) == (over == 0)
        columns = [field, np.column_stack([field, -field])]
        path = tmp_path / "threshold.csv"
        write_csv(path, ["a", "b1", "b2"], columns)
        assert path.read_bytes() == reference_csv(["a", "b1", "b2"], columns)


class TestRealDumps:
    """The columns the CLI hands to ``write_csv`` give the bytes that
    ``csv.writer`` gives them, on dumps whose axes repeat."""

    @pytest.fixture
    def captured(self, monkeypatch):
        calls = []

        def capture(path, header, columns):
            calls.append((path, header, [np.array(c) for c in columns]))
            write_csv(path, header, columns)

        monkeypatch.setattr(condition, "write_csv", capture)
        monkeypatch.setattr(cli, "write_csv", capture)
        return calls

    def assert_dump_matches(self, calls):
        ((path, header, columns),) = calls
        assert Path(path).read_bytes() == reference_csv(header, columns)
        return columns

    def test_verify_full_3d_field(self, tmp_path, captured):
        cfg = write(tmp_path, VERIFY_FULL_3D)
        dump = tmp_path / "grid.csv"
        argv = ["verify", "--config", cfg, "--resolution", "9", "--dump-grid", str(dump)]
        assert cli.main(argv) == cli.EXIT_OK
        pts = self.assert_dump_matches(captured)[0]
        assert all(_spell_repeats(axis).dtype == object for axis in pts.T)

    def test_rays_from_a_signed_zero_center(self, tmp_path, captured):
        dump = tmp_path / "rays.csv"
        argv = ["rays", "--config", write(tmp_path, config_text("disk-trap")), "--center=-0,0",
                "--count", "8", "--horizon", "2", "--dump-grid", str(dump)]
        assert cli.main(argv) == cli.EXIT_OK
        ray, t_index, points = self.assert_dump_matches(captured)
        starts = [row.split(",") for row in dump.read_text().splitlines()[1:] if row.split(",")[1] == "0"]
        assert len(starts) == 8 and all(row[2] == "-0" for row in starts)
        assert _spell_repeats(ray.astype(np.float64)).dtype == object

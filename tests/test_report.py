import csv
import io

import numpy as np
import pytest

from wavecert.report import CSV_BLOCK_ROWS, write_csv

B = CSV_BLOCK_ROWS
VALUES = [-0.0, 5e-324, 1e300, -1.5e-7, 0.1, 2.0, -3.0, float("inf"), float("-inf"), float("nan")]


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

"""tools/relator_axis.py runs on this checkout and prints one table row per
grid point, each with a count, a time or a peak for every column.  The Fox
pass folds its term lists every FOLD_LETTERS letters, so its peak stays
under 256 KiB at every grid point (about 21 KiB at 7,000 letters); a pass
holding one term per letter peaks at 650-930 KiB there."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_relator_axis_prints_one_row_per_grid_point():
    out = subprocess.run([sys.executable, "-B", "tools/relator_axis.py", "--repeat", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    header = lines[1].strip("|").split("|")
    rows = [line.strip("|").split("|") for line in lines[3:]]
    assert [row[0].strip() for row in rows] == [
        "240, 2", "240, 3", "1000, 2", "1000, 3", "7000, 2", "7000, 3"]
    for row in rows:
        assert len(row) == len(header)
        assert all(float(cell) > 0 for cell in row[1:])
        target = int(row[0].split(",")[0])
        # the relator is about as long as asked, and under the parser's cap
        assert target <= int(row[1]) < min(target + 16, 10_000)
        assert float(row[header.index(" Fox peak KiB ")]) < 256

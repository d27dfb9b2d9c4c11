import warnings

import numpy as np
import pytest

from pcpsketch.errors import InvalidInputError, InvalidMatrixError
from pcpsketch.matio import (
    load_binary,
    load_csv,
    load_matrix,
    save_binary,
    save_csv,
    save_matrix,
)


def awkward_matrix():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    a[0, 0] = 1e-300
    a[1, 1] = -1e300
    a[2, 2] = 1.0 / 3.0
    return a


class TestBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        a = awkward_matrix()
        path = tmp_path / "a.pcpm"
        save_binary(path, a)
        assert np.array_equal(load_binary(path), a)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.pcpm"
        save_binary(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob[:4] == b"PCPM"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:16], "little") == 2
        assert int.from_bytes(blob[16:24], "little") == 3
        assert len(blob) == 24 + 2 * 3 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcpm"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(InvalidInputError):
            load_binary(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.pcpm"
        save_binary(path, np.eye(2))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidInputError):
            load_binary(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pcpm"
        save_binary(path, np.eye(3))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(InvalidInputError):
            load_binary(path)


    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.pcpm"
        save_binary(path, np.eye(3))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(InvalidInputError, match="72"):
            load_binary(path)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        # 17 significant digits reproduce doubles exactly
        a = awkward_matrix()
        path = tmp_path / "a.csv"
        save_csv(path, a)
        assert np.array_equal(load_csv(path), a)

    def test_comment_line_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1.5,2.5\n3.5,4.5\n")
        assert np.array_equal(load_csv(path), [[1.5, 2.5], [3.5, 4.5]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("# 2 2\n1,2\n\n3,4\n")
        assert np.array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_must_match_data(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("# exported matrix\n# 2 2\n# 2 columns\n1,2\n3,4\n")
        assert np.array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        for header in ("# 3 2", "# 2 3"):
            path.write_text(header + "\n1,2\n3,4\n")
            with pytest.raises(InvalidInputError, match="header"):
                load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(InvalidInputError, match="2"):
            load_csv(path)

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1,two\n")
        with pytest.raises(InvalidInputError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidMatrixError):
            load_csv(path)

    def test_comment_only_file_without_warning(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("# 2 2\n# nothing here\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrixError, match="no data rows"):
                load_csv(path)

    def test_trailing_comment_on_a_row_rejected(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("1,2 # note\n3,4\n")
        with pytest.raises(InvalidInputError, match="trailing.csv"):
            load_csv(path)

    def test_comments_between_rows_ignored(self, tmp_path):
        path = tmp_path / "between.csv"
        path.write_text("# 2 2\n1,2\n# 9 9\n  # indented note\n3,4\n")
        assert np.array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_one_row_and_one_column_stay_2d(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("# 1 3\n1,2,3\n")
        assert load_csv(path).shape == (1, 3)
        path.write_text("# 3 1\n1\n2\n3\n")
        assert np.array_equal(load_csv(path), [[1.0], [2.0], [3.0]])
        path.write_text("5\n")
        assert load_csv(path).shape == (1, 1)

    def test_errors_name_the_file_line(self, tmp_path):
        # a header, comments and a blank line before the bad row: the
        # message names the line an editor shows, not the data row
        path = tmp_path / "lines.csv"
        path.write_text("# 3 2\n# exported\n1,2\n\n# more\n3,x\n5,6\n")
        with pytest.raises(InvalidInputError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:6: unparseable row"
        path.write_text("# 3 2\n1,2\n# note\n\n3,4,5\n6,7\n")
        with pytest.raises(InvalidInputError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:5: row has 3 values, expected 2"
        path.write_text("1,2\n# a comment\n3,1_000\n")
        with pytest.raises(InvalidInputError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: unparseable row"
        path.write_text("# a comment\n1,2 # note\n3,4\n")
        with pytest.raises(InvalidInputError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:2: unparseable row"


class TestDispatch:
    def test_suffix_selects_format(self, tmp_path):
        a = awkward_matrix()
        bin_path = tmp_path / "x.pcpm"
        csv_path = tmp_path / "x.csv"
        save_matrix(bin_path, a)
        save_matrix(csv_path, a)
        assert bin_path.read_bytes()[:4] == b"PCPM"
        assert csv_path.read_text().startswith("#")

    def test_load_sniffs_magic_regardless_of_name(self, tmp_path):
        a = awkward_matrix()
        disguised = tmp_path / "actually_binary.csv"
        save_binary(disguised, a)
        assert np.array_equal(load_matrix(disguised), a)

    def test_load_csv_content(self, tmp_path):
        a = awkward_matrix()
        path = tmp_path / "y.csv"
        save_matrix(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="no such file"):
            load_matrix(tmp_path / "absent.csv")

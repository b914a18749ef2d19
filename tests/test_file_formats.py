"""Golden bytes for every file the package writes, and the parser's accepted
input forms. These pin the on-disk formats so the readers and writers can be
reimplemented underneath without changing a byte."""

import numpy as np
import pytest
from scipy import sparse

from sscomp.data import DataMatrix, Labels, load_csv, save_csv, save_labels
from sscomp.omp import CoefMatrix
from sscomp.spectral import AffinityMatrix, build_affinity

POINTS = DataMatrix(np.array([[0.1, 1 / 3, -2.5], [1e-300, -0.0, 123456789.125]]))
COEFS = CoefMatrix.from_triplets([1, 0, 3], [0, 2, 1], [0.25, -1 / 3, 2e-17], 4)


class TestWriters:
    def test_save_csv_with_labels(self, tmp_path):
        path = tmp_path / "points.csv"
        save_csv(POINTS, path, labels=Labels([1, 0, 1], 2))
        assert path.read_bytes() == (
            b"0.10000000000000001,1e-300,1\r\n"
            b"0.33333333333333331,-0,0\r\n"
            b"-2.5,123456789.125,1\r\n"
        )

    def test_save_csv_without_labels(self, tmp_path):
        path = tmp_path / "points.csv"
        save_csv(POINTS, path)
        assert path.read_bytes() == (
            b"0.10000000000000001,1e-300\r\n"
            b"0.33333333333333331,-0\r\n"
            b"-2.5,123456789.125\r\n"
        )

    def test_save_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        save_labels(Labels([2, 0, 1, 1], 3), path)
        assert path.read_bytes() == b"2\n0\n1\n1\n"

    def test_coef_triplets(self, tmp_path):
        path = tmp_path / "coefs.csv"
        COEFS.save_csv(path)
        assert path.read_bytes() == (
            b"row,col,value\r\n"
            b"1,0,0.25\r\n"
            b"3,1,2.0000000000000001e-17\r\n"
            b"0,2,-0.33333333333333331\r\n"
        )

    def test_affinity_triplets(self, tmp_path):
        path = tmp_path / "affinity.csv"
        build_affinity(COEFS).save_csv(path)
        assert path.read_bytes() == (
            b"row,col,value\r\n"
            b"0,1,0.25\r\n"
            b"0,2,0.33333333333333331\r\n"
            b"1,0,0.25\r\n"
            b"1,3,2.0000000000000001e-17\r\n"
            b"2,0,0.33333333333333331\r\n"
            b"3,1,2.0000000000000001e-17\r\n"
        )

    def test_empty_matrices_write_header_only(self, tmp_path):
        coef_path, affinity_path = tmp_path / "c.csv", tmp_path / "a.csv"
        CoefMatrix.from_triplets([], [], [], 4).save_csv(coef_path)
        AffinityMatrix(sparse.csr_array((3, 3))).save_csv(affinity_path)
        assert coef_path.read_bytes() == b"row,col,value\r\n"
        assert affinity_path.read_bytes() == b"row,col,value\r\n"


class TestParser:
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(ValueError, match=r"row 3, column 2: non-finite"):
            load_csv(path)

    def test_bad_cell_after_header_and_blank_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n\n1,2\n3,x\n")
        with pytest.raises(ValueError, match=r"row 3, column 2: cannot parse 'x'"):
            load_csv(path)

    def test_blank_rows_header_and_quoted_cells(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(
            'f0,"f 1",label\n'
            "\n"
            '"1.5",-2,3\n'
            "   ,  \n"
            ' 0.25 ,"1e-3",3\n'
            ",,\n"
            '4,"5",7\n'
        )
        x, y = load_csv(path, has_labels=True)
        assert x.values.T.tolist() == [[1.5, -2.0], [0.25, 1e-3], [4.0, 5.0]]
        assert y.assignments.tolist() == [0, 0, 1]

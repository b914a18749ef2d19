"""Golden bytes for every file the package writes, and the parser's accepted
input forms. These pin the on-disk formats so the readers and writers can be
reimplemented underneath without changing a byte."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from sscomp.cli import main
from sscomp.data import DataMatrix, Labels, load_csv, save_csv, save_labels
from sscomp.experiment import compare, read_aggregate_csv, write_comparison_csv
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


AGGREGATE_HEADER = b"dataset,n,samples,K,eps,sigma,seed,method,accr,time,conn,perc,ssr,sea,error"
COMPARISON_HEADER = (
    b"dataset,n,samples,K,eps,sigma,seed,accr_baseline,accr_adaptive,delta_accr,"
    b"delta_conn,delta_perc,delta_ssr,delta_sea,time_ratio,adaptive_loses,error"
)


def aggregate_row(method, accr, time, conn, perc, ssr, sea):
    return {"dataset": "d", "n": "3", "samples": "", "K": "8", "eps": "1e-06",
            "sigma": "0.1", "seed": "4", "method": method, "accr": accr, "time": time,
            "conn": conn, "perc": perc, "ssr": ssr, "sea": sea, "error": ""}


class TestReports:
    def test_sweep_files_and_printed_rows(self, tmp_path, capsys):
        code = main(["sweep", "--synth", "3,2,12,8", "--k", "3", "--seed", "7",
                     "--axis", "sigma", "--values", "0,0.2", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert (tmp_path / "aggregate.csv").read_bytes().startswith(AGGREGATE_HEADER + b"\r\n")
        rows = read_aggregate_csv(tmp_path / "aggregate.csv")
        assert len(rows) == 4
        assert out[:4] == [
            f"noise_sigma={r['sigma']} {r['method']}: accr={r['accr']} time={r['time']} "
            f"conn={r['conn']} perc={r['perc']} ssr={r['ssr']} sea={r['sea']}"
            for r in rows
        ]

    def test_comparison_digits(self, tmp_path):
        base = aggregate_row("omp", "91.2345", "0.123456", "0.654321", "45.6789",
                             "12.3456", "0.876543")
        adaptive = aggregate_row("adaptive-omp", "93.3579", "0.234567", "0.701234",
                                 "47.1111", "10.0002", "0.912345")
        path = tmp_path / "comparison.csv"
        write_comparison_csv(compare([base, adaptive]), path)
        assert path.read_bytes() == (
            COMPARISON_HEADER + b"\r\n"
            b"d,3,,8,1e-06,0.1,4,91.2345,93.3579,2.1234,0.046913,1.4322,-2.3454,"
            b"0.035802,1.9000,,\r\n"
        )


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

    @pytest.mark.parametrize("text, message", [
        ("a,b\n\n  ,  \n", "header but no data rows"),
        ("\n  ,  \n,,\n", "empty CSV"),
        ("1,2\n3,4\n", "need at least 3 points, got 2"),
        ("1,2\n3,x,5\n6,7\n", "row 2 has 3 fields, expected 2"),
    ])
    def test_rejection_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["1\n2\nx\n", "f\nx\n3\n4\n"])
    def test_label_column_width_checked_before_any_bad_row(self, tmp_path, text):
        path = tmp_path / "narrow.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_csv(path, has_labels=True)
        assert str(info.value) == (
            f"{path}: need at least one feature column plus a label column"
        )

    def test_byte_order_mark_keeps_the_first_point(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,0,0\r\n0,1,0\r\n1,1,1\r\n0.5,2,1\r\n")
        x, y = load_csv(path, has_labels=True)
        assert x.values.T.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 2.0]]
        assert y.assignments.tolist() == [0, 0, 1, 1]

    def test_loader_holds_only_numbers(self, tmp_path):
        rng = np.random.default_rng(3)
        x = DataMatrix(rng.standard_normal((400, 300)))
        path = tmp_path / "wide.csv"
        save_csv(x, path, labels=Labels(np.arange(300) % 3, 3))
        tracemalloc.start()
        try:
            loaded, _ = load_csv(path, has_labels=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, x.values)
        assert peak < 5 * loaded.values.nbytes

    @pytest.mark.parametrize("first, is_header", [("1_000, 1.5 ", False), ("0x10,1", True), (",1", True)])
    def test_header_is_a_first_row_that_float_rejects(self, tmp_path, first, is_header):
        path = tmp_path / "first.csv"
        path.write_text(f"{first}\n1,2\n3,4\n5,6\n")
        x, _ = load_csv(path)
        body = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert x.values.T.tolist() == (body if is_header else [[1000.0, 1.5]] + body)

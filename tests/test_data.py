"""Packaged synthetic dataset and CSV round-tripping."""

import csv
import hashlib

import numpy as np
import pytest

from choqfuse.data import (
    DataFormatError,
    LabeledScoreSet,
    load_csv,
    synthetic_csv_path,
    synthetic_dataset,
    write_csv,
)


class TestSyntheticDataset:
    def test_shape(self):
        data = synthetic_dataset()
        assert data.client_scores.shape == (30, 3)
        assert data.impostor_scores.shape == (30, 3)
        assert data.client_ids[0] == "P1" and data.client_ids[-1] == "P30"
        assert data.impostor_ids[0] == "P31" and data.impostor_ids[-1] == "P60"

    def test_spot_values_against_source_tables(self):
        data = synthetic_dataset()
        rows = dict(zip(data.client_ids + data.impostor_ids,
                        np.vstack([data.client_scores, data.impostor_scores])))
        np.testing.assert_array_equal(rows["P1"], [0.98, 0.98, 0.98])
        np.testing.assert_array_equal(rows["P16"], [0.9, 0.8, 0.1])
        np.testing.assert_array_equal(rows["P31"], [0.1, 0.1, 0.1])
        np.testing.assert_array_equal(rows["P60"], [0.6, 0.55, 0.55])

    def test_identical_across_calls(self):
        a, b = synthetic_dataset(), synthetic_dataset()
        assert a == b
        assert a is not b

    def test_packaged_csv_is_pinned(self):
        path = synthetic_csv_path()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "8d0bee502d3b039cc484b23adedf6d56929949d0d9ed9c57816a0e80fde9a4b7"
        data = load_csv(path)
        assert data.client_scores.shape == data.impostor_scores.shape == (30, 3)
        assert data.client_ids == tuple(f"P{i}" for i in range(1, 31))
        assert data.impostor_ids == tuple(f"P{i}" for i in range(31, 61))

    def test_packaged_csv_round_trips_exactly(self, tmp_path):
        path = tmp_path / "synthetic.csv"
        write_csv(synthetic_dataset(), path)
        assert path.read_bytes() == synthetic_csv_path().read_bytes()


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        path = tmp_path / "scores.csv"
        data = synthetic_dataset()
        write_csv(data, path)
        assert load_csv(path) == data

    def test_round_trip_preserves_full_float_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        data = LabeledScoreSet(
            ("a", "b"), rng.uniform(0, 1, (2, 4)),
            ("c",), rng.uniform(0, 1, (1, 4)),
        )
        path = tmp_path / "scores.csv"
        write_csv(data, path)
        assert load_csv(path) == data

    @pytest.mark.parametrize("ids,n_clients,n_impostors,n", [
        (["a,b", 'say "hi"', "x\ny", "cr\rlf", '"', "P1", "plain id", "semi;colon"], 5, 3, 4),
        (None, 8191, 2, 1),
        (None, 8192, 8193, 3),
        (None, 2, 8193, 2),
    ])
    def test_bytes_equal_the_csv_writer_loop(self, tmp_path, ids, n_clients, n_impostors, n):
        rng = np.random.default_rng(n_clients + n_impostors)
        total = n_clients + n_impostors
        ids = ids or [f"p{i}" if i % 7 else f'p,{i}"q' for i in range(total)]
        scores = rng.choice([0.0, 1.0, 0.25, 0.5], (total, n))
        scores[::3] = rng.uniform(0.0, 1.0, (len(scores[::3]), n))
        data = LabeledScoreSet(ids[:n_clients], scores[:n_clients],
                               ids[n_clients:], scores[n_clients:])
        write_csv(data, tmp_path / "blocks.csv")
        # The one-row-per-person csv.writer loop write_csv used before it
        # wrote in blocks, kept as the reference.
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["person_id", "label"] + [f"m{i + 1}" for i in range(n)])
            for label, ids, rows in (("client", data.client_ids, data.client_scores),
                                     ("impostor", data.impostor_ids, data.impostor_scores)):
                for pid, row in zip(ids, rows):
                    writer.writerow([pid, label] + [repr(float(s)) for s in row])
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert load_csv(tmp_path / "blocks.csv") == data

    @pytest.mark.parametrize("ids", [(" a", "b"), ("a", "b\t"), ("a ", "a"), ("", "b"),
                                     ("a", " ")])
    def test_ids_that_would_not_round_trip_are_refused(self, tmp_path, ids):
        data = LabeledScoreSet(ids[:1], [[0.5]], ids[1:], [[0.25]])
        path = tmp_path / "scores.csv"
        with pytest.raises(ValueError, match="round-trip"):
            write_csv(data, path)
        assert not path.exists()

    def test_interleaved_labels_keep_row_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("person_id,label,m1,m2\n"
                        "a,impostor,0.1,0.2\nb,client,0.9,0.8\n\n"
                        "c,impostor,0.3,0.4\nd,client,0.7,0.6\n")
        data = load_csv(path)
        assert data.client_ids == ("b", "d") and data.impostor_ids == ("a", "c")
        np.testing.assert_array_equal(data.client_scores, [[0.9, 0.8], [0.7, 0.6]])
        np.testing.assert_array_equal(data.impostor_scores, [[0.1, 0.2], [0.3, 0.4]])

    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("person_id,label,m1\nalice,client,0.9\nmallory,impostor,0.2\n")
        data = load_csv(path)
        assert data.n_modalities == 1
        assert data.client_ids == ("alice",) and data.impostor_ids == ("mallory",)

    def test_labels_are_case_insensitive(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("person_id,label,m1\na,Client,0.9\nb,IMPOSTOR,0.2\n")
        data = load_csv(path)
        assert data.client_ids == ("a",)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        body = "person_id,label,m1,m2\r\nP1,client,0.9,0.8\r\nP2,impostor,0.1,0.25\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, newline="")
        marked.write_text("\ufeff" + body, encoding="utf-8", newline="")
        assert load_csv(marked) == load_csv(plain)
        marked.write_text("\ufeff" + body.replace("0.25", "1.25"), encoding="utf-8", newline="")
        with pytest.raises(DataFormatError) as exc:
            load_csv(marked)
        assert str(exc.value).endswith("row 3, column m2: score 1.25 outside [0, 1] "
                                       "(use normalize=True for raw scores)")


class TestNormalization:
    def test_normalize_maps_each_column_to_unit_range(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "person_id,label,m1,m2\n"
            "a,client,10,0.5\n"
            "b,client,20,0.7\n"
            "c,impostor,5,0.1\n"
        )
        data = load_csv(path, normalize=True)
        merged = np.vstack([data.client_scores, data.impostor_scores])
        np.testing.assert_allclose(sorted(merged[:, 0]), [0.0, 1 / 3, 1.0])
        np.testing.assert_allclose(sorted(merged[:, 1]), [0.0, 2 / 3, 1.0])

    def test_out_of_range_raw_scores_need_normalize(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("person_id,label,m1\na,client,1.7\nb,impostor,0.2\n")
        with pytest.raises(DataFormatError, match=r"row 2.*m1.*1\.7"):
            load_csv(path)
        data = load_csv(path, normalize=True)
        assert data.client_scores[0, 0] == 1.0

    def test_a_span_past_the_largest_float_is_halved(self, tmp_path):
        # hi - lo overflows for the first column only; the second keeps the
        # plain form's bits.
        path = tmp_path / "raw.csv"
        path.write_text("person_id,label,m1,m2\na,client,1e308,3\nb,impostor,-1e308,1\n"
                        "c,client,5e307,2.2\n")
        data = load_csv(path, normalize=True)
        assert data.client_scores.tolist() == [[1.0, 1.0], [0.75, (2.2 - 1) / (3 - 1)]]
        assert data.impostor_scores.tolist() == [[0.0, 0.0]]

# Files with several faults, the normalize flag, and the whole message after
# "<path>: ": the first fault in file order (row, then column) is reported.
MULTI_FAULT_FILES = {
    "range_row_2_before_field_count_row_4": (
        "person_id,label,m1,m2\na,client,1.5,0.2\nb,impostor,0.1,0.2\nc,client,0.3\n", False,
        "row 2, column m1: score 1.5 outside [0, 1] (use normalize=True for raw scores)"),
    "label_row_3_before_non_numeric_row_5": (
        "person_id,label,m1,m2\na,client,0.5,0.2\nb,genuine,0.1,0.2\n"
        "c,client,0.3,0.4\nd,impostor,high,0.1\n", False,
        "row 3 has unknown label 'genuine'"),
    "range_m1_before_non_numeric_m2": (
        "person_id,label,m1,m2\na,client,0.5,0.2\nb,impostor,-0.25,x\n", False,
        "row 3, column m1: score -0.25 outside [0, 1] (use normalize=True for raw scores)"),
    "non_numeric_m2_before_range_m3": (
        "person_id,label,m1,m2,m3\na,client,0.5,x,2.0\nb,impostor,0.1,0.2,0.3\n", False,
        "row 2, column m2: non-numeric score 'x'"),
    "range_before_empty_person_id": (
        "person_id,label,m1\na,client,0.5\nb,impostor,-0.0001\n,client,0.2\n", False,
        "row 3, column m1: score -0.0001 outside [0, 1] (use normalize=True for raw scores)"),
    "range_after_blank_lines": (
        "person_id,label,m1\na,client,0.5\n\n\nb,impostor,1.0000001\n", False,
        "row 5, column m1: score 1.0000001 outside [0, 1] (use normalize=True for raw scores)"),
    "nan_cell": (
        "person_id,label,m1,m2\na,client,0.5,0.2\n\nb,impostor,0.1, NaN\n", False,
        "row 4, column m2: non-finite score ' NaN'"),
    "inf_cell": (
        "person_id,label,m1,m2\na,client,0.5,0.2\nb,impostor,-inf,0.3\n", False,
        "row 3, column m1: non-finite score '-inf'"),
    "overflowing_cell_before_range": (
        "person_id,label,m1,m2\na,client,0.5,1e999\nb,impostor,2.0,0.3\n", False,
        "row 2, column m2: non-finite score '1e999'"),
    "normalize_inf_before_non_numeric": (
        "person_id,label,m1,m2\na,client,5,7\nb,impostor,12,inf\nc,client,3,x\n", True,
        "row 3, column m2: non-finite score 'inf'"),
    "range_row_2_before_broken_quote_row_3": (
        'person_id,label,m1\nP1,client,1.5\n"ab"c,impostor,0.3\nP3,impostor,0.2\n', False,
        "row 2, column m1: score 1.5 outside [0, 1] (use normalize=True for raw scores)"),
}


class TestLoadErrors:
    @pytest.mark.parametrize("name", sorted(MULTI_FAULT_FILES))
    def test_first_fault_in_file_order_is_reported(self, tmp_path, name):
        body, normalize, message = MULTI_FAULT_FILES[name]
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, normalize=normalize)
        assert str(exc.value) == f"{path}: {message}"

    def _write(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nothing.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(self._write(tmp_path, ""))

    def test_malformed_header(self, tmp_path):
        path = self._write(tmp_path, "id,cls,m1\na,client,0.5\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    def test_header_without_score_columns(self, tmp_path):
        path = self._write(tmp_path, "person_id,label\na,client\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    def test_inconsistent_column_count(self, tmp_path):
        path = self._write(
            tmp_path, "person_id,label,m1,m2\na,client,0.5,0.6\nb,impostor,0.2\n"
        )
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_unknown_label(self, tmp_path):
        path = self._write(tmp_path, "person_id,label,m1\na,genuine,0.5\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(path)

    def test_non_numeric_score(self, tmp_path):
        path = self._write(
            tmp_path, "person_id,label,m1\na,client,high\nb,impostor,0.2\n"
        )
        with pytest.raises(DataFormatError, match=r"row 2.*m1"):
            load_csv(path)

    def test_missing_class(self, tmp_path):
        path = self._write(tmp_path, "person_id,label,m1\na,client,0.5\n")
        with pytest.raises(DataFormatError, match="impostor"):
            load_csv(path)

    def test_duplicate_person_ids(self, tmp_path):
        path = self._write(
            tmp_path, "person_id,label,m1\na,client,0.5\na,impostor,0.2\n"
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(path)

    def test_empty_person_id(self, tmp_path):
        path = self._write(tmp_path, "person_id,label,m1\n,client,0.5\n")
        with pytest.raises(DataFormatError, match="person_id"):
            load_csv(path)

    def test_stray_quote_names_the_file_and_the_row(self, tmp_path):
        # The quote opens a field that swallows the rest of the file.
        rng = np.random.default_rng(17)
        lines = ["person_id,label,m1,m2,m3"] + [
            f"P{i},{('client', 'impostor')[i % 2]}," + ",".join(f"{v:.3f}" for v in row)
            for i, row in enumerate(rng.uniform(0, 1, (20_000, 3)))]
        lines[5] = '"' + lines[5]
        path = tmp_path / "quote.csv"
        path.write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}: row 6 is not valid CSV (")
        # One message: no csv.Error is shown chained to it.
        assert exc.value.__context__ is None or exc.value.__suppress_context__
        path.write_text('"person_id,label,m1\r\n' + "x" * 200_000)
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}: row 1 is not valid CSV (")

    @pytest.mark.parametrize("body", [b"person_id,label,m\xff1\na,client,0.5\n",
                                      b"person_id,label,m1\na,client,0.5\nb\xff,impostor,0.2\n"])
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, body):
        path = tmp_path / "latin.csv"
        path.write_bytes(body)
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte: b'\\xff')"

    @pytest.mark.parametrize("body,row,reason", [
        # The last field opens a quote that the file never closes.
        (b'person_id,label,m1\r\nP1,client,0.9\r\n"P3",impostor,"0.3\r\n', 3,
         "unexpected end of data"),
        # Text after a closing quote.
        (b'person_id,label,m1\n"ab"c,client,0.9\nP2,impostor,0.3\n', 2,
         "',' expected after '\"'"),
    ])
    def test_quoting_is_strict(self, tmp_path, body, row, reason):
        path = tmp_path / "quote.csv"
        path.write_bytes(body)
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: row {row} is not valid CSV ({reason})"


def plain_score_lines(rng, rows, n):
    """Lines of a score file shaped like the benchmark's: P<i> ids, 3-decimal scores."""
    labels = np.where(rng.random(rows) < 0.5, "client", "impostor")
    cells = rng.integers(0, 1001, (rows, n)) / 1000
    return ["person_id,label," + ",".join(f"m{j + 1}" for j in range(n))] + [
        f"P{i},{label}," + ",".join(f"{v:.3f}" for v in row)
        for i, (label, row) in enumerate(zip(labels, cells))]


class TestPlainFileReader:
    """Plain files are read with numpy; csv.reader reads every other file."""

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_plain_file_is_read_without_csv_reader(self, tmp_path, monkeypatch, line_end):
        # About 4.5 MiB: five blocks of the numpy reader, so rows meet at block edges.
        lines = plain_score_lines(np.random.default_rng(18), 120_000, 4)
        path = tmp_path / "plain.csv"
        path.write_text(line_end.join(lines) + line_end, newline="")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("\n".join(lines[:1] + ['"' + line.replace(",", '",', 1)
                                                 for line in lines[1:]]), newline="")
        reference = load_csv(quoted)
        assert reference.client_scores.shape[0] + reference.impostor_scores.shape[0] == 120_000

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", no_reader)
        assert load_csv(path) == reference
        with pytest.raises(AssertionError, match="csv.reader called"):
            load_csv(quoted)

"""Labeled score datasets: the packaged synthetic benchmark and CSV I/O.

CSV schema (UTF-8, '.' decimal separator):

    person_id,label,m1,m2,...,mk

with ``label`` either ``client`` or ``impostor`` (case-insensitive) and one
score column per modality.  ``load_csv`` strips whitespace around person ids
and rejects empty ones; ``write_csv`` emits the identical schema and refuses
ids that would not survive that, so whenever it writes a file
``load_csv(write_csv(s)) == s`` round-trips exactly.
"""

from __future__ import annotations

import csv
import math
from array import array
from importlib import resources
from itertools import compress, islice

import numpy as np

from .metrics import LabeledScoreSet, normalize_minmax

__all__ = [
    "DataFormatError",
    "load_csv",
    "synthetic_csv_path",
    "synthetic_dataset",
    "write_csv",
]


# Lines formatted per write by ``write_rows``.
_BLOCK_ROWS = 8192


class DataFormatError(ValueError):
    """A score file does not conform to the CSV schema."""


def synthetic_dataset() -> LabeledScoreSet:
    """The packaged 60-person, 3-modality synthetic benchmark.

    30 clients (P1-P30) and 30 impostors (P31-P60) scored by three virtual
    modalities, built to cover the combinations a score-fusion module can
    face (agreeing/contradicting modalities, borderline cases).  Read from
    ``synthetic_csv_path()``.
    """
    return load_csv(synthetic_csv_path())


def synthetic_csv_path():
    """Path of the packaged CSV file holding ``synthetic_dataset()``."""
    return resources.files(__package__).joinpath("synthetic.csv")


def write_csv(dataset: LabeledScoreSet, path) -> None:
    """Write a labeled score set using the package CSV schema.

    Raises ``ValueError``, before opening ``path``, for person ids that
    ``load_csv`` would not read back as themselves: ids with leading or
    trailing whitespace, or empty ones.
    """
    bad = [pid for pid in dataset.client_ids + dataset.impostor_ids
           if not pid or pid != pid.strip()]
    if bad:
        raise ValueError(f"person ids would not round-trip through load_csv "
                         f"(empty or with surrounding whitespace): {bad!r}")
    n = dataset.n_modalities
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["person_id", "label"] + [f"m{i + 1}" for i in range(n)]) + "\r\n")
        write_rows(fh, "client", dataset.client_ids, dataset.client_scores)
        write_rows(fh, "impostor", dataset.impostor_ids, dataset.impostor_scores)


def write_rows(fh, label: str, ids, values: np.ndarray) -> None:
    """Write one ``id,label,v1,...,vk`` line per row of the (N, k) array ``values``.

    The bytes are those ``csv.writer`` writes for ``[id, label] + [repr(v)
    for v in row]`` (excel dialect; ``label`` needs no quoting).  Lines are
    formatted and written ``_BLOCK_ROWS`` at a time, so no Python object is
    kept per row.
    """
    line = "{}," + label + ",{!r}" * values.shape[1] + "\r\n"
    for start in range(0, len(ids), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        fields = map(_csv_field, ids[start:stop])
        fh.write("".join(map(line.format, fields, *values[start:stop].T.tolist())))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it (excel dialect, minimal quoting)."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def load_csv(path, normalize: bool = False) -> LabeledScoreSet:
    """Load a labeled score file.

    With ``normalize=True`` each score column is min-max normalized over all
    rows (clients and impostors together); otherwise raw values outside
    [0, 1] are rejected with the offending row and column named.  Of several
    faults the first in file order is reported, row by row and, within a
    row, column by column.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0].lower() != "person_id" or header[1].lower() != "label":
            raise DataFormatError(
                f"{path}: malformed header {header!r}; expected "
                f"person_id,label,m1,...,mk"
            )
        column_names = header[2:]
        # Columnar: one id and one class flag per row, the scores in one flat
        # buffer, so no Python object is kept per row or per cell.
        ids: list[str] = []
        is_client = bytearray()
        values = array("d")

        def fail(message: str):
            # A bad score in an earlier row comes first in file order.
            _check_scores(path, column_names, values, normalize)
            raise DataFormatError(f"{path}: {message}")

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                fail(f"row {line_no} has {len(row)} fields, header has {len(header)}")
            pid = row[0].strip()
            if not pid:
                fail(f"row {line_no} has an empty person_id")
            label = row[1].strip().lower()
            if label not in ("client", "impostor"):
                fail(f"row {line_no} has unknown label {row[1]!r}")
            try:
                values.extend(map(float, row[2:]))
            except ValueError:
                # The cells before the failing one stay in ``values``, in
                # file order, so ``fail`` checks them first.
                errors = (_cell_error(line_no, col, cell, normalize)
                          for col, cell in zip(column_names, row[2:]))
                fail(next(e for e in errors if e))
            ids.append(pid)
            is_client.append(label == "client")

    _check_scores(path, column_names, values, normalize)
    if not ids:
        raise DataFormatError(f"{path}: no data rows")
    matrix = np.frombuffer(values).reshape(len(ids), len(column_names))
    if normalize:
        matrix = np.column_stack(
            [normalize_minmax(matrix[:, j]) for j in range(matrix.shape[1])]
        )
    client = np.frombuffer(is_client, dtype=bool)
    for label, rows in (("client", client), ("impostor", ~client)):
        if not rows.any():
            raise DataFormatError(f"{path}: no {label} rows")
    try:
        return LabeledScoreSet(
            client_ids=tuple(compress(ids, client)),
            client_scores=matrix[client],
            impostor_ids=tuple(compress(ids, ~client)),
            impostor_scores=matrix[~client],
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _cell_error(line_no: int, col: str, cell: str, normalize: bool) -> str | None:
    """What is wrong with one score cell, or None."""
    try:
        value = float(cell)
    except ValueError:
        return f"row {line_no}, column {col}: non-numeric score {cell!r}"
    if not math.isfinite(value):
        return f"row {line_no}, column {col}: non-finite score {cell!r}"
    if not normalize and not 0.0 <= value <= 1.0:
        return (f"row {line_no}, column {col}: score {value!r} "
                f"outside [0, 1] (use normalize=True for raw scores)")
    return None


def _check_scores(path, column_names, values: array, normalize: bool) -> None:
    """Raise the ``DataFormatError`` of the first bad cell of the parsed rows.

    A cell is bad when it is not finite or, without ``normalize``, outside
    [0, 1].  Only the failing row is read again, for its line number and
    its cell text.
    """
    x = np.frombuffer(values)
    ok = np.isfinite(x) if normalize else (x >= 0.0) & (x <= 1.0)
    if ok.all():
        return
    row_index, j = divmod(int(np.argmin(ok)), len(column_names))
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = ((n, r) for n, r in enumerate(reader, start=2) if r)
        line_no, row = next(islice(rows, row_index, None))
    message = _cell_error(line_no, column_names[j], row[2 + j], normalize)
    raise DataFormatError(f"{path}: {message}")

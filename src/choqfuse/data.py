"""Labeled score sets: the packaged synthetic benchmark, normalization, CSV I/O.

CSV schema (UTF-8, '.' decimal separator):

    person_id,label,m1,m2,...,mk

with ``label`` either ``client`` or ``impostor`` (case-insensitive) and one
score column per modality.  ``load_csv`` strips whitespace around person ids
and rejects empty ones; ``write_csv`` emits the identical schema and refuses
ids that would not survive that, so whenever it writes a file
``load_csv(write_csv(s)) == s`` round-trips exactly.  Every CSV file the
package writes goes through the block row writer ``write_rows``.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import compress, islice

import numpy as np

__all__ = [
    "DataFormatError",
    "LabeledScoreSet",
    "load_csv",
    "normalize_minmax",
    "synthetic_csv_path",
    "synthetic_dataset",
    "write_csv",
]


# Lines formatted per write by ``write_rows``.
_BLOCK_ROWS = 8192


class DataFormatError(ValueError):
    """A score file does not conform to the CSV schema."""


@dataclass(frozen=True)
class LabeledScoreSet:
    """Client and impostor score vectors: the fusion/evaluation substrate.

    Score matrices are one row per person, one column per modality, all
    values already normalized into [0, 1].  Person ids are unique across
    both classes.  Instances are immutable and safe to share.
    """

    client_ids: tuple[str, ...]
    client_scores: np.ndarray
    impostor_ids: tuple[str, ...]
    impostor_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "client_ids", tuple(str(i) for i in self.client_ids))
        object.__setattr__(self, "impostor_ids", tuple(str(i) for i in self.impostor_ids))
        cs = np.array(self.client_scores, dtype=float)
        imp = np.array(self.impostor_scores, dtype=float)
        for name, ids, arr in (("client", self.client_ids, cs),
                               ("impostor", self.impostor_ids, imp)):
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"{name} scores must be a non-empty matrix")
            if arr.shape[0] != len(ids):
                raise ValueError(f"{len(ids)} {name} ids for {arr.shape[0]} score rows")
            if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} scores must lie in [0, 1]")
        if cs.shape[1] != imp.shape[1]:
            raise ValueError(
                f"clients have {cs.shape[1]} modalities, impostors {imp.shape[1]}"
            )
        all_ids = self.client_ids + self.impostor_ids
        if len(set(all_ids)) != len(all_ids):
            dupes = sorted(i for i, count in Counter(all_ids).items() if count > 1)
            raise ValueError(f"duplicate person ids: {dupes}")
        cs.flags.writeable = False
        imp.flags.writeable = False
        object.__setattr__(self, "client_scores", cs)
        object.__setattr__(self, "impostor_scores", imp)

    @property
    def n_modalities(self) -> int:
        return int(self.client_scores.shape[1])

    @property
    def clients(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.client_ids, self.client_scores))

    @property
    def impostors(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.impostor_ids, self.impostor_scores))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledScoreSet):
            return NotImplemented
        return (
            self.client_ids == other.client_ids
            and self.impostor_ids == other.impostor_ids
            and np.array_equal(self.client_scores, other.client_scores)
            and np.array_equal(self.impostor_scores, other.impostor_scores)
        )


def normalize_minmax(raw) -> np.ndarray:
    """Affinely map values onto [0, 1]: x -> (x - min) / (max - min).

    A degenerate input (max == min) maps everything to 0.5 rather than
    erroring out, so batch pipelines survive constant columns.
    """
    x = np.asarray(raw, dtype=float)
    if x.size == 0:
        raise ValueError("cannot normalize an empty list")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


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
        for label, ids, scores in (("client", dataset.client_ids, dataset.client_scores),
                                   ("impostor", dataset.impostor_ids, dataset.impostor_scores)):
            write_rows(fh, "{}," + label + ",{!r}" * n + "\r\n", [csv_fields(ids), *scores.T])


def write_rows(fh, line: str, columns) -> None:
    """Write ``line.format(*row)`` for each row of the equal-length ``columns``.

    Lines are formatted and written ``_BLOCK_ROWS`` at a time.  Array
    columns turn into Python numbers one block at a time, so no number
    object is kept per row and ``{!r}`` writes the ``repr`` that the
    standard ``csv`` module's writer writes for a float.
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        fh.write("".join(map(line.format, *(
            b.tolist() if isinstance(b, np.ndarray) else b for b in block))))


def csv_fields(texts) -> list[str]:
    """``texts`` as the ``csv`` module's writer writes them (excel dialect, minimal quoting)."""
    return ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\r" in t or "\n" in t
            else t for t in texts]


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

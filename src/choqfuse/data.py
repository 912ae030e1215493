"""Labeled score datasets: the packaged synthetic benchmark and CSV I/O.

CSV schema (UTF-8, '.' decimal separator):

    person_id,label,m1,m2,...,mk

with ``label`` either ``client`` or ``impostor`` (case-insensitive) and one
score column per modality.  ``write_csv`` emits the identical schema, so
``load_csv(write_csv(s)) == s`` round-trips exactly.
"""

from __future__ import annotations

import csv
from importlib import resources

import numpy as np

from .metrics import LabeledScoreSet, normalize_minmax

__all__ = [
    "DataFormatError",
    "load_csv",
    "synthetic_csv_path",
    "synthetic_dataset",
    "write_csv",
]


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
    """Write a labeled score set using the package CSV schema."""
    n = dataset.n_modalities
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["person_id", "label"] + [f"m{i + 1}" for i in range(n)])
        for label, rows in (("client", dataset.clients), ("impostor", dataset.impostors)):
            for pid, scores in rows:
                writer.writerow([pid, label] + [repr(float(s)) for s in scores])


def load_csv(path, normalize: bool = False) -> LabeledScoreSet:
    """Load a labeled score file.

    With ``normalize=True`` each score column is min-max normalized over all
    rows (clients and impostors together); otherwise raw values outside
    [0, 1] are rejected with the offending row and column named.
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
        records: list[tuple[str, str, tuple[float, ...]]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {line_no} has {len(row)} fields, header has "
                    f"{len(header)}"
                )
            pid = row[0].strip()
            if not pid:
                raise DataFormatError(f"{path}: row {line_no} has an empty person_id")
            label = row[1].strip().lower()
            if label not in ("client", "impostor"):
                raise DataFormatError(
                    f"{path}: row {line_no} has unknown label {row[1]!r}"
                )
            scores = []
            for col, cell in zip(column_names, row[2:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {line_no}, column {col}: non-numeric "
                        f"score {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataFormatError(
                        f"{path}: row {line_no}, column {col}: non-finite "
                        f"score {cell!r}"
                    )
                if not normalize and not 0.0 <= value <= 1.0:
                    raise DataFormatError(
                        f"{path}: row {line_no}, column {col}: score {value!r} "
                        f"outside [0, 1] (use normalize=True for raw scores)"
                    )
                scores.append(value)
            records.append((pid, label, tuple(scores)))

    if not records:
        raise DataFormatError(f"{path}: no data rows")
    matrix = np.array([scores for _, _, scores in records])
    if normalize:
        matrix = np.column_stack(
            [normalize_minmax(matrix[:, j]) for j in range(matrix.shape[1])]
        )
    client_rows = [i for i, (_, label, _) in enumerate(records) if label == "client"]
    impostor_rows = [i for i, (_, label, _) in enumerate(records) if label == "impostor"]
    for label, rows in (("client", client_rows), ("impostor", impostor_rows)):
        if not rows:
            raise DataFormatError(f"{path}: no {label} rows")
    try:
        return LabeledScoreSet(
            client_ids=tuple(records[i][0] for i in client_rows),
            client_scores=matrix[client_rows],
            impostor_ids=tuple(records[i][0] for i in impostor_rows),
            impostor_scores=matrix[impostor_rows],
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None

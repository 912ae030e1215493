"""Labeled score sets: the packaged synthetic benchmark, normalization, CSV I/O.

CSV schema (UTF-8, '.' decimal separator):

    person_id,label,m1,m2,...,mk

with ``label`` either ``client`` or ``impostor`` (case-insensitive) and one
score column per modality.  ``load_csv`` strips whitespace around person ids
and rejects empty ones; ``write_csv`` emits the identical schema and refuses
ids that would not survive that, so whenever it writes a file
``load_csv(write_csv(s)) == s`` round-trips exactly.  Every CSV file the
package writes goes through the one table writer ``write_table``.
"""

from __future__ import annotations

import csv
import functools
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


# Lines formatted per write by ``write_table``.
_BLOCK_ROWS = 8192
# Bytes of a score file read at a time by ``load_csv``'s numpy reader.
_PLAIN_BLOCK_BYTES = 1 << 20


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
        self._check(np.array(self.client_scores, dtype=float),
                    np.array(self.impostor_scores, dtype=float))

    @classmethod
    def _of_owned(cls, client_ids, client_scores, impostor_ids, impostor_scores):
        """A set of str id tuples and float matrices that no one else holds.

        Checked as the constructor checks, but nothing is copied or passed
        through ``str``: the matrices are frozen in place.  For ``load_csv``.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "client_ids", client_ids)
        object.__setattr__(self, "impostor_ids", impostor_ids)
        self._check(client_scores, impostor_scores)
        return self

    def _check(self, cs: np.ndarray, imp: np.ndarray) -> None:
        """Check the ids and the float score matrices, then store the matrices read-only."""
        for name, ids, arr in (("client", self.client_ids, cs),
                               ("impostor", self.impostor_ids, imp)):
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"{name} scores must be a non-empty matrix")
            if arr.shape[0] != len(ids):
                raise ValueError(f"{len(ids)} {name} ids for {arr.shape[0]} score rows")
            if not ((arr >= 0.0) & (arr <= 1.0)).all():  # False at NaN and +-inf too
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
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.full_like(x, 0.5)
    if math.isinf(hi - lo):  # halved only here, so every other column keeps its bits
        return (x / 2 - lo / 2) / (hi / 2 - lo / 2)
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
    scores = np.concatenate([dataset.client_scores, dataset.impostor_scores])
    write_table(path, ["person_id", "label"] + [f"m{i + 1}" for i in range(n)],
                "%s,%s" + ",%r" * n, id_label_columns(dataset) + list(scores.T))


def write_table(path, header, line: str, columns) -> None:
    """Write a UTF-8 CSV file: the ``header`` fields, then ``line % row`` per row.

    The rows are those of the equal-length ``columns``; every line ends in
    CRLF.  Lines are formatted and written ``_BLOCK_ROWS`` at a time.  Array
    columns turn into Python numbers one block at a time, so no number
    object is kept per row and ``%r`` writes the ``repr`` that the
    standard ``csv`` module's writer writes for a float.

    A line made only of ``%.6g`` fields, on float64 array columns, is
    formatted by numpy (``_g6_lines``), with the same bytes; ``%`` writes the
    rows that path cannot prove.
    """
    g6 = (line.split(",") == ["%.6g"] * len(columns)
          and all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns))
    line += "\r\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS] for c in columns]
            if g6:
                fh.write(_g6_lines(line, np.column_stack(block)))
            else:
                fh.write(_percent_lines(line, zip(*(
                    b.tolist() if isinstance(b, np.ndarray) else b for b in block))))


def _percent_lines(line: str, rows) -> bytes:
    """``line % row`` for each row, joined and encoded."""
    return "".join(map(line.__mod__, rows)).encode("utf-8")


# ``_g6_lines`` indexes its per-exponent tables by e + _G6_E0, e in [-101, 100].
_G6_E0 = 101


@functools.cache
def _g6_tables():
    """The lookup tables of ``_g6_lines``, built on first use.

    A field is cut from a 24-byte superset of every ``%.6g`` text of its
    value: ``-0.000`` d1 ``.`` d2 ``.`` d3 ``.`` d4 ``.`` d5 ``.`` d6
    ``e+-`` E1 E2, then ``,`` and a spare byte, or CRLF after the last
    field.  The bytes come as three 8-byte words: one of d1, one of d2..d5
    and one of d6, the exponent and the field's end.  A keep mask, looked
    up by (last field, sign, notation, trailing zeros), picks the field's
    text out of them.
    """
    digits = np.frombuffer(b"0123456789", np.uint8)
    e = np.arange(-_G6_E0, _G6_E0)
    head = np.frombuffer(b"-0.0000.", np.uint8).reshape(1, 8).repeat(10, axis=0)
    head[:, 6] = digits
    middle = np.full((10_000, 8), ord("."), np.uint8)
    middle[:, ::2] = digits[np.indices((10,) * 4).reshape(4, -1).T]
    tail = np.empty((2, e.size, 10, 8), np.uint8)
    tail[...] = np.frombuffer(b"0e+-00,\0", np.uint8)
    tail[1, ..., 6:] = np.frombuffer(b"\r\n", np.uint8)
    tail[..., 0] = digits
    two = np.minimum(abs(e), 99)  # |e| > 99 only reaches rows left to %
    tail[..., 4] = digits[two // 10, np.newaxis]
    tail[..., 5] = digits[two % 10, np.newaxis]
    # Trailing zeros of the four digits d2..d5.
    zeros4 = np.zeros(10_000, np.intp)
    for step in (10, 100, 1000, 10_000):
        zeros4[::step] += 1
    # Notation c: exponent form below 1e-4 (c = 0), fixed form for the
    # exponents -4..5 (c = 1..10), exponent form from 1e6 (c = 11).
    keep = np.zeros((2, 2, 12, 7, 24), bool)  # last field, sign, c, trailing zeros
    digit_at = 6 + 2 * np.arange(6)
    keep[..., 22] = True
    keep[1, ..., 23] = True
    keep[:, 1, ..., 0] = True
    for c in range(12):
        exp = c - 5
        for zeros in range(7):
            mask = keep[:, :, c, zeros]
            if 0 <= exp <= 5:
                kept = 6 - min(zeros, 5 - exp)
                mask[..., digit_at[:kept]] = True
                mask[..., digit_at[exp] + 1] = kept > exp + 1
            elif -4 <= exp < 0:
                mask[..., 1:2 - exp] = True  # "0." and -e - 1 zeros
                mask[..., digit_at[:6 - min(zeros, 5)]] = True
            else:
                kept = 6 - min(zeros, 5)
                mask[..., digit_at[:kept]] = True
                mask[..., 7] = kept > 1
                mask[..., [17, 18 if c else 19, 20, 21]] = True
    # 10**(5 - e), correctly rounded: Python's int-to-float and int/int are.
    scale = np.array([float(10 ** (5 - k)) if k <= 5 else 1 / 10 ** (k - 5) for k in e.tolist()])
    u64 = np.uint64
    return (head.view(u64).ravel(), middle.view(u64).ravel(), tail.view(u64).ravel(),
            keep.view(u64).reshape(-1, 3), keep.sum(axis=-1).ravel(), zeros4, scale,
            (np.clip(e, -5, 6) + 5) * 7)


def _g6_lines(line: str, x: np.ndarray) -> bytes:
    """The bytes of ``line % row`` for each row of the (n, k) float block ``x``.

    ``line`` is ``%.6g`` k times, comma-separated, and CRLF.  Per value,
    with e the decimal exponent, s = |x| * 10**(5 - e) is one multiply by a
    correctly rounded power of ten, so it is within two roundings, below
    2.3e-10, of the true value.  e is log10's estimate, corrected once so
    that s lies in [1e5, 1e6).  Unless s is within 1e-9 of a rounding tie,
    rounding s to the nearest integer r gives the six digits that ``%``
    (correctly rounded) writes; r = 10**6 is 10**5 with e + 1.  A row with a
    value near a tie, a value outside [1e-99, 1e99) other than 0, or a
    value s could not be brought into [1e5, 1e6) for is written by ``%``
    and spliced in at its byte offset.
    """
    head, middle, tail, keep_table, length, zeros4, scale, notation = _g6_tables()
    n, k = x.shape
    a = np.abs(x)
    ok = a >= 1e-99
    ok &= a < 1e99
    zero = a == 0.0
    np.copyto(a, 1.0, where=~ok)  # no log10(0) or NaN below
    j = np.floor(np.log10(a)).astype(np.intp)
    j += _G6_E0
    s = scale.take(j)
    s *= a
    # log10 may be off by one next to a power of ten.
    above, below = s >= 1e6, s < 1e5
    fix = np.flatnonzero(above | below)
    if fix.size:
        flat = j.ravel()
        flat[fix] += above.ravel()[fix]
        flat[fix] -= below.ravel()[fix]
        s.ravel()[fix] = a.ravel()[fix] * scale.take(flat[fix])
    r = np.rint(s)
    doubt = np.abs(s - r) > 0.5 - 1e-9
    doubt |= s < 1e5
    doubt |= s >= 1e6
    doubt |= ~(ok | zero)
    up = np.flatnonzero(r == 1e6)
    r.ravel()[up] = 1e5
    j.ravel()[up] += 1
    np.copyto(r, 0.0, where=zero)  # 0 has e = 0: the fixed form keeps d1
    digits = r.astype(np.intp)
    d1_5 = digits // 10
    d6 = digits - 10 * d1_5
    d1 = d1_5 // 10_000
    d2_5 = d1_5 - 10_000 * d1
    last = np.zeros(k, np.intp)
    last[-1] = 1
    words = np.empty((n, k, 3), np.uint64)
    words[:, :, 0] = head.take(d1)
    words[:, :, 1] = middle.take(d2_5)
    words[:, :, 2] = tail.take(last * (tail.size // 2) + 10 * j + d6)
    # Trailing zeros of the six digits (6 for 0).
    zeros = zeros4.take(d2_5)
    zeros += 1 + (digits == 0)
    zeros *= d6 == 0
    # The keep mask's row: (last field, sign, notation, zeros) in a (2, 2, 12, 7) table.
    kind = notation.take(j)
    kind += zeros
    kind += 84 * np.signbit(x) + 168 * last
    keep = keep_table.take(kind, axis=0)
    bad = np.unique(np.flatnonzero(doubt) // k)
    keep[bad] = 0
    body = np.compress(keep.view(bool).ravel(), words.view(np.uint8).ravel()).tobytes()
    if not bad.size:
        return body
    sizes = length.take(kind)
    sizes[bad] = 0
    ends = np.cumsum(sizes.ravel())[bad * k + k - 1].tolist()
    parts = []
    for row, start, end in zip(bad.tolist(), [0] + ends, ends):
        parts += [body[start:end], _percent_lines(line, [tuple(x[row].tolist())])]
    return b"".join(parts + [body[ends[-1]:]])


def id_label_columns(dataset: LabeledScoreSet) -> list[list[str]]:
    """Person id and label columns, clients first; ids quoted as ``csv.writer`` quotes them."""
    ids = ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\r" in t or "\n" in t
           else t for t in dataset.client_ids + dataset.impostor_ids]
    return [ids, ["client"] * len(dataset.client_ids) + ["impostor"] * len(dataset.impostor_ids)]


def load_csv(path, normalize: bool = False) -> LabeledScoreSet:
    """Load a labeled score file.

    With ``normalize=True`` each score column is min-max normalized over all
    rows (clients and impostors together); otherwise raw values outside
    [0, 1] are rejected with the offending row and column named.  Of several
    faults the first in file order is reported, row by row and, within a
    row, column by column.  Broken CSV quoting (an unterminated quote, text
    after a closing quote) and text that is not UTF-8 are data errors too
    (``DataFormatError``); text that is not UTF-8 is reported as soon as the
    decoder reaches it, which can be before a fault in an earlier row.

    A plain file is read with numpy (``_read_plain``).  Every other file
    is read by the ``csv`` loop (``_read_rows``), which reports any fault in
    the file's structure.  Both readers give the same result.
    """
    column_names, ids, is_client, matrix = _read_plain(path) or _read_rows(path, normalize)
    _check_scores(path, column_names, matrix, normalize)
    if not ids:
        raise DataFormatError(f"{path}: no data rows")
    if normalize:
        matrix = np.column_stack(
            [normalize_minmax(matrix[:, j]) for j in range(matrix.shape[1])]
        )
    for label, rows in (("client", is_client), ("impostor", ~is_client)):
        if not rows.any():
            raise DataFormatError(f"{path}: no {label} rows")
    try:
        return LabeledScoreSet._of_owned(
            tuple(compress(ids, is_client)), matrix[is_client],
            tuple(compress(ids, ~is_client)), matrix[~is_client],
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _header_ok(header: list[str]) -> bool:
    """Whether stripped header fields read person_id,label,m1,...,mk (k >= 1)."""
    return (len(header) >= 3 and header[0].lower() == "person_id"
            and header[1].lower() == "label")


def _read_rows(path, normalize: bool):
    """Column names, ids, client flags and score matrix, read by ``csv.reader``.

    Raises the ``DataFormatError`` of the first structural fault: the header,
    a field count, an id, a label, a score that is not a number, broken
    quoting or text that is not UTF-8.
    """
    line_no = 0  # the last row read: a csv.Error comes from the next one
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if not _header_ok(header):
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
                _check_scores(path, column_names, np.frombuffer(values), normalize)
                raise DataFormatError(f"{path}: {message}")

            line_no = 1  # from here on a csv.Error goes through ``fail``
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
    except csv.Error as exc:
        broken = f"row {line_no + 1} is not valid CSV ({exc})"
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason}: "
                              f"{exc.object[exc.start:exc.end]!r})") from None
    else:
        matrix = np.frombuffer(values).reshape(len(ids), len(column_names))
        return column_names, ids, np.frombuffer(is_client, dtype=bool), matrix
    # Raised outside the handler, so the csv.Error is not chained to it.
    if line_no:  # a data row: a bad score in an earlier row comes first
        fail(broken)
    raise DataFormatError(f"{path}: {broken}")


def _read_plain(path):
    """What ``_read_rows`` returns, read with numpy, or None for a file that is not plain.

    A file is plain when it is ASCII with no ``"``, its only control bytes
    are LF and CR before LF, no line reaches ``csv.field_size_limit()``, its
    header is valid, every later line has the header's comma count, every
    label is ``client`` or ``impostor`` (any case, unpadded), every id is
    non-empty after ``strip`` and ``np.loadtxt`` parses every score cell.  On such text ``csv.reader`` splits at every
    comma and line end, and ``np.loadtxt`` accepts a subset of what
    ``float`` accepts and rounds it the same way, so both readers agree.
    Any other file is left, untouched, to ``_read_rows``, which reports
    every fault; this path raises no ``DataFormatError`` of its own.
    """
    with open(path, "rb") as fh:
        line = fh.readline().decode("ascii", "replace").removesuffix("\n").removesuffix("\r")
        header = [h.strip() for h in line.split(",")]
        if not (line.isascii() and line.isprintable() and _header_ok(header)
                and len(line) < csv.field_size_limit()):
            return None
        ids: list[str] = []
        is_client = []
        # The file is read and checked a block of whole lines at a time, so
        # the temporaries stay small whatever its size.
        while block := fh.read(_PLAIN_BLOCK_BYTES) + fh.readline():
            lines = _plain_lines(block, len(header) - 1)
            if lines is None:
                return None
            ids += lines[0]
            is_client.append(lines[1])
    if not ids or "" in ids:
        return None
    try:
        matrix = np.loadtxt(path, delimiter=",", usecols=range(2, len(header)),
                            comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    if matrix.shape != (len(ids), len(header) - 2):
        return None
    return header[2:], ids, np.concatenate(is_client), matrix


def _plain_lines(block: bytes, commas_per_line: int):
    """Stripped ids and client flags of whole plain lines, or None if one is not plain."""
    if not block.isascii() or b'"' in block or b"\x7f" in block:
        return None
    byte = np.frombuffer(block, np.uint8)
    control = np.flatnonzero(byte < 0x20)
    kind = byte[control]
    if np.any((kind != 0x0A) & ((kind != 0x0D)
                                | (byte.take(control + 1, mode="clip") != 0x0A))):
        return None
    ends = control[kind == 0x0A]
    if byte[-1] != 0x0A:
        ends = np.append(ends, len(byte))
    commas = np.flatnonzero(byte == 0x2C)
    if (np.diff(ends, prepend=-1).max() > csv.field_size_limit()
            or np.any(np.searchsorted(commas, ends)
                      != commas_per_line * np.arange(1, len(ends) + 1))):
        return None
    # Line r's k-th comma is commas[r, k].
    commas = commas.reshape(len(ends), commas_per_line)
    label_start = commas[:, 0] + 1
    label_width = commas[:, 1] - label_start
    is_client = _is_word(byte, label_start, label_width, b"client")
    if not (is_client | _is_word(byte, label_start, label_width, b"impostor")).all():
        return None
    # The bytes of every id and the comma after it, gathered into one string.
    line_start = np.append(0, ends[:-1] + 1)
    size = label_start - line_start
    offset = np.repeat(line_start - np.cumsum(size) + size, size)
    ids = byte[offset + np.arange(len(offset))].tobytes().decode("ascii")
    return list(map(str.strip, ids.split(",")[:-1])), is_client


def _is_word(byte: np.ndarray, start: np.ndarray, width: np.ndarray, word: bytes) -> np.ndarray:
    """Per row, whether ``byte[start:start + width]`` is ``word`` (lower case) in any case."""
    found = width == len(word)
    for j, letter in enumerate(word):
        found &= (byte.take(start + j, mode="clip") | 0x20) == letter
    return found


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


def _check_scores(path, column_names, values: np.ndarray, normalize: bool) -> None:
    """Raise the ``DataFormatError`` of the first bad cell of the parsed scores.

    ``values`` holds the scores read so far in file order.  A cell is bad
    when it is not finite or, without ``normalize``, outside [0, 1].  Only
    the failing row is read again, for its line number and its cell text.
    """
    x = values.ravel()
    ok = np.isfinite(x) if normalize else (x >= 0.0) & (x <= 1.0)
    if ok.all():
        return
    row_index, j = divmod(int(np.argmin(ok)), len(column_names))
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        next(reader)
        rows = ((n, r) for n, r in enumerate(reader, start=2) if r)
        line_no, row = next(islice(rows, row_index, None))
    message = _cell_error(line_no, column_names[j], row[2 + j], normalize)
    raise DataFormatError(f"{path}: {message}")

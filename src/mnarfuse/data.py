"""Pooled two-domain dataset with joint missingness encoding.

A unit belongs to the primary domain (domain tag 1, outcome recorded but
possibly missing not at random) or the auxiliary domain (tag 2, outcome never
recorded, auxiliary variable missing at random).  Missingness of the auxiliary
variable M and the outcome Y in the primary domain is a single joint
indicator R: rows with discordant per-column missingness are rejected, not
repaired.

A dataset is stored as columns, built once when it is read or generated;
estimators and resampling work on the columns, and the per-row records are
derived from them on demand.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

MValue = Union[float, str]


class DomainTag(enum.IntEnum):
    PRIMARY = 1
    AUXILIARY = 2


@dataclass(frozen=True)
class VariableSchema:
    """Column layout: covariate names, the kind of M and Y, file missing token."""

    covariate_names: tuple[str, ...]
    m_kind: str = "numeric"  # "numeric" or "categorical"
    m_levels: tuple[str, ...] = ()
    y_kind: str = "numeric"  # "numeric" or "binary"
    missing_token: str = "?"

    def __post_init__(self):
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ValueError("covariate names must be distinct")
        # the reader strips each header cell and token, and reads an empty M as missing
        for field, texts in [("covariate_names", self.covariate_names),
                             ("m_levels", self.m_levels), ("missing_token", [self.missing_token])]:
            for text in texts:
                if text != text.strip():
                    raise ValueError(f"{field}: {text!r} is padded, and the reader strips it")
        if "" in self.m_levels:
            raise ValueError("m_levels: an empty level reads back as a missing M")
        try:  # a present M or Y written as the token would read back as missing
            written = repr(float(self.missing_token))
        except ValueError:
            written = None
        if written == self.missing_token != "nan":
            raise ValueError(f"missing_token: {written!r} is how write_csv writes "
                             f"the number {written}")
        if self.m_kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown m_kind {self.m_kind!r}")
        if self.y_kind not in ("numeric", "binary"):
            raise ValueError(f"unknown y_kind {self.y_kind!r}")
        if self.m_kind == "categorical":
            if len(self.m_levels) < 2:  # a single level leaves no one-hot column
                raise ValueError("categorical M requires at least 2 levels")
            if len(set(self.m_levels)) != len(self.m_levels):
                raise ValueError("categorical M levels must be distinct")
            if self.missing_token in self.m_levels:  # it would read back as a missing M
                raise ValueError(f"missing token {self.missing_token!r} is also a "
                                 "categorical M level")

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)


@dataclass(frozen=True)
class UnitRecord:
    g: DomainTag
    x: tuple[float, ...]
    m: Optional[MValue]
    y: Optional[float]
    r: int


def _column(values, dtype) -> np.ndarray:
    """Read-only array view of a column; the caller's array stays writable."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _reject_first(bad: np.ndarray, column: np.ndarray, rule: str) -> None:
    """Raise ValueError naming the first row flagged in `bad` and its value."""
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"row {i}: {rule}, got {column[i]}")


class PooledDataset:
    """Pooled two-domain dataset stored as columns.

    g: (n,) domain tags 1 (primary) and 2 (auxiliary)
    x: (n, d) covariates
    m: (n,) M values; for categorical M the index of its level in schema.m_levels
    y: (n,) outcomes
    r: (n,) joint observation indicator of M and Y
    Missing M and Y are NaN.

    `PooledDataset(records=..., schema=...)` builds the columns from per-row
    records; `records` derives them back.  The columns are read-only views
    of the arrays given, which must not change once the dataset is in use:
    `memo` keeps what is derived from them, such as each domain's row index.
    A domain tag other than 1 or 2, or a categorical M that is neither NaN
    nor a level's code, raises ValueError naming its row.
    """

    __slots__ = ("schema", "g", "x", "m", "y", "r", "_memo")

    def __init__(self, schema: VariableSchema, g=None, x=None, m=None, y=None,
                 r=None, *, records: Optional[Iterable[UnitRecord]] = None):
        if records is not None:
            rows = [(rec.g, rec.x, rec.m, rec.y, rec.r) for rec in records]
            built = PooledDataset.from_columns(schema, *(zip(*rows) if rows else ((),) * 5))
            g, x, m, y, r = built.g, built.x, built.m, built.y, built.r
        self.schema = schema
        self.g = _column(g, np.int64)
        self.x = _column(x, float)
        self.m = _column(m, float)
        self.y = _column(y, float)
        self.r = _column(r, np.int64)
        self._memo = {}
        n = self.g.shape[0]
        if self.x.shape != (n, schema.n_covariates):
            raise ValueError(
                f"x has shape {self.x.shape}, expected ({n}, {schema.n_covariates})"
            )
        for name in ("g", "m", "y", "r"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} does not have length {n}")
        _reject_first((self.g != 1) & (self.g != 2), self.g, "domain tag must be 1 or 2")
        if schema.m_kind == "categorical":
            top = len(schema.m_levels) - 1
            m = self.m
            code = (m >= 0) & (m <= top) & (np.trunc(m) == m)
            _reject_first(~(code | np.isnan(m)), m,
                          f"categorical M must be NaN or a level's code 0 to {top}")

    @classmethod
    def from_columns(cls, schema: VariableSchema, g: Sequence, x, m: Sequence,
                     y: Sequence, r: Sequence) -> "PooledDataset":
        """Columns from per-column Python values: g domain tags, x an (n, d)
        array-like, m None, a number or a level label per row, y None or a
        number per row, r observation indicators.  Categorical labels are
        coded here, as `read_csv` codes them; a label outside schema.m_levels
        raises ValueError."""
        if schema.m_kind == "categorical":
            codes = {label: float(i) for i, label in enumerate(schema.m_levels)}
            codes[None] = math.nan
            try:
                m = list(map(codes.__getitem__, m))
            except KeyError as exc:
                raise ValueError(f"unknown M level {exc.args[0]!r}; the levels are "
                                 f"{', '.join(schema.m_levels)}") from None
        return cls(
            schema,
            g=np.array(g, dtype=np.int64),
            x=np.asarray(x, dtype=float).reshape(len(g), schema.n_covariates),
            m=np.array(m, dtype=float),  # None becomes NaN
            y=np.array(y, dtype=float),
            r=np.array(r, dtype=np.int64),
        )

    @classmethod
    def of_draws(cls, schema: VariableSchema, g: np.ndarray, x: np.ndarray, m: np.ndarray,
                 y: np.ndarray, r: np.ndarray) -> "PooledDataset":
        """The dataset of drawn units from their values before masking: M and
        Y are recorded only where R = 1, and Y only in the primary domain.
        g, x (n, d) and r are taken as `PooledDataset` takes them."""
        kept = r == 1
        # y first: its mask temporaries are freed before m is made, which kept
        # a 10**6-draw sample 1.6 MB lower in RSS (x86-64 Linux, glibc malloc)
        y = np.where(kept & (g == DomainTag.PRIMARY), y, np.nan)
        return cls(schema, g=g, x=x, m=np.where(kept, m, np.nan), y=y, r=r)

    def __len__(self) -> int:
        return self.g.shape[0]

    def memo(self, key, build):
        """build(self, key), made at the first lookup of key and kept for
        the dataset's life: a repeated lookup returns the same object."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(self, key)
        return value

    def __repr__(self) -> str:
        return f"PooledDataset(n={len(self)}, schema={self.schema!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PooledDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and all(
                np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                for name in ("g", "x", "m", "y", "r")
            )
        )

    def take(self, rows: np.ndarray) -> "PooledDataset":
        """The dataset made of the given rows, in the given order."""
        return PooledDataset(self.schema, g=self.g[rows], x=self.x[rows], m=self.m[rows],
                             y=self.y[rows], r=self.r[rows])

    def m_values(self) -> list[Optional[MValue]]:
        """M of each row as a Python value: None when missing, else the
        number or the level label."""
        labels = self.schema.m_levels if self.schema.m_kind == "categorical" else None
        return [None if m != m else m if labels is None else labels[int(m)]
                for m in self.m.tolist()]

    @property
    def records(self) -> tuple[UnitRecord, ...]:
        """Per-row view of the columns, built on each access."""
        return tuple(
            UnitRecord(g=DomainTag(g), x=tuple(x), m=m, y=None if y != y else y, r=r)
            for g, x, m, y, r in zip(self.g.tolist(), self.x.tolist(), self.m_values(),
                                     self.y.tolist(), self.r.tolist())
        )


def validate(dataset: PooledDataset) -> list[str]:
    """Return one message per invariant violation; empty list means clean.
    A covariate must be finite, and M and Y finite where present (a
    missing one is NaN)."""
    g, m, y, r = dataset.g, dataset.m, dataset.y, dataset.r
    has_m = ~np.isnan(m)
    has_y = ~np.isnan(y)
    primary = g == DomainTag.PRIMARY
    r1 = r == 1
    r0 = r == 0
    r_valid = r0 | r1
    # (rows, message) in the order the checks of one row are reported
    checks = [
        (~r_valid, lambda i: f"R must be 0 or 1, got {r[i]}"),
        *((~np.isfinite(x), lambda i, name=name, x=x: f"covariate {name} must be finite, "
           f"got {float(x[i])}")
          for name, x in zip(dataset.schema.covariate_names, dataset.x.T)),
        (np.isinf(m), lambda i: f"M must be finite, got {float(m[i])}"),
        (np.isinf(y), lambda i: f"Y must be finite, got {float(y[i])}"),
        (r1 & ~has_m, lambda i: "R=1 but M absent"),
        (r0 & has_m, lambda i: "R=0 but M present"),
        (primary & r1 & ~has_y, lambda i: "primary-domain R=1 but Y absent"),
        (primary & r0 & has_y, lambda i: "primary-domain R=0 but Y present"),
        (r_valid & ~primary & has_y, lambda i: "Y present in auxiliary domain"),
    ]
    if dataset.schema.y_kind == "binary":
        not_binary = has_y & (y != 0) & (y != 1)
        checks.append((not_binary, lambda i: f"binary Y must be 0 or 1, got {float(y[i])}"))
    found = sorted(
        (i, k) for k, (rows, _) in enumerate(checks) for i in np.flatnonzero(rows).tolist()
    )
    violations = [f"row {i}: {checks[k][1](i)}" for i, k in found]
    if not primary.any():
        violations.append("dataset has no primary-domain records")
    if primary.all():
        violations.append("dataset has no auxiliary-domain records")
    return violations


def m_features(m: np.ndarray, schema: VariableSchema) -> np.ndarray:
    """Expand an M column into its (n, m_dim) numeric feature block.

    Categorical M with L levels, coded as PooledDataset admits them, maps to
    L-1 indicators with the first level as reference; numeric M passes
    through as a single feature.  Missing M stays NaN across the block.
    """
    if schema.m_kind == "numeric":
        return m[:, None]
    observed = ~np.isnan(m)
    codes = m[observed]
    n_levels = len(schema.m_levels)
    out = np.full((m.shape[0], n_levels - 1), np.nan)
    out[observed] = codes[:, None] == np.arange(1, n_levels)
    return out


_BLOCK_ROWS = 8192  # rows formatted at a time, which bounds the text in memory


class _Format(NamedTuple):
    """How a column becomes CSV fields: `convert` maps a 1-D array of values
    to the list of their fields, each the repr of a number, the str of an
    integer or one of `texts`."""
    convert: Callable
    texts: tuple = ()


def _write_columns(path: str, header: Sequence[str], columns: Sequence[tuple]) -> None:
    """Write a CSV file with the bytes csv.writer writes, formatting it column
    by column in blocks of _BLOCK_ROWS rows.

    `columns` holds one (values, _Format) pair per header field: values is a
    1-D array, formatted a block at a time.  A block's fields and separators
    are slice-assigned into one list, joined once.  When a text of a format
    needs quoting, the rows go through csv.writer.
    """
    quote = len(columns) == 1 or any(  # csv.writer also quotes a lone empty field
        char in text for _, fmt in columns for text in fmt.texts for char in ',"\r\n')
    n = len(columns[0][0])
    row = [None, ","] * len(columns)  # each field and the separator after it
    row[-1] = "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fields = [fmt.convert(values[block]) for values, fmt in columns]
            if quote:
                writer.writerows(zip(*fields))
                continue
            line = row * len(fields[0])
            for j, texts in enumerate(fields):
                line[2 * j::len(row)] = texts
            fh.write("".join(line))


def _int_texts(values: np.ndarray) -> list:
    """The str of each integer, made once per distinct value."""
    distinct, codes = np.unique(values, return_inverse=True)
    return np.array(list(map(str, distinct.tolist())), dtype=object)[codes].tolist()


def _floats_or(missing: str) -> _Format:
    """The format of a float column: the repr of each value, `missing` for NaN."""
    def convert(values: np.ndarray) -> list:
        present = ~np.isnan(values)
        texts = np.full(len(values), missing, dtype=object)
        texts[present] = np.fromiter(map(repr, values[present].tolist()), object)
        return texts.tolist()
    return _Format(convert, (missing,))


_ints = _Format(_int_texts)
_floats = _floats_or("nan")  # the repr of NaN


def _lookup(texts: Sequence[str]) -> _Format:
    """The format of integer codes: texts[code] for each code, so that -1 is
    the last text."""
    texts = tuple(texts)
    table = np.array(texts, dtype=object)
    return _Format(lambda codes: table[codes].tolist(), texts)


def write_csv(dataset: PooledDataset, path: str) -> None:
    """Write the canonical CSV form: domain, r, covariates, m, y.  A covariate
    named domain, r, m or y raises ValueError before the file is opened,
    since read_csv cannot read that header back."""
    schema = dataset.schema
    for name in schema.covariate_names:
        if name in ("domain", "r", "m", "y"):
            raise ValueError(f"covariate {name!r} would share its header with the "
                             f"{name} column")
    missing = schema.missing_token
    if schema.m_kind == "categorical":
        codes = np.where(np.isnan(dataset.m), -1, dataset.m).astype(np.int64)
        m_column = (codes, _lookup((*schema.m_levels, missing)))
    else:
        m_column = (dataset.m, _floats_or(missing))
    _write_columns(
        path,
        ["domain", "r", *schema.covariate_names, "m", "y"],
        [(dataset.g, _ints), (dataset.r, _ints), *((x, _floats) for x in dataset.x.T),
         m_column, (dataset.y, _floats_or(missing))],
    )


class DatasetFormatError(ValueError):
    """Raised when a CSV file cannot be parsed into a valid dataset."""


NATIVE_DOMAINS = {"1": DomainTag.PRIMARY, "2": DomainTag.AUXILIARY}


def read_text(path: str, name: Optional[str] = None) -> str:
    """The text of a UTF-8 file, without the byte-order mark that
    spreadsheet "CSV UTF-8" exports and Windows Notepad put first.

    A missing file, a directory, an unreadable file and a file that is not
    UTF-8 raise DatasetFormatError naming the file as `name` (its path by
    default), and the last also the line of its first undecodable byte.
    """
    name = path if name is None else name
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DatasetFormatError(f"{name} not found") from None
    except IsADirectoryError:
        raise DatasetFormatError(f"{name} is a directory, not a file") from None
    except OSError as exc:
        raise DatasetFormatError(f"{name} cannot be read: {exc.strerror}") from None
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8):]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at \n, \r and \r\n, as the CSV reader does
        line = len((raw[:exc.start] + b".").splitlines())
        raise DatasetFormatError(
            f"{name}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text; "
            "save the file as UTF-8") from None


def _line_error(path: str, kept: Optional[list[int]], i: int,
                message: str) -> DatasetFormatError:
    """The error for the i-th kept row, naming its line in the file."""
    line = (i if kept is None else kept[i]) + 2
    return DatasetFormatError(f"{path}: line {line}: {message}")


# the line breaks of str.splitlines that csv.reader keeps inside a field
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _tokenize(text: str, path: str, split: bool) -> tuple[list[str], list[list[str]],
                                                          Optional[list[int]]]:
    """The header of CSV text, the tokens of each of its columns, and the
    index among the lines after the header of each kept row, or None when
    every line is kept.  Blank lines are skipped, and a row with another
    number of fields than the header is an error.

    With `split` the text, which must hold no quote and no NUL, is cut at
    line breaks and commas, where csv.reader cuts it; otherwise, or when it
    holds a character that str.splitlines breaks at and csv.reader does not,
    csv.reader reads it.
    """
    split = split and not any(map(text.__contains__, _SPLITLINES_ONLY))
    rows = text.splitlines() if split else list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise DatasetFormatError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    kept = None if all(rows) else [i for i, row in enumerate(rows) if row]
    if kept is not None:
        rows = [rows[i] for i in kept]
    if split:
        header = header.split(",") if header else []  # csv.reader reads [] from a blank line
        # the rows joined by a field "\n", which no token holds, and cut at
        # commas: each row has as many fields as the header when those n - 1
        # fields fall every len(header) + 1 places
        stride = len(header) + 1
        fields = ",\n,".join(rows).split(",") if rows else []
        whole = not rows or (len(fields) == stride * len(rows) - 1
                             and fields[stride - 1::stride].count("\n") == len(rows) - 1)
    else:
        stride = len(header)
        fields = list(chain.from_iterable(rows))
        whole = set(map(len, rows)) <= {stride}
    width = len(header)
    if not whole:
        sizes = ([commas + 1 for commas in map(str.count, rows, repeat(","))] if split
                 else list(map(len, rows)))
        i = next(i for i, size in enumerate(sizes) if size != width)
        raise _line_error(path, kept, i, f"{sizes[i]} fields, the header has {width}")
    return header, [fields[j::stride] for j in range(width)], kept


# white space that str.strip removes from ASCII text split at its line breaks
_ASCII_PADDING = " \t\v\f\x1c\x1d\x1e\x1f"


def read_csv(path: str, schema: VariableSchema, columns: Optional[dict] = None,
             domains: Optional[dict] = None) -> PooledDataset:
    """Read a CSV file into a dataset, finding each column by its header.

    `columns` maps a canonical name (domain, r, m, y or a covariate name) to
    the file's header; a name it leaves out is its own header, so the native
    layout that `write_csv` writes is the identity map.  `domains` maps a
    domain token to its tag and defaults to NATIVE_DOMAINS.  Two names may
    not share a header.  Extra and reordered columns are accepted, a mapped
    header may appear only once, and the y column may be absent (every Y
    missing) unless `columns` maps it.  Every row has as many fields as the
    header; blank lines are skipped.  Header cells and domain, M and Y
    tokens are stripped, and the missing token and the empty cell both mark
    a missing M or Y.  A categorical M token must be one of the schema's
    levels.  The file is UTF-8 text (see `read_text`).
    """
    columns = columns or {}
    domains = NATIVE_DOMAINS if domains is None else domains
    read_as = {}  # header -> what its column is read as
    for name, role in [("domain", "domain"), ("r", "r"),
                       *((name, f"covariate {name}") for name in schema.covariate_names),
                       ("m", "m"), ("y", "y")]:
        header_name = columns.get(name, name)
        if header_name in read_as:
            raise DatasetFormatError(f"{path}: column {header_name!r} is read as both "
                                     f"{read_as[header_name]} and {role}")
        read_as[header_name] = role
    text = read_text(path)
    split = '"' not in text and "\0" not in text  # quoted fields need a real parser
    # strip is the identity on every token of such a text
    bare = split and text.isascii() and not any(map(text.__contains__, _ASCII_PADDING))
    header, column_tokens, kept = _tokenize(text, path, split)
    header = [cell.strip() for cell in header]
    del text

    def fail(i: int, message: str):
        raise _line_error(path, kept, i, message) from None

    def tokens(name: str) -> list[str]:
        header_name = columns.get(name, name)
        count = header.count(header_name)
        if count == 0:
            raise DatasetFormatError(f"{path}: missing column {header_name!r}")
        if count > 1:
            raise DatasetFormatError(
                f"{path}: column {header_name!r} appears {count} times in the header")
        return column_tokens[header.index(header_name)]

    def converted(name: str, tokens: list[str], convert, dtype=float, few: bool = False,
                  unknown: Optional[Callable] = None) -> np.ndarray:
        """The tokens of column `name` converted into an array, one by one or,
        for a column of `few` distinct tokens, each distinct token once.  The
        first token that does not convert is reported with its line: one that
        `convert` has no key for as `unknown(token)`, any other with its column."""
        try:
            if few:
                table = {token: convert(token) for token in set(tokens)}
                return np.fromiter(map(table.__getitem__, tokens), dtype, len(tokens))
            return np.fromiter(map(convert, tokens), dtype, len(tokens))
        except (KeyError, ValueError, OverflowError):
            header_name = columns.get(name, name)
            for i, token in enumerate(tokens):
                try:
                    np.array(convert(token), dtype)
                except KeyError:
                    fail(i, unknown(token))
                except ValueError as exc:
                    fail(i, f"column {header_name!r}: {exc}")
                except OverflowError:  # an int token beyond the range of an int64
                    fail(i, f"column {header_name!r}: {token.strip()!r} "
                            "is out of range for int64")
            raise

    missing = dict.fromkeys(("", schema.missing_token), "nan")

    def optional(name: str) -> np.ndarray:
        """An M or Y column from its stripped tokens: NaN for a missing one,
        else the number or, for categorical M, the code of its level."""
        raw = tokens(name)
        if name == "m" and schema.m_kind == "categorical":
            codes = {**{level: float(i) for i, level in enumerate(schema.m_levels)},
                     **dict.fromkeys(missing, math.nan)}
            return converted(name, raw, lambda token: codes[token.strip()], few=True,
                             unknown=lambda token: f"unknown M level {token.strip()!r}; the "
                                                   f"levels are {', '.join(schema.m_levels)}")
        if name == "y" and schema.y_kind == "binary":
            return converted(name, raw, lambda token: float(missing.get(token.strip(),
                                                                        token.strip())), few=True)
        stripped = raw if bare else list(map(str.strip, raw))
        return converted(name, list(map(missing.get, stripped, stripped)), float)

    tags = {token: int(tag) for token, tag in domains.items()}
    g = converted("domain", tokens("domain"), lambda token: tags[token.strip()], np.int64,
                  few=True, unknown=lambda token: f"unknown domain value {token!r}")
    n = len(g)
    r = converted("r", tokens("r"), int, np.int64, few=True)
    x = np.empty((n, schema.n_covariates))
    for j, name in enumerate(schema.covariate_names):
        x[:, j] = converted(name, tokens(name), float)
    m = optional("m")
    y = optional("y") if "y" in columns or "y" in header else np.full(n, np.nan)
    return PooledDataset(schema, g=g, x=x, m=m, y=y, r=r)

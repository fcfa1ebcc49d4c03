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

import csv
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

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
        if self.m_kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown m_kind {self.m_kind!r}")
        if self.y_kind not in ("numeric", "binary"):
            raise ValueError(f"unknown y_kind {self.y_kind!r}")
        if self.m_kind == "categorical":
            if not self.m_levels:
                raise ValueError("categorical M requires a nonempty level list")
            if len(set(self.m_levels)) != len(self.m_levels):
                raise ValueError("categorical M levels must be distinct")

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    @property
    def m_dim(self) -> int:
        """Width of the expanded M feature block (reference-level one-hot)."""
        if self.m_kind == "categorical":
            return len(self.m_levels) - 1
        return 1


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


class PooledDataset:
    """Pooled two-domain dataset stored as columns.

    g: (n,) domain tags 1 (primary) and 2 (auxiliary)
    x: (n, d) covariates
    m: (n,) M values; for categorical M the code of the level in m_labels
    y: (n,) outcomes
    r: (n,) joint observation indicator of M and Y
    Missing M and Y are NaN.  m_labels is the schema's level list followed
    by any level the input held outside it, in order of first appearance, so
    that `validate` can name it.

    `PooledDataset(records=..., schema=...)` builds the columns from per-row
    records; `records` derives them back.
    """

    __slots__ = ("schema", "g", "x", "m", "y", "r", "m_labels")

    def __init__(self, schema: VariableSchema, g=None, x=None, m=None, y=None,
                 r=None, *, m_labels: Optional[tuple] = None,
                 records: Optional[Iterable[UnitRecord]] = None):
        if records is not None:
            rows = [(rec.g, rec.x, rec.m, rec.y, rec.r) for rec in records]
            built = PooledDataset.from_columns(schema, *(zip(*rows) if rows else ((),) * 5))
            g, x, m, y, r, m_labels = (built.g, built.x, built.m, built.y,
                                       built.r, built.m_labels)
        self.schema = schema
        self.g = _column(g, np.int64)
        self.x = _column(x, float)
        self.m = _column(m, float)
        self.y = _column(y, float)
        self.r = _column(r, np.int64)
        self.m_labels = schema.m_levels if m_labels is None else tuple(m_labels)
        n = self.g.shape[0]
        if self.x.shape != (n, schema.n_covariates):
            raise ValueError(
                f"x has shape {self.x.shape}, expected ({n}, {schema.n_covariates})"
            )
        for name in ("g", "m", "y", "r"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} does not have length {n}")

    @classmethod
    def from_columns(cls, schema: VariableSchema, g: Sequence, x, m: Sequence,
                     y: Sequence, r: Sequence) -> "PooledDataset":
        """Columns from per-column Python values: g domain tags, x an (n, d)
        array-like, m None, a number or a level label per row, y None or a
        number per row, r observation indicators.  Categorical labels are
        coded here and nowhere else."""
        labels = list(schema.m_levels)
        if schema.m_kind == "categorical":
            codes = {label: i for i, label in enumerate(labels)}
            m_col = []
            for value in m:
                if value is None:
                    m_col.append(math.nan)
                    continue
                if value not in codes:
                    codes[value] = len(labels)
                    labels.append(value)
                m_col.append(codes[value])
        else:
            m_col = [math.nan if value is None else value for value in m]
        return cls(
            schema,
            g=np.array(g, dtype=np.int64),
            x=np.asarray(x, dtype=float).reshape(len(g), schema.n_covariates),
            m=np.array(m_col, dtype=float),
            y=np.array([math.nan if value is None else value for value in y], dtype=float),
            r=np.array(r, dtype=np.int64),
            m_labels=tuple(labels),
        )

    def __len__(self) -> int:
        return self.g.shape[0]

    def __repr__(self) -> str:
        return f"PooledDataset(n={len(self)}, schema={self.schema!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PooledDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.m_labels == other.m_labels
            and all(
                np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                for name in ("g", "x", "m", "y", "r")
            )
        )

    def take(self, rows: np.ndarray) -> "PooledDataset":
        """The dataset made of the given rows, in the given order."""
        return PooledDataset(
            self.schema, g=self.g[rows], x=self.x[rows], m=self.m[rows],
            y=self.y[rows], r=self.r[rows], m_labels=self.m_labels,
        )

    def m_values(self) -> list[Optional[MValue]]:
        """M of each row as a Python value: None when missing, else the
        number or the level label."""
        labels = self.m_labels if self.schema.m_kind == "categorical" else None
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
    """Return one message per invariant violation; empty list means clean."""
    g, m, r = dataset.g, dataset.m, dataset.r
    has_m = ~np.isnan(m)
    has_y = ~np.isnan(dataset.y)
    primary = g == DomainTag.PRIMARY
    r1 = r == 1
    r0 = r == 0
    r_valid = r0 | r1
    # (rows, message) in the order the checks of one row are reported
    checks = [
        (~r_valid, lambda i: f"R must be 0 or 1, got {r[i]}"),
        (r1 & ~has_m, lambda i: "R=1 but M absent"),
        (r0 & has_m, lambda i: "R=0 but M present"),
        (primary & r1 & ~has_y, lambda i: "primary-domain R=1 but Y absent"),
        (primary & r0 & has_y, lambda i: "primary-domain R=0 but Y present"),
        (r_valid & ~primary & has_y, lambda i: "Y present in auxiliary domain"),
    ]
    if dataset.schema.y_kind == "binary":
        y = dataset.y
        not_binary = has_y & (y != 0) & (y != 1)
        checks.append((not_binary, lambda i: f"binary Y must be 0 or 1, got {float(y[i])}"))
    if dataset.schema.m_kind == "categorical":
        unseen = r_valid & (m >= len(dataset.schema.m_levels))  # NaN compares False
        checks.append(
            (unseen, lambda i: f"unseen M level {dataset.m_labels[int(m[i])]!r}")
        )
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

    Categorical M with L levels maps to L-1 indicators with the first level as
    reference; numeric M passes through as a single feature.  Missing M stays
    NaN across the block.
    """
    if schema.m_kind == "numeric":
        return m[:, None]
    observed = ~np.isnan(m)
    codes = m[observed]
    n_levels = len(schema.m_levels)
    if codes.size and codes.max() >= n_levels:
        raise ValueError("M holds a level outside the schema's level list")
    out = np.full((m.shape[0], n_levels - 1), np.nan)
    out[observed] = codes[:, None] == np.arange(1, n_levels)
    return out


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(dataset: PooledDataset, path: str) -> None:
    """Write the canonical CSV form: domain, r, covariates, m, y."""
    schema = dataset.schema
    missing = schema.missing_token
    header = ["domain", "r", *schema.covariate_names, "m", "y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for g, r, x, m, y in zip(dataset.g.tolist(), dataset.r.tolist(),
                                 dataset.x.tolist(), dataset.m_values(),
                                 dataset.y.tolist()):
            writer.writerow([g, r, *map(repr, x),
                             missing if m is None else _format_value(m),
                             missing if y != y else repr(y)])


class DatasetFormatError(ValueError):
    """Raised when a CSV file cannot be parsed into a valid dataset."""


NATIVE_DOMAINS = {"1": DomainTag.PRIMARY, "2": DomainTag.AUXILIARY}


def read_csv(path: str, schema: VariableSchema, columns: Optional[dict] = None,
             domains: Optional[dict] = None) -> PooledDataset:
    """Read a CSV file into a dataset, finding each column by its header.

    `columns` maps a canonical name (domain, r, m, y or a covariate name) to
    the file's header; a name it leaves out is its own header, so the native
    layout that `write_csv` writes is the identity map.  `domains` maps a
    domain token to its tag and defaults to NATIVE_DOMAINS.  Extra and
    reordered columns are accepted, a mapped header may appear only once, and
    the y column may be absent (every Y missing).  Every row has as many
    fields as the header; blank lines are skipped.  Domain, M and Y tokens
    are stripped, and the missing token and the empty cell both mark a
    missing M or Y.
    """
    columns = columns or {}
    domains = NATIVE_DOMAINS if domains is None else domains
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        rows = list(reader)
    kept = None if all(rows) else [i for i, row in enumerate(rows) if row]
    if kept is not None:
        rows = [rows[i] for i in kept]

    def fail(i: int, message: str):
        line = (i if kept is None else kept[i]) + 2
        raise DatasetFormatError(f"{path}: line {line}: {message}") from None

    width = len(header)
    if any(len(row) != width for row in rows):
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        fail(i, f"{len(rows[i])} fields, the header has {width}")
    fields = list(zip(*rows)) if rows else [()] * width
    del rows  # the row lists are not needed once transposed

    def column(name: str, convert) -> list:
        """The named column converted token by token; a token that does not
        convert is reported with its line."""
        header_name = columns.get(name, name)
        count = header.count(header_name)
        if count == 0:
            raise DatasetFormatError(f"{path}: missing column {header_name!r}")
        if count > 1:
            raise DatasetFormatError(
                f"{path}: column {header_name!r} appears {count} times in the header")
        tokens = fields[header.index(header_name)]
        try:
            return list(map(convert, tokens))
        except ValueError:
            for i, token in enumerate(tokens):
                try:
                    convert(token)
                except ValueError as exc:
                    fail(i, str(exc))
            raise

    tags = {token: int(tag) for token, tag in domains.items()}

    def domain(token: str) -> int:
        tag = tags.get(token.strip())
        if tag is None:
            raise ValueError(f"unknown domain value {token!r}")
        return tag

    missing = {"", schema.missing_token}

    def optional(convert):
        def read(token: str):
            token = token.strip()
            return None if token in missing else convert(token)
        return read

    g = column("domain", domain)
    r = column("r", int)
    x = np.empty((len(g), schema.n_covariates))
    for j, name in enumerate(schema.covariate_names):
        x[:, j] = column(name, float)
    m = column("m", optional(str if schema.m_kind == "categorical" else float))
    has_y = columns.get("y", "y") in header
    y = column("y", optional(float)) if has_y else [None] * len(g)
    return PooledDataset.from_columns(schema, g, x, m, y, r)

"""Dataset schema, validation, and CSV round-trip tests."""

import csv
import itertools
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnarfuse import data
from mnarfuse.data import (
    DatasetFormatError,
    DomainTag,
    PooledDataset,
    UnitRecord,
    VariableSchema,
    _lookup,
    _tokenize,
    _write_columns,
    m_features,
    read_csv,
    validate,
    write_csv,
)
from mnarfuse.report import FitRows, domain_arrays
from mnarfuse.simulate import Model1Design, generate_model1

SCHEMA = VariableSchema(covariate_names=("x1",))


def rec(g=DomainTag.PRIMARY, x=(0.0,), m=1.0, y=2.0, r=1):
    return UnitRecord(g=g, x=x, m=m, y=y, r=r)


def test_validate_rejects_auxiliary_y():
    ds = PooledDataset(
        records=(rec(), rec(g=DomainTag.AUXILIARY, y=2.0)),
        schema=SCHEMA,
    )
    msgs = [v for v in validate(ds) if "auxiliary" in v.lower()]
    assert len(msgs) == 1


def test_validate_rejects_m_present_when_r0():
    ds = PooledDataset(
        records=(rec(r=0, m=1.0, y=None), rec(g=DomainTag.AUXILIARY, y=None)),
        schema=SCHEMA,
    )
    assert any("R=0 but M present" in v for v in validate(ds))


def test_validate_clean_dataset():
    ds = PooledDataset(
        records=(
            rec(),
            rec(r=0, m=None, y=None),
            rec(g=DomainTag.AUXILIARY, y=None),
            rec(g=DomainTag.AUXILIARY, r=0, m=None, y=None),
        ),
        schema=SCHEMA,
    )
    assert validate(ds) == []


@pytest.mark.parametrize("levels", [(), ("a",)], ids=["none", "one"])
def test_categorical_m_needs_two_levels(levels):
    # one level would leave M an empty one-hot block
    with pytest.raises(ValueError, match="at least 2 levels"):
        VariableSchema(covariate_names=("x1",), m_kind="categorical", m_levels=levels)


def test_a_categorical_level_cannot_be_the_missing_token():
    # the reader would take that level for a missing M, so a written row
    # with R = 1 would read back with M absent
    with pytest.raises(ValueError, match="missing token 'NA' is also a categorical M level"):
        VariableSchema(covariate_names=("x1",), m_kind="categorical", m_levels=("low", "NA"),
                       missing_token="NA")


@pytest.mark.parametrize("kwargs, message", [
    ({"m_kind": "ordinal"}, "unknown m_kind 'ordinal'"),
    ({"y_kind": "count"}, "unknown y_kind 'count'"),
    ({"m_kind": "categorical", "m_levels": ("a", "b", "a")},
     "categorical M levels must be distinct"),
    # the reader strips each header cell and token, and reads an empty M as missing
    ({"m_kind": "categorical", "m_levels": ("", "b")},
     "m_levels: an empty level reads back as a missing M"),
    ({"m_kind": "categorical", "m_levels": (" a", "b")},
     "m_levels: ' a' is padded, and the reader strips it"),
    ({"covariate_names": (" age",)}, "covariate_names: ' age' is padded, and the reader strips it"),
    ({"missing_token": " ?"}, "missing_token: ' ?' is padded, and the reader strips it"),
    ({"missing_token": "\xa0?"}, "missing_token: '\\xa0?' is padded, and the reader strips it"),
    # write_csv writes a present M or Y as its repr, which would read back as missing
    ({"missing_token": "1.0"}, "missing_token: '1.0' is how write_csv writes the number 1.0"),
    ({"missing_token": "-99.0"}, "missing_token: '-99.0' is how write_csv writes the number -99.0"),
    ({"missing_token": "inf"}, "missing_token: 'inf' is how write_csv writes the number inf"),
    ({"missing_token": "1e+16"}, "missing_token: '1e+16' is how write_csv writes the number 1e+16"),
], ids=["m-kind", "y-kind", "repeated-level", "empty-level", "padded-level",
        "padded-covariate", "padded-missing-token", "nbsp-missing-token", "number-missing-token",
        "negative-number-missing-token", "inf-missing-token", "exponent-missing-token"])
def test_a_schema_rejects_a_kind_or_levels_it_cannot_read(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        VariableSchema(**{"covariate_names": ("x1",), **kwargs})


@pytest.mark.parametrize("missing", ["nan", "-99", "NA", "?", ""])
def test_a_missing_token_that_is_no_written_number_round_trips(tmp_path, missing):
    schema = VariableSchema(covariate_names=("x1",), missing_token=missing)
    ds = PooledDataset(records=(rec(m=-99.0, y=1.0), rec(r=0, m=None, y=None),
                                rec(g=DomainTag.AUXILIARY, m=1.0, y=None)), schema=schema)
    path = tmp_path / "d.csv"
    write_csv(ds, str(path))
    assert read_csv(str(path), schema) == ds


@pytest.mark.parametrize("name", ["domain", "r", "m", "y"])
def test_write_csv_refuses_a_covariate_named_as_a_native_column(tmp_path, name):
    # the header would hold the name twice, and read_csv reads no such file;
    # a mapped read may still hold a covariate of that name
    ds = PooledDataset(records=(rec(),), schema=VariableSchema(covariate_names=(name,)))
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match=re.escape(
            f"covariate {name!r} would share its header with the {name} column")):
        write_csv(ds, str(path))
    assert not path.exists()


@pytest.mark.parametrize("x, m, message", [
    (np.zeros((3, 1)), [0.0] * 2, "x has shape (3, 1), expected (2, 1)"),
    (np.zeros((2, 2)), [0.0] * 2, "x has shape (2, 2), expected (2, 1)"),
    (np.zeros((2, 1)), [0.0] * 3, "column m does not have length 2"),
], ids=["x-rows", "x-columns", "m-length"])
def test_a_dataset_rejects_columns_of_other_shapes(x, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PooledDataset(SCHEMA, g=[1, 2], x=x, m=m, y=[np.nan] * 2, r=[1, 1])


def test_domain_arrays_preserve_order():
    rows = (rec(x=(0.0,)), rec(g=DomainTag.AUXILIARY, y=None), rec(x=(5.0,)))
    ds = PooledDataset(records=rows, schema=SCHEMA)
    assert ds.x[domain_arrays(ds, DomainTag.PRIMARY).rows].tolist() == [[0.0], [5.0]]
    assert domain_arrays(ds, DomainTag.AUXILIARY).n == 1


def test_domain_arrays_all_primary_and_empty():
    ds = PooledDataset(records=(rec(), rec()), schema=SCHEMA)
    assert domain_arrays(ds, DomainTag.PRIMARY).n == 2
    assert domain_arrays(ds, DomainTag.AUXILIARY).n == 0
    empty = PooledDataset(records=(), schema=SCHEMA)
    assert domain_arrays(empty, DomainTag.PRIMARY).n == 0
    assert domain_arrays(empty, DomainTag.AUXILIARY).n == 0


def test_a_domain_split_is_made_once_and_cannot_be_changed():
    ds, _ = generate_model1(Model1Design(n=200), seed=4)
    primary = domain_arrays(ds, DomainTag.PRIMARY)
    assert domain_arrays(ds, DomainTag.PRIMARY) is primary
    assert domain_arrays(ds, DomainTag.AUXILIARY) is not primary
    rows = FitRows(ds)
    for array in (*rows["primary"], *rows["cc"], *rows["aux_cc"]):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_taken_and_new_datasets_make_their_own_split():
    ds, _ = generate_model1(Model1Design(n=200), seed=4)
    primary = domain_arrays(ds, DomainTag.PRIMARY)
    rows = np.arange(len(ds))[::-1]
    taken_ds = ds.take(rows)
    taken = domain_arrays(taken_ds, DomainTag.PRIMARY)
    assert taken is not primary
    np.testing.assert_array_equal(taken_ds.y[taken.rows], ds.y[primary.rows][::-1])
    same = PooledDataset(ds.schema, ds.g, ds.x, ds.m, ds.y, ds.r)
    rebuilt = domain_arrays(same, DomainTag.PRIMARY)
    assert rebuilt is not primary
    for name in ("x", "m", "y", "r"):
        np.testing.assert_array_equal(getattr(same, name)[rebuilt.rows],
                                      getattr(ds, name)[primary.rows])


CAT = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                     m_levels=("A", "B", "C"))


def _masked_fit_rows(dataset):
    """The row sets of FitRows(dataset) made as a domain split by
    boolean masks made them: each domain's columns copied out, then its
    complete cases."""
    split = {}
    for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY):
        rows = dataset.g == tag
        x, y, r = dataset.x[rows], dataset.y[rows], dataset.r[rows]
        m = m_features(dataset.m[rows], dataset.schema)
        split[tag] = x, m, y, r == 1
    x, m, y, cc = split[DomainTag.PRIMARY]
    aux_x, aux_m, _, aux_cc = split[DomainTag.AUXILIARY]
    return {"primary": (x,), "cc": (x[cc], m[cc], y[cc]), "aux_cc": (aux_x[aux_cc], aux_m[aux_cc])}


def _columns_dataset(schema, n=60, seed=0, g=None):
    """A valid dataset of the schema with random columns; every row in the
    domain g when g is given."""
    rng = np.random.default_rng(seed)
    g = np.where(rng.random(n) < 0.5, 1, 2) if g is None else np.full(n, int(g))
    r = (rng.random(n) < 0.7).astype(int)
    if schema.m_kind == "categorical":
        m = rng.integers(0, len(schema.m_levels), n).astype(float)
    else:
        m = rng.normal(size=n)
    y = rng.normal(size=n)
    return PooledDataset(schema, g=g, x=rng.normal(size=(n, schema.n_covariates)),
                         m=np.where(r == 1, m, np.nan),
                         y=np.where((g == 1) & (r == 1), y, np.nan), r=r)


@pytest.mark.parametrize("dataset", [
    pytest.param(lambda: generate_model1(Model1Design(n=300), seed=4)[0], id="numeric-m"),
    pytest.param(lambda: _columns_dataset(CAT), id="categorical-m"),
    pytest.param(lambda: _columns_dataset(VariableSchema(
        covariate_names=("x1", "x2"), m_kind="categorical", m_levels=("A", "B", "C"))),
        id="two-covariates"),
    pytest.param(lambda: _columns_dataset(CAT, g=DomainTag.PRIMARY), id="no-auxiliary"),
    pytest.param(lambda: _columns_dataset(SCHEMA, g=DomainTag.AUXILIARY), id="no-primary"),
])
def test_fit_rows_selected_by_index_equal_the_masked_split(dataset):
    dataset = dataset()
    rows = FitRows(dataset)
    for name, reference in _masked_fit_rows(dataset).items():
        assert len(rows[name]) == len(reference)
        for got, want in zip(rows[name], reference):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_a_domain_is_the_index_of_its_rows_and_of_its_complete_cases():
    ds = _columns_dataset(CAT, n=200, seed=3)
    for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY):
        domain = domain_arrays(ds, tag)
        np.testing.assert_array_equal(domain.rows, np.flatnonzero(ds.g == tag))
        np.testing.assert_array_equal(domain.cc, np.flatnonzero((ds.g == tag) & (ds.r == 1)))
        assert not (domain.rows.flags.writeable or domain.cc.flags.writeable)
        assert not any(np.shares_memory(domain.rows, column) or np.shares_memory(domain.cc, column)
                       for column in (ds.x, ds.m, ds.y, ds.r))


def test_m_features_categorical():
    codes = np.array([1.0, 0.0, np.nan, 2.0])  # B, A, missing, C
    np.testing.assert_array_equal(
        m_features(codes, CAT),
        [[1.0, 0.0], [0.0, 0.0], [np.nan, np.nan], [0.0, 1.0]],
    )
    with pytest.raises(ValueError):
        PooledDataset(CAT, g=[1], x=[[0.0]], m=[3.0], y=[1.0], r=[1])


AB = VariableSchema(covariate_names=("x1",), m_kind="categorical", m_levels=("a", "b"))


@pytest.mark.parametrize("schema, g, m, message", [
    (SCHEMA, [1, 1, 2, 3], [0.0] * 4, "row 3: domain tag must be 1 or 2, got 3"),
    (SCHEMA, [0, 1], [0.0] * 2, "row 0: domain tag must be 1 or 2, got 0"),
    (AB, [1, 2, 1], [0.0, np.nan, -1.0], "row 2: categorical M must be NaN or a level's "
     "code 0 to 1, got -1.0"),
    (AB, [1, 2], [0.5, 0.0], "row 0: categorical M must be NaN or a level's code 0 to 1, "
     "got 0.5"),
    (AB, [1, 2], [1.0, 2.0], "row 1: categorical M must be NaN or a level's code 0 to 1, "
     "got 2.0"),
    (AB, [1, 2], [-0.0, np.inf], "row 1: categorical M must be NaN or a level's code 0 to 1, "
     "got inf"),
], ids=["tag-3", "tag-0", "code-negative", "code-fraction", "code-past-the-levels",
        "code-infinite"])
def test_a_dataset_rejects_a_tag_or_code_it_cannot_hold(schema, g, m, message):
    # every fit splits the rows by tag and expands the codes into level
    # indicators, so such a row would be dropped or read as the first level
    n = len(g)
    with pytest.raises(ValueError, match=re.escape(message)):
        PooledDataset(schema, g=g, x=np.zeros((n, 1)), m=m, y=[np.nan] * n, r=[1] * n)
    PooledDataset(schema, g=[1, 2], x=np.zeros((2, 1)), m=[1.0, np.nan], y=[np.nan] * 2,
                  r=[1, 0])


def test_m_features_numeric_passthrough():
    np.testing.assert_array_equal(m_features(np.array([2.5, np.nan]), SCHEMA),
                                  [[2.5], [np.nan]])


def test_read_csv_names_the_line_of_an_unknown_level(tmp_path):
    # a categorical M code is the index of its level in the schema's list,
    # so a token outside the list is a read error, as an unknown domain is;
    # the level is named stripped, whether or not the file holds padding
    path = tmp_path / "cat.csv"
    for token in ("D", " D ", "\tD", "D\xa0"):
        path.write_text(f"domain,r,x1,m,y\n1,1,0.0,A,1.0\n2,0,0.0,?,?\n2,1,0.0,{token},?\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError,
                           match=r"line 4: unknown M level 'D'; the levels are A, B, C"):
            read_csv(str(path), CAT)


def test_csv_round_trip(tmp_path):
    ds = PooledDataset(
        records=(
            rec(x=(0.25,), m=-1.5, y=3.75),
            rec(r=0, m=None, y=None),
            rec(g=DomainTag.AUXILIARY, x=(1.0,), m=0.125, y=None),
        ),
        schema=SCHEMA,
    )
    path = tmp_path / "d.csv"
    write_csv(ds, str(path))
    back = read_csv(str(path), SCHEMA)
    assert back.records == ds.records


def test_read_csv_names_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n1,one,0.0,1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_csv(str(path), SCHEMA)


# a binary Y, read through a table of its distinct tokens as R is, with a
# missing token that parses as a number
BINARY = VariableSchema(covariate_names=("x1",), y_kind="binary", missing_token="-999")


@pytest.mark.parametrize("column, row", [
    ("r", "1,one,0.0,1.0,2.0"),
    ("r", "1,9223372036854775808,0.0,1.0,2.0"),  # int() reads it; an int64 cannot hold it
    ("x1", "1,1,zero,1.0,2.0"),
    ("m", "1,1,0.0,NA,2.0"),
    ("y", "1,1,0.0,1.0,two"),
])
def test_a_token_that_does_not_convert_names_its_column(tmp_path, column, row):
    # the column is named by its header in the file, which a map may rename,
    # whether the tokens are padded or not and whether the column converts
    # token by token or through a table (R, and Y under BINARY)
    path = tmp_path / "bad.csv"
    for schema, pad, columns in itertools.product(
            (SCHEMA, BINARY), ("", " "), ({}, {column: "renamed"})):
        header = ",".join(columns.get(name, name) for name in ("domain", "r", "x1", "m", "y"))
        padded = ",".join(pad + token + pad for token in row.split(","))
        path.write_text(f"{header}\n1,1,0.0,1.0,2.0\n{padded}\n")
        with pytest.raises(DatasetFormatError,
                           match=f"line 3: column '{columns.get(column, column)}': "):
            read_csv(str(path), schema, columns)


@pytest.mark.parametrize("column, schema, message", [
    ("r", BINARY, "column 'r': .*'b'"),
    ("y", BINARY, "column 'y': .*'b'"),
    ("domain", BINARY, "unknown domain value 'b'"),
    ("m", CAT, "unknown M level 'b'; the levels are A, B, C"),
], ids=["r", "y", "domain", "m"])
def test_a_column_of_few_tokens_names_its_first_bad_row(tmp_path, column, schema, message):
    # the domain, R, categorical M and binary Y convert each distinct token
    # once, in no set order; the error still names the first row in the file
    # whose token does not convert
    bad = ["b", "a", "e", "d", "c"]
    good = {"domain": "1", "r": "1", "x1": "0.0", "m": "A" if schema is CAT else "1.0", "y": "1"}
    path = tmp_path / "bad.csv"
    path.write_text("domain,r,x1,m,y\n" + "".join(
        ",".join(token if name == column else value for name, value in good.items()) + "\n"
        for token in [good[column], *bad]))
    with pytest.raises(DatasetFormatError, match=f"line 3: {message}"):
        read_csv(str(path), schema)


def test_a_mapped_y_must_be_in_the_header(tmp_path):
    # only the unmapped native y may be absent, reading every Y as missing
    path = tmp_path / "no_y.csv"
    path.write_text("domain,r,x1,m\n1,0,0.0,?\n2,1,0.5,1.0\n")
    assert np.isnan(read_csv(str(path), SCHEMA).y).all()
    with pytest.raises(DatasetFormatError, match="missing column 'outcome'"):
        read_csv(str(path), SCHEMA, {"y": "outcome"})


@pytest.mark.parametrize("bad_row", [
    "3,1,0.0,1.0,?",  # unknown domain value
    "01,1,0.0,1.0,2.0",  # a domain token must be a key of the domain map
    "1,1,0.0,1.0",  # short row
    "1,1,0.0,1.0,2.0,7",  # long row
])
def test_read_csv_names_the_line_after_a_blank_one(tmp_path, bad_row):
    path = tmp_path / "bad.csv"
    path.write_text(f"domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n\n{bad_row}\n")
    with pytest.raises(DatasetFormatError, match="line 4"):
        read_csv(str(path), SCHEMA)


def test_a_short_row_is_named_when_a_long_one_makes_up_its_fields(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n1,1,0.0,1.0\n1,1,0.0,1.0,2.0,7\n")
    with pytest.raises(DatasetFormatError, match="line 3: 4 fields, the header has 5"):
        read_csv(str(path), SCHEMA)


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("site,r,x1,m,y\n")
    with pytest.raises(DatasetFormatError):
        read_csv(str(path), SCHEMA)


def test_read_csv_finds_columns_by_name(tmp_path):
    ds = PooledDataset(
        records=(rec(x=(0.25,), m=-1.5, y=3.75), rec(r=0, m=None, y=None),
                 rec(g=DomainTag.AUXILIARY, x=(1.0,), m=0.125, y=None)),
        schema=SCHEMA,
    )
    canonical = tmp_path / "canonical.csv"
    write_csv(ds, str(canonical))
    header, *rows = canonical.read_text().splitlines()
    order = [4, 0, 3, 2, 1]  # y, domain, m, x1, r
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join(
        ",".join([label, *(line.split(",")[j] for j in order)])
        for label, line in zip(["id", *map(str, range(len(rows)))], [header, *rows])
    ) + "\n")
    assert read_csv(str(shuffled), SCHEMA) == read_csv(str(canonical), SCHEMA) == ds


def test_read_csv_strips_padded_header_cells(tmp_path):
    # np.savetxt with delimiter=", " pads every header cell and value with a space
    table = np.array([[1, 1, 0.25, -1.5, 3.75], [1, 1, 1.0, 0.125, -2.0]])
    padded, plain = tmp_path / "padded.csv", tmp_path / "plain.csv"
    fmt = ["%d", "%d", "%.17g", "%.17g", "%.17g"]
    np.savetxt(padded, table, fmt, ", ", header="domain, r, x1, m, y", comments="")
    np.savetxt(plain, table, fmt, ",", header="domain,r,x1,m,y", comments="")
    assert read_csv(str(padded), SCHEMA) == read_csv(str(plain), SCHEMA)
    assert len(read_csv(str(padded), SCHEMA)) == 2


# the native text of a numeric, a categorical-M and a binary-Y file, each
# with a missing and an empty M and Y token; BINARY's missing token parses
# as a number
NATIVE = [
    (SCHEMA, "domain,r,x1,m,y\n1,1,0.25,-1.5,3.75\n1,0,1.0,?,\n2,1,-2.0,0.125,?\n2,0,0.5,,?\n"),
    (CAT, "domain,r,x1,m,y\n1,1,0.25,A,1.0\n1,0,1.0,?,\n2,1,-2.0,C,?\n2,0,0.5,,?\n"),
    (BINARY, "domain,r,x1,m,y\n1,1,0.25,-1.5,1\n1,0,1.0,-999,-999\n2,1,-2.0,0.125,\n"
             "2,0,0.5,,-999\n"),
]
KINDS = ["numeric", "categorical", "binary"]


def _read_csv_text(tmp_path, text, schema):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    return read_csv(str(path), schema)


def _native(tmp_path, schema, native):
    dataset = _read_csv_text(tmp_path, native, schema)
    assert (np.isnan(dataset.m).sum(), np.isnan(dataset.y).sum()) == (2, 3)
    return dataset


@pytest.mark.parametrize("pad", [" ", "\t", "\v", "\xa0", " \t\xa0"],
                         ids=["space", "tab", "vt", "nbsp", "mixed"])
@pytest.mark.parametrize("schema, native", NATIVE, ids=KINDS)
def test_a_padded_file_reads_as_its_native_form(tmp_path, schema, native, pad):
    # a token is stripped unless the text is ASCII with no white space, so
    # the padded file is stripped and the native one is not
    padded = "".join(",".join(pad + cell + pad for cell in line.split(",")) + "\n"
                     for line in native.splitlines())
    assert _read_csv_text(tmp_path, padded, schema) == _native(tmp_path, schema, native)


@pytest.mark.parametrize("inside", ["", "\x0c", "\u2028"], ids=["plain", "ff", "ls"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("schema, native", NATIVE, ids=KINDS)
def test_line_ends_and_line_breaks_csv_keeps_in_a_token(tmp_path, schema, native, end, inside):
    # str.splitlines breaks a line at \x0c and \u2028 as well, which csv.reader
    # keeps inside a token and strip then removes
    text = "".join(",".join(cell + inside for cell in line.split(",")) + end
                   for line in native.splitlines())
    assert _read_csv_text(tmp_path, text, schema) == _native(tmp_path, schema, native)


@pytest.mark.parametrize("inside", ["\v", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_a_line_break_csv_keeps_in_a_token_is_not_a_line(tmp_path, inside):
    with pytest.raises(DatasetFormatError, match="line 3: column 'x1': "):
        _read_csv_text(tmp_path, f"domain,r,x1,m,y\n1,1,0.0,1.0,2.0\n1,1,0.{inside}5,1.0,2.0\n"
                             "2,1,0.0,1.0,?\n", SCHEMA)


def test_read_csv_rejects_a_repeated_mapped_header(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("domain,r,x1,m,y,r\n1,1,0.0,1.0,2.0,1\n")
    with pytest.raises(DatasetFormatError, match="column 'r' appears 2 times"):
        read_csv(str(path), SCHEMA)
    # a repeated header that no column maps to is only an extra column
    path.write_text("note,domain,r,x1,m,y,note\n,1,1,0.0,1.0,2.0,\n")
    assert len(read_csv(str(path), SCHEMA)) == 1


finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2]), finite, finite, finite,
                           st.sampled_from([0, 1])), min_size=1, max_size=20))
def test_csv_round_trip_property(tmp_path_factory, raw_rows):
    records = []
    for g, x, m, y, r in raw_rows:
        tag = DomainTag(g)
        records.append(UnitRecord(
            g=tag,
            x=(float(x),),
            m=float(m) if r == 1 else None,
            y=float(y) if (tag == DomainTag.PRIMARY and r == 1) else None,
            r=r,
        ))
    ds = PooledDataset(records=tuple(records), schema=SCHEMA)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(ds, str(path))
    assert read_csv(str(path), SCHEMA).records == ds.records


@st.composite
def quote_free_csv(draw):
    """CSV text without quotes: mixed line breaks, blank lines, padded
    tokens, characters str.splitlines would break at, and ragged rows."""
    width = draw(st.integers(1, 4))
    token = st.text(alphabet=" \t1a?.\x0c\x85\u2028", max_size=3)
    text = ""
    for _ in range(draw(st.integers(1, 7))):
        size = draw(st.sampled_from([width, width, width, 0, draw(st.integers(1, 5))]))
        text += ",".join(draw(st.lists(token, min_size=size, max_size=size)))
        text += draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _tokenized(text, split):
    try:
        return _tokenize(text, "f.csv", split)
    except DatasetFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(quote_free_csv())
def test_split_tokenizer_matches_csv_reader(text):
    assert _tokenized(text, split=True) == _tokenized(text, split=False)


# the padding of a cell, and the cores of each kind of column's cells: those
# that read or are missing, and those that do not convert or name no domain
# or level; BINARY's missing token is -999, so its "?" does not convert
_PADS = [" ", "\t", "\xa0", "\v"]
_CORES = {
    "domain": (["1", "2"], ["3", "x"]),
    "r": (["0", "1"], ["x", ""]),
    "x": (["1", "0.5", "-1e3", "nan", "inf"], ["x", "?", ""]),
    "number": (["1", "0.5", "-1e3", "nan", "inf", "?", ""], ["x"]),
    "level": (["A", "B", "C", "?", ""], ["D", "x"]),
    "binary": (["0", "1", "-999", ""], ["?", "x"]),
}
# the kind of each column, domain, r, x1, m and y, for each schema
_COLUMN_KINDS = {"numeric": ("domain", "r", "x", "number", "number"),
                 "categorical": ("domain", "r", "x", "level", "number"),
                 "binary": ("domain", "r", "x", "number", "binary")}


@st.composite
def native_rows(draw):
    """A schema's kind and the rows of a native file.  Each column's cells
    are drawn from some of its good cores, and one column's may also be
    drawn from its bad ones; a file is padded with some of _PADS, so that it
    may be bare ASCII, padded, or hold a vertical tab, which csv.reader
    keeps in a token."""
    kind = draw(st.sampled_from(KINDS))
    pad = st.sampled_from(["", *draw(st.lists(st.sampled_from(_PADS), unique=True))])
    bad = draw(st.sampled_from([None, *range(5)]))
    cells = []
    for j, column in enumerate(_COLUMN_KINDS[kind]):
        good, wrong = _CORES[column]
        cores = draw(st.lists(st.sampled_from(good), min_size=1, unique=True))
        cells.append(st.tuples(pad, st.sampled_from(cores + wrong * (j == bad)),
                               pad).map("".join))
    return kind, draw(st.lists(st.tuples(*cells).map(list), min_size=1, max_size=6))


def _columns_or_error(path, text, schema):
    path.write_bytes(text.encode("utf-8"))
    try:
        dataset = read_csv(str(path), schema)
    except DatasetFormatError as exc:
        return str(exc)
    return [getattr(dataset, name).tobytes() for name in ("g", "r", "x", "m", "y")]


@settings(max_examples=300, deadline=None)
@given(case=native_rows())
@example(case=("numeric", [["1", "1", "0.5", "-1e3", ""], ["2", "0", "1", "?", "?"]]))
@example(case=("numeric", [[" 1", "1", "0.5", "1", "1"], ["2\t", "0 ", "1", " ", "\t"]]))
@example(case=("categorical", [["\xa01", "1", "0.5", "A\xa0", "1"], ["2", "0", "1", "?", "?"]]))
@example(case=("binary", [["1", "1", "\v0.5", "", "0"], ["2", "0", "1", "", "-999"]]))
@example(case=("numeric", [["1", "1", "nan", "inf", "-1e3"], ["2", "1", "-inf", "1", ""]]))
@example(case=("numeric", [["1", "1", "1", "1", "1"], ["3", "1", "1", "1", "1"]]))
@example(case=("numeric", [["1", "1", "1", "1", "1"], ["2", " x", "1", "1", "1"]]))
@example(case=("numeric", [["1", "1", "1", "1", "1"], ["2", "1", "x\t", "1", "1"]]))
@example(case=("categorical", [["1", "1", "1", "A", "1"], ["2", "1", "1", " D", "?"]]))
@example(case=("binary", [["1", "1", "1", "1", "1"], ["1", "1", "1", "1", "?"]]))
def test_the_split_path_reads_the_columns_csv_reader_reads(tmp_path_factory, case):
    # quoting the header cell domain sends the text through csv.reader and
    # strips every token; the split path, stripping only when a token can be
    # padded, must give the same bits or the same error
    kind, rows = case
    schema = dict(zip(KINDS, NATIVE))[kind][0]
    body = "".join(",".join(row) + "\n" for row in rows)
    path = tmp_path_factory.mktemp("native") / "d.csv"
    assert (_columns_or_error(path, "domain,r,x1,m,y\n" + body, schema)
            == _columns_or_error(path, '"domain",r,x1,m,y\n' + body, schema))


def test_read_csv_strips_a_padded_missing_token(tmp_path):
    # in a numeric, a categorical and a binary-Y column alike
    binary = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                            m_levels=("a", "b"), y_kind="binary", missing_token="NA")
    path = tmp_path / "padded.csv"
    for schema, m, missing in [(SCHEMA, " 1.5 ", " ? "), (CAT, " B ", " ? "),
                               (CAT, "\xa0B", "?\t"), (binary, "\tb ", " NA ")]:
        path.write_text(f"domain,r,x1,m,y\n1,0,0.5,{missing},  \n2,1,0.5,{m},{missing}\n"
                        f"1,0,0.5,{missing},{missing}\n", encoding="utf-8")
        ds = read_csv(str(path), schema)
        np.testing.assert_array_equal(ds.m, [np.nan, 1.5 if schema is SCHEMA else 1.0, np.nan])
        np.testing.assert_array_equal(ds.y, [np.nan] * 3)


def test_a_unit_separator_alone_pads_a_token(tmp_path):
    # str.strip removes \x1f, which float() rejects, from an ASCII text with
    # no other white space
    path = tmp_path / "padded.csv"
    path.write_text("domain,r,x1,m,y\n1,0,0.5,?\x1f,\x1f?\n2,1,0.5,\x1f1.5,?\n")
    ds = read_csv(str(path), SCHEMA)
    np.testing.assert_array_equal(ds.m, [np.nan, 1.5])
    np.testing.assert_array_equal(ds.y, [np.nan, np.nan])


def test_read_csv_numeric_missing_token_stays_missing(tmp_path):
    # a padded missing token is missing too, though it parses as a number
    schema = VariableSchema(covariate_names=("x1",), missing_token="-1")
    path = tmp_path / "minus_one.csv"
    for pad in ("", " ", "\t"):
        path.write_text(f"domain,r,x1,m,y\n1,0,0.5,-1{pad},{pad}-1\n1,1,0.5,-1.0,2\n"
                        f"2,1,-1,3,{pad}-1\n")
        ds = read_csv(str(path), schema)
        np.testing.assert_array_equal(ds.m, [np.nan, -1.0, 3.0])
        np.testing.assert_array_equal(ds.y, [np.nan, 2.0, np.nan])
        np.testing.assert_array_equal(ds.x[:, 0], [0.5, 0.5, -1.0])  # a covariate is never missing
        assert validate(ds) == []


def test_categorical_labels_needing_quotes_round_trip(tmp_path):
    schema = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                            m_levels=('a,"b"', "c"), missing_token='n"a')
    ds = PooledDataset(
        records=(rec(m='a,"b"'), rec(m="c"), rec(r=0, m=None, y=None),
                 rec(g=DomainTag.AUXILIARY, m='a,"b"', y=None)),
        schema=schema,
    )
    path = tmp_path / "quoted.csv"
    write_csv(ds, str(path))
    assert '"a,""b"""' in path.read_text()
    assert read_csv(str(path), schema) == ds


def _write_csv_by_rows(dataset, path):
    """The CSV form of `write_csv` as one csv.writer row per record."""
    schema = dataset.schema
    missing = schema.missing_token
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "r", *schema.covariate_names, "m", "y"])
        for record in dataset.records:
            m = record.m if isinstance(record.m, str) else repr(record.m)
            writer.writerow([int(record.g), record.r, *map(repr, record.x),
                             missing if record.m is None else m,
                             missing if record.y is None else repr(record.y)])


def _block_datasets():
    numeric, _ = generate_model1(Model1Design(n=8193), seed=3)
    codes = np.where(numeric.r == 1, np.arange(8193) % 3, np.nan)
    for levels in (("none", "mild", "severe"), ("none", 'a,"b"', "c\r\nd")):
        schema = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                                m_levels=levels, missing_token="NA")
        yield PooledDataset(schema, numeric.g, numeric.x, codes, numeric.y, numeric.r)
    yield numeric
    # any int64 R, and floats whose repr is short, long, signed zero or inf
    rows = np.arange(8193)
    r = np.array([-2**63, -1, 0, 1, 5, 2**62])[rows % 6]
    edges = np.array([np.nan, np.inf, -0.0, 5e-324, 1e16, -2.5, 0.1])
    x, m, y = edges[rows % 7, None], edges[rows // 7 % 7], edges[rows // 49 % 7]
    for missing in ("?", "", "NA"):
        schema = VariableSchema(covariate_names=("x1",), missing_token=missing)
        yield PooledDataset(schema, numeric.g, x, m, y, r)


@pytest.mark.parametrize("n", [0, 8192, 8193])
def test_write_csv_matches_csv_writer_across_blocks(tmp_path, n):
    for k, dataset in enumerate(_block_datasets()):
        part = dataset.take(np.arange(n))
        by_blocks, by_rows = tmp_path / f"blocks{k}.csv", tmp_path / f"rows{k}.csv"
        write_csv(part, str(by_blocks))
        _write_csv_by_rows(part, str(by_rows))
        assert by_blocks.read_bytes() == by_rows.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.text(alphabet=' a,"\r\n\0', max_size=4), min_size=width, max_size=width),
    max_size=7)))
@example([["a\rb", "c"]])
@example([["a\nb", "c"]])
@example([['a"b', "c"]])
@example([["a,b", "c"]])
@example([[""]])
@example([["a", "b"]] * 3 + [["a,b", "c"]])  # only the second block needs quoting
def test_write_columns_quotes_any_text_as_csv_writer_does(rows):
    """Whatever the texts hold, the bytes are csv.writer's: a block with a
    field that needs quoting goes through csv.writer, the others are joined."""
    width = len(rows[0]) if rows else 1
    header = [f"c{j}" for j in range(width)]
    texts = [tuple(column) for column in zip(*rows)] or [()]
    columns = [(np.arange(len(rows)), _lookup(column)) for column in texts]
    with tempfile.TemporaryDirectory() as tmp:
        by_blocks, by_rows = os.path.join(tmp, "blocks.csv"), os.path.join(tmp, "rows.csv")
        with mock.patch.object(data, "_BLOCK_ROWS", 3):
            _write_columns(by_blocks, header, columns)
        with open(by_rows, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        with open(by_blocks, "rb") as a, open(by_rows, "rb") as b:
            assert a.read() == b.read()

"""Dataset schema, validation, and CSV round-trip tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarfuse.data import (
    DatasetFormatError,
    DomainTag,
    PooledDataset,
    UnitRecord,
    VariableSchema,
    m_features,
    read_csv,
    validate,
    write_csv,
)
from mnarfuse.report import domain_arrays

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


def test_domain_arrays_preserve_order():
    rows = (rec(x=(0.0,)), rec(g=DomainTag.AUXILIARY, y=None), rec(x=(5.0,)))
    ds = PooledDataset(records=rows, schema=SCHEMA)
    assert domain_arrays(ds, DomainTag.PRIMARY).x.tolist() == [[0.0], [5.0]]
    assert domain_arrays(ds, DomainTag.AUXILIARY).n == 1


def test_domain_arrays_all_primary_and_empty():
    ds = PooledDataset(records=(rec(), rec()), schema=SCHEMA)
    assert domain_arrays(ds, DomainTag.PRIMARY).n == 2
    assert domain_arrays(ds, DomainTag.AUXILIARY).n == 0
    empty = PooledDataset(records=(), schema=SCHEMA)
    assert domain_arrays(empty, DomainTag.PRIMARY).n == 0
    assert domain_arrays(empty, DomainTag.AUXILIARY).n == 0


CAT = VariableSchema(covariate_names=("x1",), m_kind="categorical",
                     m_levels=("A", "B", "C"))


def test_m_features_categorical():
    codes = np.array([1.0, 0.0, np.nan, 2.0])  # B, A, missing, C
    np.testing.assert_array_equal(
        m_features(codes, CAT),
        [[1.0, 0.0], [0.0, 0.0], [np.nan, np.nan], [0.0, 1.0]],
    )
    with pytest.raises(ValueError):
        m_features(np.array([3.0]), CAT)


def test_m_features_numeric_passthrough():
    np.testing.assert_array_equal(m_features(np.array([2.5, np.nan]), SCHEMA),
                                  [[2.5], [np.nan]])


def test_validate_flags_unseen_level():
    ds = PooledDataset(
        records=(rec(m="D", y=1.0), rec(g=DomainTag.AUXILIARY, m="A", y=None)),
        schema=CAT,
    )
    assert any("unseen" in v for v in validate(ds))


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

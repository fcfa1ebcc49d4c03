"""Properties of the columnar dataset: the record view, the CSV form and
resampling reproduce the per-row representation, and the estimators do not
depend on row order or on duplicating the whole dataset."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mnarfuse.baselines import mar_estimate, mcar_estimate
from mnarfuse.data import (
    DomainTag,
    PooledDataset,
    UnitRecord,
    VariableSchema,
    read_csv,
    write_csv,
)
from mnarfuse.inference import _draw
from mnarfuse.model1 import estimate_model1
from mnarfuse.model2 import estimate_model2
from mnarfuse.simulate import (
    Model1Design,
    Model2Design,
    generate_model1,
    generate_model2,
    make_rng,
)

NUMERIC = VariableSchema(covariate_names=("x1", "x2"))
CATEGORICAL = VariableSchema(covariate_names=("x1", "x2"), m_kind="categorical",
                             m_levels=("none", "mild", "severe"))

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def datasets(draw, schema):
    m_values = finite if schema.m_kind == "numeric" else st.sampled_from(schema.m_levels)
    rows = draw(st.lists(
        st.tuples(st.sampled_from([1, 2]), st.tuples(finite, finite), m_values, finite,
                  st.sampled_from([0, 1])),
        max_size=25,
    ))
    records = []
    for g, x, m, y, r in rows:
        tag = DomainTag(g)
        records.append(UnitRecord(
            g=tag,
            x=tuple(float(v) for v in x),
            m=(float(m) if schema.m_kind == "numeric" else m) if r == 1 else None,
            y=float(y) if (tag == DomainTag.PRIMARY and r == 1) else None,
            r=r,
        ))
    return PooledDataset(records=tuple(records), schema=schema)


@pytest.mark.parametrize("schema", [NUMERIC, CATEGORICAL], ids=["numeric", "categorical"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_rebuild_an_equal_dataset(schema, data):
    ds = data.draw(datasets(schema))
    rebuilt = PooledDataset(records=ds.records, schema=ds.schema)
    assert rebuilt == ds
    assert rebuilt.records == ds.records


@pytest.mark.parametrize("schema", [NUMERIC, CATEGORICAL], ids=["numeric", "categorical"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csv_round_trip_gives_an_equal_dataset(tmp_path_factory, schema, data):
    ds = data.draw(datasets(schema))
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(ds, str(path))
    assert read_csv(str(path), schema) == ds


@pytest.mark.parametrize("schema", [NUMERIC, CATEGORICAL], ids=["numeric", "categorical"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_renamed_headers_read_back_through_the_column_map(tmp_path_factory, schema, data):
    ds = data.draw(datasets(schema))
    native = tmp_path_factory.mktemp("map") / "native.csv"
    write_csv(ds, str(native))
    header, *rows = native.read_text().splitlines(keepends=True)
    columns = {name: f"col {name}" for name in header.strip().split(",")}
    renamed = native.with_name("renamed.csv")
    renamed.write_text(",".join(columns.values()) + "\n" + "".join(rows))
    expected = read_csv(str(native), schema)
    assert expected == ds
    assert read_csv(str(renamed), schema, columns) == expected


@pytest.mark.parametrize("schema", [NUMERIC, CATEGORICAL, VariableSchema(())],
                         ids=["numeric", "categorical", "no-covariates"])
@pytest.mark.parametrize("n", [0, 1, 30])
def test_records_rebuild_a_dataset_built_from_columns(schema, n):
    rng = make_rng(n)
    g, r = rng.integers(1, 3, n), rng.integers(0, 2, n)
    m = rng.integers(0, 3, n) if schema.m_kind == "categorical" else rng.normal(size=n)
    ds = PooledDataset(schema, g=g, x=rng.normal(size=(n, schema.n_covariates)),
                       m=np.where(r == 1, m, np.nan),
                       y=np.where((r == 1) & (g == 1), rng.normal(size=n), np.nan), r=r)
    assert PooledDataset(records=ds.records, schema=schema) == ds


def test_a_record_outside_the_levels_is_rejected():
    # a categorical M code is the index of its level in the schema's list
    rows = (UnitRecord(g=DomainTag.PRIMARY, x=(0.0, 1.0), m="extreme", y=1.0, r=1),
            UnitRecord(g=DomainTag.AUXILIARY, x=(0.0, 1.0), m="mild", y=None, r=1))
    with pytest.raises(ValueError, match="unknown M level 'extreme'; the levels are "
                                         "none, mild, severe"):
        PooledDataset(records=rows, schema=CATEGORICAL)
    assert PooledDataset(records=rows[1:], schema=CATEGORICAL).records == rows[1:]


def _old_resample(dataset, rng):
    """Reference: the record-based resampling the columnar one replaced."""
    records = dataset.records
    picked = []
    for tag in (DomainTag.PRIMARY, DomainTag.AUXILIARY):
        idx = [i for i, rec in enumerate(records) if rec.g == tag]
        if idx:
            draw = rng.integers(0, len(idx), size=len(idx))
            picked.extend(records[idx[j]] for j in draw)
    return tuple(picked)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_resample_matches_the_record_construction(data, seed):
    ds = data.draw(datasets(CATEGORICAL))
    expected = _old_resample(ds, make_rng(seed, 1))
    assert ds.take(_draw(ds, make_rng(seed, 1))).records == expected


def _shuffled(ds, rng):
    records = ds.records
    return PooledDataset(records=[records[i] for i in rng.permutation(len(records))],
                         schema=ds.schema)


def _doubled(ds):
    return PooledDataset(records=ds.records + ds.records, schema=ds.schema)


ESTIMATORS = [
    (estimate_model1, generate_model1, Model1Design),
    (estimate_model2, generate_model2, Model2Design),
    (mar_estimate, generate_model1, Model1Design),
    (mcar_estimate, generate_model1, Model1Design),
]


@pytest.mark.parametrize("estimator,generate,design", ESTIMATORS,
                         ids=["model1", "model2", "mar", "mcar"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_estimate_invariant_to_row_order_and_duplication(estimator, generate, design, seed):
    ds, _ = generate(design(n=500), seed)
    report = estimator(ds)
    # a fit stopped at the iteration cap is not a root, and where it stops
    # depends on summation order
    assume(report.solver is None or report.solver.converged)
    beta = report.beta_hat
    assert abs(estimator(_shuffled(ds, make_rng(seed, 7))).beta_hat - beta) <= 1e-10
    assert abs(estimator(_doubled(ds)).beta_hat - beta) <= 1e-10

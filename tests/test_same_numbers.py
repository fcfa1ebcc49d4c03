"""Same numbers on a fixed seed panel: beta_hat of converged point fits and
the bounds of two bootstrap intervals, recorded as float.hex() from the code
before the solver lost its restarts.  A change to the estimators that keeps
the numbers keeps each value within 1e-10."""

import argparse

import pytest

from mnarfuse import cli
from mnarfuse.data import read_csv
from mnarfuse.inference import BootstrapConfig, bootstrap_ci
from mnarfuse.model1 import estimate_model1
from mnarfuse.model2 import estimate_model2
from mnarfuse.simulate import Model1Design, Model2Design, generate_model1, generate_model2

TOL = 1e-10
MODELS = {
    "model1": (generate_model1, Model1Design, estimate_model1),
    "model2": (generate_model2, Model2Design, estimate_model2),
}

# (model, setting, seed) -> beta_hat at n = 2000
POINT_FITS = {
    ("model1", "T", 1): "0x1.d1a4c26ef5964p+0",
    ("model1", "T", 2): "0x1.c14577fee6610p+0",
    ("model1", "T", 3): "0x1.dff521a062d5ap+0",
    ("model1", "F", 1): "0x1.d3b982b666cd8p+0",
    ("model1", "F", 2): "0x1.b513310ec0f89p+0",
    ("model1", "F", 3): "0x1.bd7f158527874p+0",
    ("model2", "T", 1): "-0x1.1363f0638f628p-1",
    ("model2", "T", 2): "-0x1.260d7f9699c0cp-2",
    ("model2", "T", 3): "-0x1.37c98b4c8f15fp-1",
    ("model2", "F", 1): "-0x1.10b8b83e6a831p-1",
    ("model2", "F", 2): "-0x1.94fec1249b759p-3",
    ("model2", "F", 3): "-0x1.1a794b3e4b6b6p-1",
}

# (model, setting, dataset seed, bootstrap seed) -> (lo, hi) at n = 2000, k = 200
INTERVALS = {
    ("model1", "T", 1, 5): ("0x1.a97f163a92d06p+0", "0x1.f7a93a6e6d4f2p+0"),
    ("model2", "F", 2, 6): ("-0x1.d3aa99c76bc58p-2", "0x1.f071bd40c0c54p-4"),
}

# estimate_model1 on `make-fixture --n 2000 --seed 3`
FIXTURE_BETA = "0x1.24e9148bc1578p-1"


def _close(value: float, recorded: str) -> bool:
    return abs(value - float.fromhex(recorded)) <= TOL


@pytest.mark.parametrize("key", sorted(POINT_FITS), ids=lambda k: "-".join(map(str, k)))
def test_point_fit_keeps_its_number(key):
    model, setting, seed = key
    generate, design, estimate = MODELS[model]
    report = estimate(generate(design(n=2000, setting=setting), seed)[0])
    assert report.solver.converged
    assert _close(report.beta_hat, POINT_FITS[key]), report.beta_hat.hex()


def test_fixture_fit_keeps_its_number(tmp_path):
    prefix = str(tmp_path / "fx")
    assert cli.main(["make-fixture", "--n", "2000", "--seed", "3",
                     "--out-prefix", prefix]) == 0
    dataset = read_csv(prefix + ".csv",
                       *cli._load_schema_map(argparse.Namespace(config=prefix + ".ini")))
    report = estimate_model1(dataset)
    assert report.solver.converged
    assert _close(report.beta_hat, FIXTURE_BETA), report.beta_hat.hex()


@pytest.mark.parametrize("key", sorted(INTERVALS), ids=lambda k: "-".join(map(str, k)))
def test_interval_keeps_its_bounds(key):
    model, setting, seed, boot_seed = key
    generate, design, estimate = MODELS[model]
    dataset = generate(design(n=2000, setting=setting), seed)[0]
    ci = bootstrap_ci(dataset, estimate, BootstrapConfig(k=200, seed=boot_seed))
    assert ci.n_failed == 0 and not ci.nonconverged
    lo, hi = INTERVALS[key]
    assert _close(ci.lo, lo) and _close(ci.hi, hi), (ci.lo.hex(), ci.hi.hex())

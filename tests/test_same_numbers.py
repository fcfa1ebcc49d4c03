"""Same numbers on a fixed seed panel: beta_hat of converged point fits and
the bounds of two bootstrap intervals, recorded as float.hex() from the code
before the solver lost its restarts, and a replication panel, recorded from
the code that fitted every replicate on its own.  The entries that the
solver's polish step moved by more than 1e-10 (five point fits, the Model 1
interval and the four IPW replicate panels) were recorded again from that
code solved to tol=1e-13, that is, at the roots.  The oracle fits, on
draws from discrete laws, were recorded from the code that drew them by
unravelling each unit's cell index.  A change to the estimators or to the
sampler that keeps the numbers keeps each value within 1e-10.  The columns
that `read_csv` returns for three generated CSVs are pinned by their
sha256, recorded from the reader that stripped every M and Y token: a
change to the reader keeps them bit for bit."""

import argparse
import hashlib

import numpy as np
import pytest

from mnarfuse import cli, oracle
from mnarfuse.data import read_csv
from mnarfuse.inference import BootstrapConfig, bootstrap_ci, replicate
from mnarfuse.model1 import Model1Spec, estimate_model1
from mnarfuse.model2 import Model2Spec, estimate_model2
from mnarfuse.models import BasisSpec
from mnarfuse.simulate import (
    Model1Design,
    Model2Design,
    generate_model1,
    generate_model2,
    make_rng,
)

TOL = 1e-10
MODELS = {
    "model1": (generate_model1, Model1Design, estimate_model1),
    "model2": (generate_model2, Model2Design, estimate_model2),
}

# (model, setting, seed) -> beta_hat at n = 2000
POINT_FITS = {
    ("model1", "T", 1): "0x1.d1a4c26ef5964p+0",
    ("model1", "T", 2): "0x1.c14577fe656e6p+0",
    ("model1", "T", 3): "0x1.dff521a062d5ap+0",
    ("model1", "F", 1): "0x1.d3b982b666cd8p+0",
    ("model1", "F", 2): "0x1.b513310ec0f89p+0",
    ("model1", "F", 3): "0x1.bd7f157f67efep+0",
    ("model2", "T", 1): "-0x1.1363f0601fff3p-1",
    ("model2", "T", 2): "-0x1.260d7f9699c0cp-2",
    ("model2", "T", 3): "-0x1.37c98b3188959p-1",
    ("model2", "F", 1): "-0x1.10b8b83e6a831p-1",
    ("model2", "F", 2): "-0x1.94fec1202d49cp-3",
    ("model2", "F", 3): "-0x1.1a794b3e4b6b6p-1",
}

# (model, setting, dataset seed, bootstrap seed) -> (lo, hi) at n = 2000, k = 200
INTERVALS = {
    ("model1", "T", 1, 5): ("0x1.a97f16392fae4p+0", "0x1.f7a93a6e6b318p+0"),
    ("model2", "F", 2, 6): ("-0x1.d3aa99c76bc58p-2", "0x1.f071bd40c0c54p-4"),
}

# (model, setting, estimator) -> the estimates of the default bank's
# replicate(design(n=500, setting), n_reps=6, seed=5)
REPLICATES = {
    ("model1", "T", "ipw"): (
        "0x1.b0d732fb9c822p+0", "0x1.e1dd108495c19p+0", "0x1.04c9196dfb495p+1",
        "0x1.db8aa4172031fp+0", "0x1.a0767e607aa04p+0", "0x1.2104a3b27c36ep+1",
    ),
    ("model1", "T", "mar"): (
        "0x1.00697becd6953p+1", "0x1.0debcb2c1bd98p+1", "0x1.09e9613c54f8ep+1",
        "0x1.1399bed69eb75p+1", "0x1.1898f6df4c12cp+1", "0x1.1bb2f101a1d70p+1",
    ),
    ("model1", "T", "mcar"): (
        "0x1.2d71361dfdfc6p+1", "0x1.353fc97d0300ep+1", "0x1.425b457a2ce14p+1",
        "0x1.3633cbd61b583p+1", "0x1.3b301704eb218p+1", "0x1.6035fdd04d7b6p+1",
    ),
    ("model1", "F", "ipw"): (
        "0x1.ba7051756fcd6p+0", "0x1.03aee5fb5d710p+1", "0x1.a6068dd466f7fp+0",
        "0x1.e18b8f6a0690cp+0", "0x1.85dd2fe7a41c5p+0", "0x1.0430d93bb52c2p+1",
    ),
    ("model1", "F", "mar"): (
        "0x1.2bdfe9fe26330p+0", "0x1.2906028ec8e0ap+0", "0x1.7beba07ef265ep+0",
        "0x1.7a5c1da70a4a4p+0", "0x1.525d69fbb823ep+0", "0x1.5d216d6685d8ep+0",
    ),
    ("model1", "F", "mcar"): (
        "0x1.11ab3de66e11ep+0", "0x1.9f0cfc7b3e423p-1", "0x1.31618af115b66p+0",
        "0x1.c1b65c70b1725p-1", "0x1.eeed69146fa93p-1", "0x1.127de77300912p+0",
    ),
    ("model2", "T", "ipw"): (
        "-0x1.a72ab9f8ed652p-1", "-0x1.9e6ff1ad8738bp-1", "-0x1.4bd5bf691087ap-2",
        "-0x1.10744dac3d2b9p-1", "-0x1.4d4588738253fp-2", "-0x1.8bf330e6c48e5p-2",
    ),
    ("model2", "T", "mar"): (
        "-0x1.94171588c8e13p-2", "0x1.c13190ec74ba2p-4", "-0x1.8ab8cdf74bc4cp-3",
        "-0x1.9f72019b750b7p-3", "-0x1.66b69a849d662p-3", "-0x1.890305dcf3084p-3",
    ),
    ("model2", "T", "mcar"): (
        "-0x1.418a1c3bef07bp-3", "0x1.dfdae884b61fdp-3", "0x1.4790c0f27d3adp-6",
        "-0x1.738eca42b7f7bp-4", "-0x1.ba64893653b1cp-8", "-0x1.3d8892bbc26f2p-6",
    ),
    ("model2", "F", "ipw"): (
        "-0x1.5c5ca3beb45e0p-1", "-0x1.adbc162fd6facp-1", "-0x1.16e6f6d32896fp-2",
        "-0x1.be9a5df6362d3p-2", "-0x1.fd05f28fb3610p-3", "-0x1.c0960aedb35b1p-3",
    ),
    ("model2", "F", "mar"): (
        "-0x1.19d02749e77fap-1", "-0x1.058d06ead3e11p-6", "-0x1.114463106fcc3p-2",
        "-0x1.833b7ae9271dbp-2", "-0x1.6736b12509037p-2", "-0x1.1e6c821df82e7p-2",
    ),
    ("model2", "F", "mcar"): (
        "-0x1.5c6f03d8ec9f8p-2", "0x1.0d2dc603f66c8p-3", "-0x1.f3a8326a6dad7p-5",
        "-0x1.188805abff645p-2", "-0x1.5639a6d2ad5f0p-3", "-0x1.e2eb2dfba66e4p-4",
    ),
}

# (model, s) -> beta_hat on sample_law(law, 50_000, seed=s), the law
# random_model1_law(make_rng(2024, s)) or random_model2_law(make_rng(2025, s))
ORACLE_FITS = {
    ("model1", 0): "0x1.284b666619032p-1",
    ("model1", 2): "0x1.79af651b4f09ap-2",
    ("model2", 0): "0x1.3158fae70fefap-2",
    ("model2", 2): "0x1.0afc77335d295p-1",
}

# estimate_model1 on `make-fixture --n 2000 --seed 3`
FIXTURE_BETA = "0x1.24e9148bc1578p-1"

# seed -> estimate_model1 on `make-fixture --n 2000 --seed <seed>`, whose M is
# categorical, recorded from the code whose point fit still took a weight
# cap and a fixed Y tilt as options
FIXTURE_FITS = {
    1: "0x1.216d4ac66fd57p-1",
    2: "0x1.2575b06afaedcp-1",
    3: "0x1.24e9148bc0e39p-1",
}

# CLI arguments -> sha256 of the dtype, shape and bytes of each column
# (g, r, x, m, y) that read_csv returns for the CSV they write, at n = 3000
READS = {
    ("simulate", "--model", "1", "--seed", "11"): (
        "552841a244157cc3716475b4680afd0db08dee1a12fd3d083cfd2bb6e626cd17",
        "f3265eb5f8ad118ef909bf15f6a1f3d0e943a5587fc04b5b23f58d315345ef81",
        "b4eec6a0bdf0198de794a1babd2a434bc2eceacc3f892c9fbe5fb249a4791c43",
        "5dbc3cdf0836be2b6c855d2c7ef247d679427a5d3e530fd5b3fff5d2aa0fc25e",
        "62827304fbb1441039d9d8abf7c48edc04011ea5bf1dbbd7df1f7fd85813efa7",
    ),
    ("simulate", "--model", "2", "--seed", "12"): (
        "0407dd9364baff98e497a072917afc852b084830d115c3eeacb7336ad0a4f350",
        "9be0602517f8a0be69de3891048771744f31e3753e5a25d48087c163610feced",
        "54e372a74ff3b20c520fa8d77a07da90222edb3d93d651a00542cbbff20976ee",
        "0ac5d3bd2a43b36e6062ff942652760607b6141b1b1e85660bbe19c8a9d84fd6",
        "0fa3e47c7ecbe3a79c625f4e3d865a141536de67483ad3749e5474efcc25a551",
    ),
    ("make-fixture", "--seed", "13"): (
        "1eea9a074fa34a2a360c4759e98efdac80c8ddb4a0a06b947a4a915faaa4518e",
        "d1da3cd41d7c73d70d1270fa073510630ee8a48b2be6ef54549f805a87c7356c",
        "139788440c7d15472e2e85244c8744a9f297a3550644eac979c19924a6a1629c",
        "085093c1223e4be12de74654870ac09125861fefae8b2af825402d0d2feb4cce",
        "ccbc749cdd61949e872bf81b755d2e6cdb2b47394c54667020f96890b0b8f3f1",
    ),
}


def _close(value: float, recorded: str) -> bool:
    return abs(value - float.fromhex(recorded)) <= TOL


@pytest.mark.parametrize("key", sorted(POINT_FITS), ids=lambda k: "-".join(map(str, k)))
def test_point_fit_keeps_its_number(key):
    model, setting, seed = key
    generate, design, estimate = MODELS[model]
    report = estimate(generate(design(n=2000, setting=setting), seed)[0])
    assert report.solver.converged
    assert _close(report.beta_hat, POINT_FITS[key]), report.beta_hat.hex()


@pytest.mark.parametrize("key", sorted(ORACLE_FITS), ids=lambda k: "-".join(map(str, k)))
def test_oracle_fit_keeps_its_number(key):
    model, s = key
    saturated, x_only = BasisSpec.parse("1,x1,m,x1*m"), BasisSpec.parse("1,x1")
    if model == "model1":
        law = oracle.random_model1_law(make_rng(2024, s))
        spec = Model1Spec(saturated, saturated, x_only, saturated)
        estimate = estimate_model1
    else:
        law = oracle.random_model2_law(make_rng(2025, s))[0]
        spec = Model2Spec(x_only, BasisSpec.parse("1,x1,m"), x_only)
        estimate = estimate_model2
    report = estimate(oracle.sample_law(law, 50_000, seed=s)[0], spec)
    assert report.solver.converged
    assert _close(report.beta_hat, ORACLE_FITS[key]), report.beta_hat.hex()


def _fixture_fit(tmp_path, seed):
    prefix = str(tmp_path / "fx")
    assert cli.main(["make-fixture", "--n", "2000", "--seed", str(seed),
                     "--out-prefix", prefix]) == 0
    dataset = read_csv(prefix + ".csv",
                       *cli._load_schema_map(argparse.Namespace(config=prefix + ".ini")))
    report = estimate_model1(dataset)
    assert report.solver.converged
    return report.beta_hat


def test_fixture_fit_keeps_its_number(tmp_path):
    beta_hat = _fixture_fit(tmp_path, 3)
    assert _close(beta_hat, FIXTURE_BETA), beta_hat.hex()


@pytest.mark.parametrize("seed", sorted(FIXTURE_FITS))
def test_categorical_fixture_fit_keeps_its_number(tmp_path, seed):
    beta_hat = _fixture_fit(tmp_path, seed)
    assert _close(beta_hat, FIXTURE_FITS[seed]), beta_hat.hex()


@pytest.mark.parametrize("key", sorted(INTERVALS), ids=lambda k: "-".join(map(str, k)))
def test_interval_keeps_its_bounds(key):
    model, setting, seed, boot_seed = key
    generate, design, estimate = MODELS[model]
    dataset = generate(design(n=2000, setting=setting), seed)[0]
    ci = bootstrap_ci(dataset, estimate, BootstrapConfig(k=200, seed=boot_seed))
    assert ci.n_failed == 0 and not ci.nonconverged
    lo, hi = INTERVALS[key]
    assert _close(ci.lo, lo) and _close(ci.hi, hi), (ci.lo.hex(), ci.hi.hex())


@pytest.mark.parametrize("model,setting", [(m, s) for m in MODELS for s in "TF"],
                         ids=lambda v: v)
def test_replication_keeps_its_estimates(model, setting):
    _, design, _ = MODELS[model]
    report = replicate(design(n=500, setting=setting), n_reps=6, seed=5)
    for (m, s, name), recorded in REPLICATES.items():
        if (m, s) == (model, setting):
            values = report.estimates[name]
            assert len(values) == len(recorded)
            assert all(_close(v, r) for v, r in zip(values, recorded)), \
                (name, [v.hex() for v in values])


def _digest(column: np.ndarray) -> str:
    column = np.ascontiguousarray(column)
    return hashlib.sha256(f"{column.dtype.str}{column.shape}".encode()
                          + column.tobytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(READS), ids=lambda c: "-".join(a for a in c if not a.startswith("--")))
def test_a_read_keeps_its_columns(tmp_path, command):
    prefix = str(tmp_path / "d")
    if command[0] == "simulate":
        out, config = ["--out", prefix + ".csv"], []
    else:
        out, config = ["--out-prefix", prefix], ["--config", prefix + ".ini"]
    assert cli.main([*command, "--n", "3000", *out]) == 0
    dataset = cli._load_dataset(
        cli.build_parser().parse_args(["validate", "--data", prefix + ".csv", *config]))
    digests = tuple(_digest(getattr(dataset, name)) for name in ("g", "r", "x", "m", "y"))
    assert digests == READS[command], digests

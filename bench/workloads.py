"""The three benchmark workloads.

Each is a closed loop with one client: a call starts after the previous one
returns.  Every input comes from the workload seed.  A workload has
  setup(ctx)          one-time work before the first timed call;
  timed(ctx, calls, seconds)  the measured loop, recording into calls and
                      returning the named rates;
  fixed(ctx, calls)   a fixed amount of the same work, for the traced run;
  verify(ctx)         output checks that need more than one call's output.

mnarfuse is imported in setup, because its import is part of set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

from checks import (
    Checks,
    beta_matches,
    ci_valid,
    estimates_identical,
    mc_tolerance,
    truth_matches,
    within,
)
from speed import REFERENCE_S, reference_kernel


@dataclass
class Context:
    seed: int
    workdir: str
    checks: Checks = field(default_factory=Checks)
    units: int = 0  # refits, replicate fits and calls attempted
    failed_units: int = 0  # failed refits, NaN fits and calls with a nonzero exit
    bad_calls: list = field(default_factory=list)  # CLI calls with a nonzero exit
    state: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, *argv) -> int:
        """Run `mnarfuse.cli.main` in-process with its output discarded."""
        main = sys.modules["mnarfuse.cli"].main
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([str(a) for a in argv])
        self.units += 1
        if rc != 0:
            self.failed_units += 1
            self.bad_calls.append(f"exit code {rc} from mnarfuse {' '.join(map(str, argv))}")
        return rc

    @property
    def attempted(self) -> int:
        return self.units + self.checks.total

    @property
    def failed(self) -> int:
        return self.failed_units + len(self.checks.failures)

    @property
    def correct(self) -> bool:
        return not self.checks.failures and not self.bad_calls


class Workload:
    setup_samples = 5  # set-ups per run: this process, then fresh subprocesses

    def verify(self, ctx: Context) -> None:
        """Checks that need the outputs of several calls; most workloads
        check each call as it returns."""


def _mnarfuse():
    import mnarfuse.cli  # noqa: F401  (imports every module the workloads call)
    return sys.modules


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Calls:
    """Wall times of the timed loop's calls by kind, each also scaled to the
    reference machine speed measured around it (see speed.py).  Each kind
    does a fixed amount of work per call."""

    def __init__(self):
        self.work: dict[str, float] = {}
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.kernel: list[float] = []
        self._last: list[float] = []  # kernel samples taken right after the last call

    def local_scale(self, seconds: float) -> float:
        """Scale for a call that has just taken `seconds`: REFERENCE_S over the
        median kernel time just before and just after it.  The kernel runs
        about once per second of the call, and at least once."""
        before = self._last
        self._last = [reference_kernel() for _ in range(max(1, round(seconds)))]
        self.kernel += self._last
        return REFERENCE_S / statistics.median(before + self._last)

    def measure(self, kind: str, work: float, fn, *args, **kwargs):
        out, seconds = _timed(fn, *args, **kwargs)
        self.work[kind] = work
        self.times.setdefault(kind, []).append(seconds)
        self.scaled.setdefault(kind, []).append(seconds * self.local_scale(seconds))
        return out

    def rate(self, kinds=None, raw: bool = False) -> float:
        """Work per second of a round made of one call of each kind, each
        taking its kind's median time.  Medians per kind keep a slow phase of
        the machine, or one costly call, from setting the rate."""
        times = self.times if raw else self.scaled
        kinds = list(times) if kinds is None else list(kinds)
        return sum(self.work[k] for k in kinds) / sum(statistics.median(times[k]) for k in kinds)

    def total(self) -> float:
        """Sum of the scaled times of every call."""
        return sum(sum(t) for t in self.scaled.values())

    @property
    def rounds(self) -> int:
        return min((len(t) for t in self.times.values()), default=0)


# ---------------------------------------------------------------------------
# bootstrap-n2k
# ---------------------------------------------------------------------------

class BootstrapN2k(Workload):
    """Back-to-back `estimate --bootstrap K` calls on three kinds of n=2000
    input; each round of three calls gets freshly generated inputs, so a run
    samples many datasets rather than one."""

    n = 2000
    k = 20  # refits per CLI call in the timed loop: short calls, many datasets per run
    fixed_k = (500, 1000, 500)  # per input in the traced run: >=1000 fits per model
    kinds = ("model1", "model2", "fixture")

    def setup(self, ctx: Context) -> None:
        _mnarfuse()
        ctx.state["inputs"] = self._inputs(ctx, ctx.seed * 1000)

    def _inputs(self, ctx: Context, seed: int) -> list:
        """Write the three inputs for one round; return (CLI arguments,
        in-memory β̂ on the same dataset) per input."""
        mods = sys.modules
        simulate, model1, model2 = (mods["mnarfuse.simulate"], mods["mnarfuse.model1"],
                                    mods["mnarfuse.model2"])
        inputs = []
        for model, design_cls, generate, estimate in (
            (1, simulate.Model1Design, simulate.generate_model1, model1.estimate_model1),
            (2, simulate.Model2Design, simulate.generate_model2, model2.estimate_model2),
        ):
            path = ctx.path(f"model{model}.csv")
            ctx.cli("simulate", "--model", model, "--setting", "T", "--n", self.n,
                    "--seed", seed, "--out", path)
            dataset = generate(design_cls(n=self.n, setting="T"), seed)[0]
            inputs.append((["--data", path, "--model", str(model)],
                           estimate(dataset).beta_hat))
        prefix = ctx.path("fixture")
        ctx.cli("make-fixture", "--n", self.n, "--seed", seed, "--out-prefix", prefix)
        inputs.append((["--data", prefix + ".csv", "--config", prefix + ".ini", "--model", "1"],
                       model1.estimate_model1(fixture_dataset(self.n, seed)).beta_hat))
        return inputs

    def _call(self, ctx: Context, calls: Calls, kind: str, args: list, reference: float,
              k: int, seed: int) -> None:
        out = ctx.path("report.json")
        rc = calls.measure(kind, k, ctx.cli, "estimate", *args, "--bootstrap", k,
                           "--seed", seed, "--json", out)
        ctx.units += k
        if rc != 0:
            ctx.failed_units += k
            return
        with open(out) as fh:
            report = json.load(fh)
        ci = report["ci"]
        ctx.failed_units += ci["n_failed"]
        ctx.checks.expect(beta_matches(report["beta_hat"], reference),
                          f"{args}: CLI beta {report['beta_hat']!r} != in-memory {reference!r}")
        ctx.checks.expect(ci_valid(ci["lo"], ci["hi"]),
                          f"{args}: invalid CI [{ci['lo']}, {ci['hi']}]")

    def timed(self, ctx: Context, calls: Calls, seconds: float) -> dict:
        start, rnd = time.perf_counter(), 0
        while time.perf_counter() - start < seconds:
            if rnd:
                ctx.state["inputs"] = self._inputs(ctx, ctx.seed * 1000 + rnd)
            for kind, (args, ref) in zip(self.kinds, ctx.state["inputs"]):
                self._call(ctx, calls, kind, args, ref, self.k, ctx.seed + rnd)
            rnd += 1
        return {"refits_per_s": (calls.rate(), "refits/s")}

    def fixed(self, ctx: Context, calls: Calls) -> None:
        for kind, (args, ref), k in zip(self.kinds, ctx.state["inputs"], self.fixed_k):
            self._call(ctx, calls, kind, args, ref, k, ctx.seed)


_FIXTURE_LEVELS = ("none", "mild", "severe")


def fixture_dataset(n: int, seed: int):
    """Independent reconstruction of `make-fixture --n n --seed seed` as the
    dataset its schema-map config reads back."""
    import numpy as np

    mods = _mnarfuse()
    data, simulate, models = (mods["mnarfuse.data"], mods["mnarfuse.simulate"],
                              mods["mnarfuse.models"])
    rng = simulate.make_rng(seed)
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.uniform(-1.0, 1.0, n)
    logits = np.column_stack([np.zeros(n), 0.8 * x + 0.2, 1.2 * x - 0.4])
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    m_idx = np.array([rng.choice(3, p=p) for p in probs])
    y = (rng.random(n) < models.logistic(
        0.5 * x + 0.9 * (m_idx == 1) + 1.6 * (m_idx == 2) - 0.5)).astype(int)
    p_r = np.where(g == 1,
                   models.logistic(0.4 + 0.3 * x + 0.8 * (m_idx == 1) - 0.5 * (m_idx == 2)),
                   models.logistic(0.8 + x))
    r = (rng.random(n) < p_r).astype(int)
    schema = data.VariableSchema(covariate_names=("risk_score",), m_kind="categorical",
                                 m_levels=_FIXTURE_LEVELS, y_kind="binary",
                                 missing_token="NA")
    records = tuple(
        data.UnitRecord(
            g=data.DomainTag.PRIMARY if g[i] == 1 else data.DomainTag.AUXILIARY,
            x=(float(x[i]),),
            m=_FIXTURE_LEVELS[m_idx[i]] if r[i] == 1 else None,
            y=float(y[i]) if (g[i] == 1 and r[i] == 1) else None,
            r=int(r[i]),
        )
        for i in range(n)
    )
    return data.PooledDataset(records=records, schema=schema)


# ---------------------------------------------------------------------------
# replicate-n2k
# ---------------------------------------------------------------------------

class ReplicateN2k(Workload):
    """`inference.replicate` with the default bank on the four n=2000 designs,
    each first with n_workers=1, then n_workers=2 on the same seed."""

    n = 2000
    reps = 16  # replicates per call in the timed loop
    setup_samples = 3  # each set-up computes the Monte Carlo truth for 2 settings
    fixed_reps = 50  # per design in the traced run, n_workers=1 only

    def setup(self, ctx: Context) -> None:
        mods = _mnarfuse()
        simulate, inference = mods["mnarfuse.simulate"], mods["mnarfuse.inference"]
        ctx.state["designs"] = [(f"model{model}-{setting}", cls(n=self.n, setting=setting))
                                for model, cls in ((1, simulate.Model1Design),
                                                   (2, simulate.Model2Design))
                                for setting in ("T", "F")]
        for _, design in ctx.state["designs"]:
            inference.true_beta(design)  # cold Model 2 Monte Carlo truth, cached per process

    def _replicate(self, ctx: Context, calls: Calls, label: str, design, reps: int, seed: int,
                   n_workers: int):
        import numpy as np

        replicate = sys.modules["mnarfuse.inference"].replicate
        report = calls.measure(f"{label}-w{n_workers}", reps, replicate, design, n_reps=reps,
                               seed=seed, n_workers=n_workers)
        for values in report.estimates.values():
            ctx.units += values.size
            ctx.failed_units += int(np.count_nonzero(~np.isfinite(values)))
        return report

    def timed(self, ctx: Context, calls: Calls, seconds: float) -> dict:
        start, rnd = time.perf_counter(), 0
        while time.perf_counter() - start < seconds:
            seed = ctx.seed * 1000 + rnd
            for label, design in ctx.state["designs"]:
                serial = self._replicate(ctx, calls, label, design, self.reps, seed, 1)
                pooled = self._replicate(ctx, calls, label, design, self.reps, seed, 2)
                ctx.checks.expect(
                    estimates_identical(serial.estimates, pooled.estimates),
                    f"{label} seed {seed}: n_workers=1 and 2 estimates differ")
            rnd += 1
        return {
            "reps_per_s_w1": (calls.rate(k for k in calls.times if k.endswith("-w1")), "reps/s"),
            "reps_per_s_w2": (calls.rate(k for k in calls.times if k.endswith("-w2")), "reps/s"),
        }

    def fixed(self, ctx: Context, calls: Calls) -> None:
        """Serial calls only; a repeated pass (traced after untraced) must
        reproduce the first one's estimates byte for byte."""
        first = ctx.state.setdefault("fixed", {})
        for label, design in ctx.state["designs"]:
            report = self._replicate(ctx, calls, label, design, self.fixed_reps,
                                     ctx.seed * 1000, 1)
            if label in first:
                ctx.checks.expect(estimates_identical(first[label], report.estimates),
                                  f"{label}: repeated serial pass changed the estimates")
            first[label] = report.estimates


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------

class LargeN(Workload):
    """One pass of large-input jobs: write path, read path, oracle hand-off
    at 10**6 draws and the 100-law identification battery."""

    n = 100_000
    draws = 1_000_000
    laws = 100
    pilot_n, pilot_reps = 10_000, 20

    def setup(self, ctx: Context) -> None:
        import numpy as np

        mods = _mnarfuse()
        oracle, models, model1 = (mods["mnarfuse.oracle"], mods["mnarfuse.models"],
                                  mods["mnarfuse.model1"])
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([ctx.seed, 8])))
        ctx.state["law"] = oracle.random_model1_law(rng)
        saturated = models.BasisSpec.parse("1,x1,m,x1*m")
        ctx.state["spec"] = model1.Model1Spec(
            propensity_basis=saturated,
            h_basis=saturated,
            aux_regression_basis=models.BasisSpec.parse("1,x1"),
            outcome_basis=saturated,
        )
        ctx.state["betas"] = []

    def _estimate(self, ctx: Context, *args) -> float:
        out = ctx.path("report.json")
        if ctx.cli("estimate", *args, "--json", out) != 0:
            return float("nan")
        with open(out) as fh:
            return json.load(fh)["beta_hat"]

    def _oracle(self, ctx: Context) -> float:
        mods = sys.modules
        oracle, model1 = mods["mnarfuse.oracle"], mods["mnarfuse.model1"]
        dataset = oracle.sample_law(ctx.state["law"], self.draws, seed=ctx.seed)[0]
        ctx.units += 2
        return model1.estimate_model1(dataset, ctx.state["spec"]).beta_hat

    def _pass(self, ctx: Context, calls: Calls) -> None:
        n, seed = self.n, ctx.seed
        prefix = ctx.path("large_fixture")
        for model in (1, 2):
            calls.measure(f"write-model{model}", n, ctx.cli, "simulate", "--model", model,
                          "--setting", "T", "--n", n, "--seed", seed,
                          "--out", ctx.path(f"large{model}.csv"))
        calls.measure("write-fixture", n, ctx.cli, "make-fixture", "--n", n, "--seed", seed,
                      "--out-prefix", prefix)
        betas = [
            calls.measure(kind, n, self._estimate, ctx, *args)
            for kind, args in (
                ("estimate-model1", ["--data", ctx.path("large1.csv"), "--model", "1"]),
                ("estimate-model2", ["--data", ctx.path("large2.csv"), "--model", "2"]),
                ("estimate-fixture", ["--data", prefix + ".csv", "--config", prefix + ".ini",
                                      "--model", "1"]),
            )
        ]
        betas.append(calls.measure("oracle", self.draws, self._oracle, ctx))
        calls.measure("oracle-check", 0, ctx.cli, "oracle-check", "--laws", self.laws,
                      "--seed", seed)
        ctx.state["betas"].append(betas)

    def timed(self, ctx: Context, calls: Calls, seconds: float) -> dict:
        """Passes until `seconds` have gone, and at least two, so that every
        job has two samples."""
        start = time.perf_counter()
        while calls.rounds < 2 or time.perf_counter() - start < seconds:
            self._pass(ctx, calls)
        kinds = list(calls.times)
        return {
            "write_rows_per_s": (calls.rate(k for k in kinds if k.startswith("write")), "rows/s"),
            "estimate_rows_per_s": (calls.rate(k for k in kinds if k.startswith("estimate")),
                                    "rows/s"),
            "oracle_draws_per_s": (calls.rate(["oracle"]), "draws/s"),
        }

    def fixed(self, ctx: Context, calls: Calls) -> None:
        self._pass(ctx, calls)

    def verify(self, ctx: Context) -> None:
        mods = sys.modules
        cli, data, oracle, simulate, model1 = (
            mods["mnarfuse.cli"], mods["mnarfuse.data"], mods["mnarfuse.oracle"],
            mods["mnarfuse.simulate"], mods["mnarfuse.model1"])
        checks, n, seed = ctx.checks, self.n, ctx.seed
        for model, design_cls, generate in (
            (1, simulate.Model1Design, simulate.generate_model1),
            (2, simulate.Model2Design, simulate.generate_model2),
        ):
            path = ctx.path(f"large{model}.csv")
            dataset, sidecar = generate(design_cls(n=n, setting="T"), seed)
            checks.expect(data.read_csv(path, simulate.SCALAR_SCHEMA) == dataset,
                          f"{path} does not read back as the simulated dataset")
            checks.expect(truth_matches(path + ".truth.csv", sidecar),
                          f"{path}.truth.csv does not read back as the truth sidecar")
        prefix = ctx.path("large_fixture")
        schema, columns, domains = cli._load_schema_map(
            argparse.Namespace(config=prefix + ".ini"))
        checks.expect(cli._ingest(prefix + ".csv", schema, columns, domains)
                      == fixture_dataset(n, seed),
                      f"{prefix}.csv does not read back as the fixture dataset")

        betas = ctx.state["betas"]
        checks.expect(all(b == betas[0] for b in betas),
                      f"estimates differ between passes over the same inputs: {betas}")
        law, spec = ctx.state["law"], ctx.state["spec"]
        pilots = [model1.estimate_model1(
            oracle.sample_law(law, self.pilot_n, seed=seed + 1 + s)[0], spec).beta_hat
            for s in range(self.pilot_reps)]
        tol = mc_tolerance(pilots, self.pilot_n, self.draws)
        truth = oracle.identify_model1(oracle.observed_law(law))
        checks.expect(within(betas[0][3], truth, tol),
                      f"oracle estimate {betas[0][3]!r} is not within {tol:.2e} "
                      f"of the identified {truth!r}")


WORKLOADS = {
    "bootstrap-n2k": BootstrapN2k,
    "replicate-n2k": ReplicateN2k,
    "large-n": LargeN,
}

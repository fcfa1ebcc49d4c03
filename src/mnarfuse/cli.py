"""Command-line interface.

Subcommands: simulate, estimate, replicate, validate, oracle-check, and
make-fixture.  Exit codes: 0 on success, 1 on data or convergence failures,
2 on usage errors.  Relative output paths are resolved against
$MNARFUSE_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
from collections import Counter

import numpy as np

from . import oracle
from .baselines import mar_estimate, mcar_estimate
from .data import (
    DatasetFormatError,
    DomainTag,
    InvalidRowsError,
    PooledDataset,
    VariableSchema,
    _floats,
    _ints,
    _lookup,
    _write_columns,
    read_csv,
    read_text,
    validate,
    write_csv,
)
from .inference import CI_LEVEL, BootstrapConfig, BootstrapError, bootstrap_ci, replicate
from .model1 import estimate_model1
from .model2 import estimate_model2
from .models import logistic
from .simulate import (
    Design,
    Model1Design,
    Model2Design,
    generate_model1,
    generate_model2,
    make_rng,
    write_truth_csv,
)

CHECK_FAILED = 1


def _out_path(path: str) -> str:
    base = os.environ.get("MNARFUSE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _refuse_same_file(flags: str, path: str, other: str) -> None:
    """Raise ValueError("<flags> name the same file <path>") where the two
    paths name one file: they resolve to one path, or both exist and are
    links to one file, as two hard links are."""
    if os.path.realpath(path) == os.path.realpath(other) or (
            os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)):
        raise ValueError(f"{flags} name the same file {path}")


def _check_outputs(*outputs: tuple[str, str]) -> None:
    """Raise ValueError naming the flag of the first (flag, path) of outputs
    whose path is a directory or lies in a directory that does not exist, so
    that a command fails before it prints or writes anything."""
    for flag, path in outputs:
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory, not a file")
        if not os.path.isdir(directory):
            raise ValueError(f"{flag} {path}: no such directory {directory}")


# ---------------------------------------------------------------------------
# schema-map config for external CSV files
# ---------------------------------------------------------------------------

# each [schema] option and its value when neither its flag nor the config sets it
_SCHEMA_DEFAULTS = {"covariates": "x1", "m_kind": "numeric", "m_levels": "", "y_kind": "numeric",
                    "missing_token": "?", "domain_primary": "1", "domain_auxiliary": "2"}


def _load_schema_map(args) -> tuple[VariableSchema, dict, dict]:
    """Build (schema, column map, domain value map) from the optional INI
    config plus flags; flags win over config values.

    Config layout: a [schema] section (covariates, m_kind, m_levels, y_kind,
    missing_token, domain_primary, domain_auxiliary) and a [columns] section
    mapping canonical names (domain, r, m, y, and each covariate) to the
    file's column headers.  [schema] option names are case-insensitive;
    [columns] names keep their case, as covariate names do.  Any other
    section, option or name is an error.  The config is UTF-8 text (see
    data.read_text).
    """
    cfg_schema, columns = {}, {}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        parser.optionxform = str
        text = read_text(args.config, f"config file {args.config}")
        try:
            parser.read_string(text, source=args.config)
        except configparser.Error as exc:
            message = " ".join(str(exc).split())  # some configparser messages span lines
            raise DatasetFormatError(f"config file {args.config}: {message}") from None
        _known(args.config, "section", parser.sections(), ("schema", "columns"))
        if parser.has_section("schema"):
            items = parser.items("schema")
            cfg_schema = {key.lower(): value for key, value in items}
            if len(cfg_schema) < len(items):
                raise DatasetFormatError(
                    f"config file {args.config}: an option of [schema] appears twice")
            _known(args.config, "[schema] option", cfg_schema, _SCHEMA_DEFAULTS)
        if parser.has_section("columns"):
            columns = dict(parser.items("columns"))

    option = {name: getattr(args, name, None) or cfg_schema.get(name, default)
              for name, default in _SCHEMA_DEFAULTS.items()}
    covariates = _names(option["covariates"])
    if not covariates:
        raise DatasetFormatError(f"config file {args.config}: covariates names no column")
    schema = VariableSchema(covariates, m_kind=option["m_kind"], m_levels=_names(option["m_levels"]),
                            y_kind=option["y_kind"], missing_token=option["missing_token"])
    _known(args.config, "[columns] name", columns, ("domain", "r", "m", "y",
                                                   *schema.covariate_names))
    primary, auxiliary = option["domain_primary"], option["domain_auxiliary"]
    if primary == auxiliary:
        raise DatasetFormatError(
            f"domain_primary and domain_auxiliary are both {primary!r}")
    return schema, columns, {primary: DomainTag.PRIMARY, auxiliary: DomainTag.AUXILIARY}


def _known(path: str, kind: str, names, known) -> None:
    """Raise DatasetFormatError naming the first of names that is not known."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise DatasetFormatError(f"config file {path}: unknown {kind} {unknown[0]!r} "
                                 f"(known: {', '.join(known)})")


def _names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated list, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


# bench/tracing.py and bench/workloads.py look the reader up under this name.
_ingest = read_csv


def _load_dataset(args) -> PooledDataset:
    return read_csv(args.data, *_load_schema_map(args))


def _checked_dataset(args) -> tuple[PooledDataset | None, list[str]]:
    """The dataset of --data, or None, and its invalid rows or else the domains it lacks."""
    try:
        dataset = _load_dataset(args)
    except InvalidRowsError as exc:
        return None, exc.violations
    return dataset, validate(dataset)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _design(args) -> Design:
    return (Model1Design if args.model == 1 else Model2Design)(n=args.n, setting=args.setting)


def _cmd_simulate(args) -> int:
    design = _design(args)
    generate = generate_model1 if design.model == 1 else generate_model2
    out = _out_path(args.out)
    truth_out = _out_path(args.truth_out) if args.truth_out else out + ".truth.csv"
    _refuse_same_file("--truth-out and --out", out, truth_out)  # it would overwrite the data
    _check_outputs(("--out", out), ("--truth-out" if args.truth_out else "--out", truth_out))
    dataset, sidecar = generate(design, args.seed)
    write_csv(dataset, out)
    write_truth_csv(sidecar, truth_out)
    print(f"wrote {len(dataset)} rows to {out} (truth sidecar: {truth_out})")
    return 0


_ESTIMATORS = {
    "1": estimate_model1,
    "2": estimate_model2,
    "mar": mar_estimate,
    "mcar": mcar_estimate,
}


def _cmd_estimate(args) -> int:
    json_out = _out_path(args.json) if args.json else None
    if json_out:  # the report would overwrite an input
        for flag, path in (("--data", args.data), ("--config", args.config)):
            if path:
                _refuse_same_file(f"--json and {flag}", path, json_out)
        _check_outputs(("--json", json_out))
    dataset, violations = _checked_dataset(args)
    if violations:
        print(*(f"invalid dataset: {v}" for v in violations), sep="\n", file=sys.stderr)
        return CHECK_FAILED
    estimator = _ESTIMATORS[args.model]
    report = estimator(dataset)
    if args.bootstrap:
        report.ci = bootstrap_ci(
            dataset, estimator, BootstrapConfig(k=args.bootstrap, seed=args.seed), report
        )
    line = f"beta_hat = {report.beta_hat:.6f}  ({report.estimator})"
    if report.ci is not None:
        line += f"  {CI_LEVEL:.0%} CI [{report.ci.lo:.6f}, {report.ci.hi:.6f}]"
    print(line)
    for w in report.warnings + _ci_warnings(report.ci, args.bootstrap):
        print(f"warning: {w}", file=sys.stderr)
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return 0


def _ci_warnings(ci, k: int) -> list[str]:
    """One line for the bootstrap refits of ci kept without converging, by
    solver status, and one for those dropped as failed, by reason, each
    with its count out of k; none for a missing ci or an empty count."""
    if ci is None:
        return []
    lines = []
    for counts, what in ((ci.nonconverged, "kept without converging"),
                         (ci.failures, "failed and dropped")):
        if counts:
            by = ", ".join(f"{name}: {count}" for name, count in Counter(counts).most_common())
            lines.append(f"{sum(counts.values())} of {k} bootstrap refits {what} ({by})")
    return lines


def _cmd_replicate(args) -> int:
    prefix = _out_path(args.out_prefix) if args.out_prefix else None
    if prefix:
        _check_outputs(("--out-prefix", prefix + "_summary.csv"),
                       ("--out-prefix", prefix + "_replicates.csv"))
    report = replicate(_design(args), n_reps=args.reps, seed=args.seed,
                       n_workers=args.workers)
    print(report.to_text())
    if prefix:
        report.write_summary_csv(prefix + "_summary.csv")
        report.write_replicates_csv(prefix + "_replicates.csv")
    return 0


def _cmd_validate(args) -> int:
    dataset, violations = _checked_dataset(args)
    print("\n".join(violations) if violations else f"ok: {len(dataset)} rows")
    return CHECK_FAILED if violations else 0


_INJECTED_SEED = 424242


def _violating_law() -> tuple:
    """A fixture law whose primary selection depends on M as well as Y, and
    the odds-ratio table of the Y-driven law it was made from."""
    law, or_true = oracle.random_model2_law(make_rng(_INJECTED_SEED))
    table = law.table.copy()
    table[0, :, 0, :, 1] *= 0.55  # extra M-dependent selection
    table[0, :, 0, :, 0] = law.table[0, :, 0, :, :].sum(axis=-1) - table[0, :, 0, :, 1]
    broken = oracle.DiscreteFullLaw(law.x_support, law.m_support, law.y_support,
                                    table / table.sum())
    return broken, or_true


def _cmd_oracle_check(args) -> int:
    failures = oracle.run_battery(args.laws, seed=args.seed)
    if args.inject_violation:
        failures += oracle.check_model2_law(_INJECTED_SEED, *_violating_law())
    if failures:
        for f in failures:
            print(
                f"FAIL law_seed={f.law_seed} check={f.check} "
                f"value={f.value:.3e} tol={f.tolerance:.1e}"
            )
        return CHECK_FAILED
    print(f"ok: {args.laws} law pairs, all identification checks passed")
    return 0


_FIXTURE_LEVELS = ("none", "mild", "severe")


def _draw_categories(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One category index per row of probs, the same draws as calling
    rng.choice(k, p=row) row by row: one uniform per row, located in the
    row's normalised CDF from the right."""
    u = rng.random(probs.shape[0])
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _cmd_make_fixture(args) -> int:
    """Synthetic observational fixture: binary outcome, three-level severity
    marker, one bounded risk score, with renamed columns and a matching
    schema-map config."""
    out = _out_path(args.out_prefix)
    _check_outputs(("--out-prefix", out + ".csv"), ("--out-prefix", out + ".ini"))
    rng = make_rng(args.seed)
    n = args.n
    g = np.where(rng.random(n) < 0.5, 1, 2)
    x = rng.uniform(-1.0, 1.0, n)
    level_logits = np.column_stack([np.zeros(n), 0.8 * x + 0.2, 1.2 * x - 0.4])
    probs = np.exp(level_logits)
    probs /= probs.sum(axis=1, keepdims=True)
    m_idx = _draw_categories(rng, probs)
    y = (rng.random(n) < logistic(0.5 * x + 0.9 * (m_idx == 1) + 1.6 * (m_idx == 2) - 0.5)).astype(int)
    p_r = np.where(
        g == 1,
        logistic(0.4 + 0.3 * x + 0.8 * (m_idx == 1) - 0.5 * (m_idx == 2)),
        logistic(0.8 + x),
    )
    r = (rng.random(n) < p_r).astype(int)

    observed = r == 1
    _write_columns(
        out + ".csv",
        ["site", "followup", "risk_score", "strain", "recovered"],
        [(g - 1, _lookup(("A", "B"))), (r, _ints), (x, _floats),
         (np.where(observed, m_idx, -1), _lookup((*_FIXTURE_LEVELS, "NA"))),
         (np.where(observed & (g == 1), y, -1), _lookup(("0", "1", "NA")))],
    )
    with open(out + ".ini", "w") as fh:
        fh.write(
            "[schema]\n"
            "covariates = risk_score\n"
            "m_kind = categorical\n"
            f"m_levels = {','.join(_FIXTURE_LEVELS)}\n"
            "y_kind = binary\n"
            "missing_token = NA\n"
            "domain_primary = A\n"
            "domain_auxiliary = B\n\n"
            "[columns]\n"
            "domain = site\n"
            "r = followup\n"
            "m = strain\n"
            "y = recovered\n"
        )
    print(f"wrote {out}.csv and {out}.ini ({n} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _worker_count(text: str) -> int:
    """At least 1, and no more than the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(_positive_int(text), cpus or 1)


def _name_list(text: str) -> str:
    """A comma-separated list that names at least one column."""
    if not _names(text):
        raise argparse.ArgumentTypeError(f"names no column: {text!r}")
    return text


def _add_schema_flags(sub):
    sub.add_argument("--config", help="schema-map INI for external CSV files")
    sub.add_argument("--covariates", type=_name_list, help="comma-separated covariate names")
    sub.add_argument("--m-kind", dest="m_kind", choices=["numeric", "categorical"])
    sub.add_argument("--m-levels", dest="m_levels", help="comma-separated M levels")
    sub.add_argument("--y-kind", dest="y_kind", choices=["numeric", "binary"])
    sub.add_argument("--missing-token", dest="missing_token")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnarfuse",
        description="Two-domain outcome-mean estimation under outcome-"
                    "informative missingness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--model", type=int, choices=[1, 2], required=True)
    sim.add_argument("--setting", choices=["T", "F"], default="T")
    sim.add_argument("--n", type=_positive_int, required=True)
    sim.add_argument("--seed", type=_nonnegative_int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth-out", dest="truth_out")
    sim.set_defaults(func=_cmd_simulate)

    est = subs.add_parser("estimate", help="estimate the outcome mean from a CSV")
    est.add_argument("--data", required=True)
    est.add_argument("--model", choices=list(_ESTIMATORS), required=True)
    est.add_argument("--bootstrap", type=_nonnegative_int, default=0, metavar="K")
    est.add_argument("--seed", type=_nonnegative_int, default=0)
    est.add_argument("--json", help="write the full report as JSON")
    _add_schema_flags(est)
    est.set_defaults(func=_cmd_estimate)

    rep = subs.add_parser("replicate", help="Monte Carlo replication study")
    rep.add_argument("--model", type=int, choices=[1, 2], required=True)
    rep.add_argument("--setting", choices=["T", "F"], default="T")
    rep.add_argument("--n", type=_positive_int, required=True)
    rep.add_argument("--reps", type=_positive_int, required=True)
    rep.add_argument("--seed", type=_nonnegative_int, default=0)
    rep.add_argument("--workers", type=_worker_count, default=1)
    rep.add_argument("--out-prefix", dest="out_prefix")
    rep.set_defaults(func=_cmd_replicate)

    val = subs.add_parser("validate", help="check a CSV against the invariants")
    val.add_argument("--data", required=True)
    _add_schema_flags(val)
    val.set_defaults(func=_cmd_validate)

    orc = subs.add_parser("oracle-check", help="randomized identification battery")
    orc.add_argument("--laws", type=_positive_int, default=100)
    orc.add_argument("--seed", type=_nonnegative_int, default=0)
    orc.add_argument("--inject-violation", action="store_true",
                     help="add a fixture that violates the selection assumption")
    orc.set_defaults(func=_cmd_oracle_check)

    fix = subs.add_parser("make-fixture", help="synthetic observational fixture")
    fix.add_argument("--n", type=_positive_int, default=2000)
    fix.add_argument("--seed", type=_nonnegative_int, default=0)
    fix.add_argument("--out-prefix", dest="out_prefix", required=True)
    fix.set_defaults(func=_cmd_make_fixture)

    return parser


# main parses with one parser per process; build_parser still builds a new one.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # data, config, estimation and oracle errors are all ValueErrors; an
    # unreadable input or unwritable output path is an OSError
    except (ValueError, BootstrapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""Output checks of the benchmark workloads.

Each predicate returns True when the program's output is correct; `Checks`
counts the outcomes of one run.  numpy is imported inside the functions that
need it, because the launcher times `import mnarfuse` (and with it numpy) as
part of set-up.
"""

from __future__ import annotations

import csv
import math


class Checks:
    """Pass/fail tally of one run; the first few failures are kept verbatim."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    @property
    def total(self) -> int:
        return self.passed + len(self.failures)


def beta_matches(cli_beta: float, reference: float, tol: float = 1e-12) -> bool:
    """The CLI's estimate equals the in-memory estimate on the same dataset."""
    return abs(cli_beta - reference) <= tol


def ci_valid(lo: float, hi: float) -> bool:
    return math.isfinite(lo) and math.isfinite(hi) and lo < hi


def estimates_identical(a: dict, b: dict) -> bool:
    """Two replicate estimate maps (name -> array) are byte-identical."""
    if a.keys() != b.keys():
        return False
    return all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def truth_matches(path: str, sidecar) -> bool:
    """Re-reading a truth sidecar CSV gives back the arrays that were written."""
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["domain", "r", "m_latent", "y_latent"] or len(rows) - 1 != sidecar.g.size:
        return False
    body = rows[1:]
    g = np.array([int(r[0]) for r in body])
    r = np.array([int(r[1]) for r in body])
    m = np.array([float(r[2]) for r in body])
    y = np.array([float(r[3]) if r[3] else math.nan for r in body])
    return (np.array_equal(g, sidecar.g) and np.array_equal(r, sidecar.r)
            and m.tobytes() == sidecar.m_latent.tobytes()
            and np.array_equal(y, sidecar.y_latent, equal_nan=True))


def mc_tolerance(pilot_estimates: list[float], n_pilot: int, n: int,
                 z: float = 5.0) -> float:
    """z standard errors of an estimate from n draws, with the standard error
    scaled from the spread of estimates at n_pilot draws (se ~ 1/sqrt(n))."""
    import statistics

    return z * statistics.stdev(pilot_estimates) * math.sqrt(n_pilot / n)


def within(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol

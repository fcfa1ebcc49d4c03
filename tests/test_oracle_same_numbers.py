"""Same numbers from the discrete oracle on a fixed panel of law pairs.

For the law pairs drawn from make_rng(0, i), i < 20, oracle_same_numbers.json
holds what the oracle gave before its functionals, bridge, rank test and law
builder were merged: the sha256 of both random law tables, both
identification functionals, both bridge residuals, the recovered odds-ratio
table, every check_assumptions verdict and violation, and every
verify_or_identities residual.  The tables and verdicts must match exactly
and each value within 1e-12.  The criterion-8 truth and the large-n oracle
check both draw from random_model1_law, so its table is pinned byte for byte.

To rewrite the file from the current code:
    python tests/test_oracle_same_numbers.py > tests/oracle_same_numbers.json
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from mnarfuse.oracle import (
    bridge_residual,
    check_assumptions,
    identify_model1,
    identify_model2,
    observed_law,
    random_model1_law,
    random_model2_law,
    recover_odds_ratio,
    verify_or_identities,
)
from mnarfuse.simulate import make_rng

TOL = 1e-12
N_LAWS = 20
RECORDED = pathlib.Path(__file__).with_name("oracle_same_numbers.json")


def panel_entry(i: int) -> dict:
    """Tables as sha256, verdicts as booleans and values as floats for the
    law pair drawn from make_rng(0, i)."""
    rng = make_rng(0, i)
    law1 = random_model1_law(rng)
    law2, _ = random_model2_law(rng)
    obs2 = observed_law(law2)
    or_table = recover_odds_ratio(obs2)
    values = {
        "identify_model1": identify_model1(observed_law(law1)),
        "identify_model2": identify_model2(obs2, or_table),
        "bridge_model1_law": bridge_residual(law1),
        "bridge_model2_law": bridge_residual(law2),
    }
    for xi, yi in np.ndindex(or_table.shape):
        values[f"or_table[{xi},{yi}]"] = float(or_table[xi, yi])
    holds = {}
    for family, law in (("model1_law", law1), ("model2_law", law2)):
        checks = check_assumptions(law)
        for name in checks.holds:
            holds[f"{family}.{name}"] = bool(checks.holds[name])
            values[f"{family}.violation.{name}"] = float(checks.violation[name])
    for name, v in verify_or_identities(law2).items():
        values[f"identity.{name}"] = float(v)
    tables = [hashlib.sha256(law.table.tobytes()).hexdigest() for law in (law1, law2)]
    return {"tables": tables, "holds": holds, "values": values}


@pytest.mark.parametrize("i", range(N_LAWS))
def test_oracle_keeps_its_numbers(i):
    now, then = panel_entry(i), json.loads(RECORDED.read_text())[str(i)]
    assert now["tables"] == then["tables"]
    assert now["holds"] == then["holds"]
    assert sorted(now["values"]) == sorted(then["values"])
    for name, recorded in then["values"].items():
        assert abs(now["values"][name] - float.fromhex(recorded)) <= TOL, (
            name, now["values"][name].hex(), recorded)


if __name__ == "__main__":
    panel = {}
    for i in range(N_LAWS):
        entry = panel_entry(i)
        entry["values"] = {k: v.hex() for k, v in entry["values"].items()}
        panel[str(i)] = entry
    print(json.dumps(panel, indent=1, sort_keys=True))

"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line, and that line's detail is the pinned one, so a change
that moves any count fails here and not only in the benchmark pins."""

import pytest

from saddlelab.acceptance import (CRITERIA, criterion_10_reproducibility,
                                  run_criterion)

# each criterion's detail at BASE_SEED; criterion 5's ends at "; runtime",
# the only wall-clock part of a detail
DETAILS = {
    "1. linear supercritical escape":
        "k=0.8: converged=0.0000 (<=0.01), escaped=0.9750 (>=0.95), "
        "barrier=0.1, eps=0.001",
    "2. linear subcritical dichotomy":
        "k=0.3: converged=0.3800, escaped=0.5455 (both >=0.05; Wilson lower "
        "bounds 0.3590, 0.5236)",
    "3. never-return closed form":
        "x_s=-1.0: freq=0.5246/0.5274 vs alpha=0.5271; x_s=-0.5: "
        "freq=0.7517/0.7498 vs alpha=0.7518; x_s=-0.25: freq=0.8758/0.8737 "
        "vs alpha=0.8744",
    "4. monomial phase flip":
        "k=2,g=0.6(sub): conv=0.000 esc=0.999; k=2,g=0.9(super): conv=0.720 "
        "lb=0.691; k=3,g=0.55(sub): conv=0.000 esc=0.986; k=3,g=0.85(super): "
        "conv=0.689 lb=0.660",
    "5. discrete phase flip":
        "g=0.6: conv=0.000 (<=0.01); g=0.9: conv=0.510 lb=0.466 (>0)",
    "6. exact-vs-EM oracle":
        "mean z=1.41, var z=-0.66 (|z|<=4); dt/2 gap 0.0632 vs 0.0608+SE 0.0304",
    "7. closed-form formulas":
        "remaining_variance(0.3,0)=0.625 (==0.625), qv(exp,0,inf)=1.0 (==1); "
        "MC variances 0.6251, 1.0065 within 5%",
    "8. dominance coupling":
        "500 coupled paths, 15000 steps: 0 ordering violations (exact)",
    "9. urn checks":
        "decomposition max gap 1.78e-15 (<1e-12); Polya mean gap 0.00017 <= "
        "4SE 0.00554; f=1/2: 1.0000 of runs within 0.05 of 1/2 (>=0.95)",
    "10. reproducibility and parallelism":
        "manifest rerun counts identical: True; --jobs 1 vs --jobs 8 CSV "
        "identical: True",
}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, fn):
    result = run_criterion(name, fn)
    print(result.line)
    assert result.passed, result.line
    assert result.detail.partition("; runtime")[0] == DETAILS[name]


def test_reproducibility_criterion_prints_nothing(capsys):
    # validate prints one line per criterion; the sweeps that criterion 10
    # runs through the CLI must not add theirs
    passed, _ = criterion_10_reproducibility()
    assert passed
    assert capsys.readouterr().out == ""

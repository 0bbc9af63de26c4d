"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line, and that line's detail is the pinned one, so a change
that moves any count fails here and not only in the benchmark pins."""

import pytest

from saddlelab import experiments
from saddlelab.acceptance import (BASE_SEED, CRITERIA,
                                  criterion_4_monomial_phase_flip,
                                  criterion_10_reproducibility, run_criterion)
from saddlelab.analysis import MCResult, Outcome
from saddlelab.model import predict_regime
from saddlelab.rng import derive_seed

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


def test_phase_flip_criterion_runs_one_sweep(monkeypatch):
    # criterion 4's four cells share one estimate_probability call, so one
    # pool; each cell keeps its own seed.  The recorder runs no trial: a
    # cell predicted convergent converges in every trial, the others escape
    calls = []

    def record(runners, n_trials, base_seeds, jobs=1):
        calls.append((list(runners), [int(seed) for seed in base_seeds]))
        results = []
        for runner, seed in zip(runners, base_seeds):
            spec = runner.spec
            regime, _ = predict_regime(runner.model, spec.drift.k,
                                       spec.noise.gamma)
            outcome = (Outcome.CONVERGED if regime == "convergence"
                       else Outcome.ESCAPED)
            results.append(MCResult(n_trials=n_trials,
                                    counts={outcome: n_trials},
                                    base_seed=int(seed)))
        return results

    monkeypatch.setattr(experiments, "estimate_probability", record)
    passed, detail = criterion_4_monomial_phase_flip()
    assert len(calls) == 1
    runners, seeds = calls[0]
    assert len(runners) == 4
    # every cell on its own seed, whatever order the pool gets them in
    cells = [(2.0, 0.6), (2.0, 0.9), (3.0, 0.55), (3.0, 0.85)]
    assert {seed: (runner.spec.drift.k, runner.spec.noise.gamma)
            for runner, seed in zip(runners, seeds)} == {
        derive_seed(BASE_SEED, int(k * 100), int(gamma * 100)): (k, gamma)
        for k, gamma in cells}
    assert passed, detail

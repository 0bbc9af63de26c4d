"""Acceptance suite: one self-contained check per criterion, desk scale.

Each criterion pins its parameters and tolerances here; `saddlelab
validate` and tests/test_acceptance.py both run this registry and print
one pass/fail line per criterion.  Statistical checks run at fixed seeds,
so a pass is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .analysis import (Outcome, moment_compare, never_return_alpha,
                       remaining_variance, wilson_interval)
from .experiments import ExperimentConfig, run_dichotomy
from .model import DriftSpec, NoiseSchedule, ProcessSpec
from .rng import derive_seed, make_rng

BASE_SEED = 20260810

# never-return probabilities for k = 0.3, s = 0: alpha = 2 P(N(0, 2.5) > |x_s|),
# frozen from the normal CDF independently of the sampler under test
ALPHA_TABLE = {
    -0.25: 0.8743670611628919,
    -0.5: 0.7518296340458492,
    -1.0: 0.5270892568655381,
}


@dataclass
class CriterionResult:
    criterion: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.criterion}: {self.detail} ({self.elapsed_s:.1f}s)"


def criterion_1_linear_supercritical() -> tuple[bool, str]:
    config = ExperimentConfig(kind="linear-dichotomy", family="linear", k=0.8,
                              x0=-0.1, t0=0.0, horizon=15.0, dt=1e-3,
                              trials=2000, seed=BASE_SEED, jobs=1)
    out = run_dichotomy(config)
    conv = out.result.estimate(Outcome.CONVERGED)
    esc = out.result.estimate(Outcome.ESCAPED)
    ok = conv <= 0.01 and esc >= 0.95
    return ok, (f"k=0.8: converged={conv:.4f} (<=0.01), escaped={esc:.4f} "
                f"(>=0.95), barrier={out.runner.cfg.barrier:g}, "
                f"eps={out.runner.cfg.eps_conv:g}")


def criterion_2_linear_subcritical() -> tuple[bool, str]:
    config = ExperimentConfig(kind="linear-dichotomy", family="linear", k=0.3,
                              x0=-0.1, t0=0.0, horizon=15.0, dt=1e-3,
                              trials=2000, seed=BASE_SEED, jobs=1)
    out = run_dichotomy(config)
    conv = out.result.estimate(Outcome.CONVERGED)
    esc = out.result.estimate(Outcome.ESCAPED)
    conv_lo = out.result.interval(Outcome.CONVERGED)[0]
    esc_lo = out.result.interval(Outcome.ESCAPED)[0]
    ok = conv >= 0.05 and esc >= 0.05 and conv_lo > 0 and esc_lo > 0
    return ok, (f"k=0.3: converged={conv:.4f}, escaped={esc:.4f} "
                f"(both >=0.05; Wilson lower bounds {conv_lo:.4f}, {esc_lo:.4f})")


def criterion_3_never_return() -> tuple[bool, str]:
    points = sorted(ALPHA_TABLE)
    n_paths = 100_000
    coverage = {}
    for run_idx, base in enumerate((BASE_SEED + 31, BASE_SEED + 62)):
        for p_idx, x_s in enumerate(points):
            alpha = never_return_alpha(0.3, 0.0, x_s)
            if abs(alpha - ALPHA_TABLE[x_s]) > 1e-12:
                return False, f"alpha({x_s}) drifted from its frozen value"
            hits, n = cont.linear_hit_zero_mc(0.3, x_s, 0.0, 30.0, n_paths,
                                              derive_seed(base, p_idx))
            lo, hi = wilson_interval(hits, n, confidence=0.99)
            coverage[(run_idx, x_s)] = (lo <= alpha <= hi, hits / n, alpha)
    per_run_ok = all(
        sum(coverage[(r, x)][0] for x in points) >= 2 for r in (0, 1))
    per_point_ok = all(
        coverage[(0, x)][0] or coverage[(1, x)][0] for x in points)
    detail = "; ".join(
        f"x_s={x}: freq={coverage[(0, x)][1]:.4f}/{coverage[(1, x)][1]:.4f} "
        f"vs alpha={coverage[(0, x)][2]:.4f}" for x in points)
    return per_run_ok and per_point_ok, detail


def criterion_4_monomial_phase_flip() -> tuple[bool, str]:
    checks = []
    details = []
    conv_lower_bounds = {}
    for k, gamma_pair in ((2.0, (0.6, 0.9)), (3.0, (0.55, 0.85))):
        for gamma in gamma_pair:
            config = ExperimentConfig(kind="monomial-dichotomy", k=k,
                                      gamma=gamma, x0=-0.2, t0=1.0,
                                      horizon=200.0, dt=1e-3, trials=1000,
                                      seed=derive_seed(BASE_SEED, int(k * 100),
                                                       int(gamma * 100)),
                                      jobs=1)
            out = run_dichotomy(config)
            conv = out.result.estimate(Outcome.CONVERGED)
            esc = out.result.estimate(Outcome.ESCAPED)
            lo = out.result.interval(Outcome.CONVERGED)[0]
            threshold = 0.5 + 0.5 / k
            if gamma < threshold:
                ok = conv <= 0.01 and esc >= 0.95
                details.append(f"k={k:g},g={gamma:g}(sub): conv={conv:.3f} "
                               f"esc={esc:.3f}")
                if out.prediction != "nonconvergence":
                    ok = False
            else:
                ok = lo > 0 and conv >= 0.05
                details.append(f"k={k:g},g={gamma:g}(super): conv={conv:.3f} "
                               f"lb={lo:.3f}")
                if out.prediction != "convergence":
                    ok = False
            conv_lower_bounds[(k, gamma)] = lo
            checks.append(ok)
    # threshold monotonicity along each k row of the acceptance grid
    for k, gamma_pair in ((2.0, (0.6, 0.9)), (3.0, (0.55, 0.85))):
        lows = [conv_lower_bounds[(k, g)] for g in sorted(gamma_pair)]
        first_positive = next((i for i, lo in enumerate(lows) if lo > 0), None)
        if first_positive is not None:
            checks.append(all(lo > 0 for lo in lows[first_positive:]))
    return all(checks), "; ".join(details)


def criterion_5_discrete_phase_flip() -> tuple[bool, str]:
    started = time.time()
    checks = []
    details = []
    for gamma in (0.6, 0.9):
        config = ExperimentConfig(kind="discrete-dichotomy", k=2.0,
                                  gamma=gamma, noise="rademacher",
                                  noise_bound=1.0, x0=-0.2, n0=10,
                                  steps=1_000_000, trials=500,
                                  seed=derive_seed(BASE_SEED, int(gamma * 100)),
                                  jobs=1)
        out = run_dichotomy(config)
        conv = out.result.estimate(Outcome.CONVERGED)
        lo = out.result.interval(Outcome.CONVERGED)[0]
        if gamma < 0.75:
            checks.append(conv <= 0.01)
            details.append(f"g={gamma:g}: conv={conv:.3f} (<=0.01)")
        else:
            checks.append(lo > 0)
            details.append(f"g={gamma:g}: conv={conv:.3f} lb={lo:.3f} (>0)")
    elapsed = time.time() - started
    checks.append(elapsed < 600.0)
    details.append(f"runtime {elapsed:.0f}s (<600s)")
    return all(checks), "; ".join(details)


def _em_final_values(k: float, x0: float, t_end: float, dt: float,
                     n_paths: int, seed: int) -> np.ndarray:
    spec = ProcessSpec(DriftSpec("linear", k), NoiseSchedule("exp_half"),
                       t0=0.0, x0=x0)
    grid = cont.TimeGrid(0.0, t_end, dt)
    seeds = [derive_seed(seed, i) for i in range(n_paths)]
    return cont.em_batch(spec, grid, seeds).final


def criterion_6_exact_vs_em() -> tuple[bool, str]:
    # positive-branch start far from the origin: sign changes are ~1e-6 rare,
    # so the single-branch law matches the |x|-drift dynamics
    k, x0, t_end, n = 0.8, 3.0, 2.0, 10_000
    exact, _ = cont.linear_exact_batch(k, "positive", x0, 0.0, [t_end], n,
                                       derive_seed(BASE_SEED, 600))
    em_coarse = _em_final_values(k, x0, t_end, 1e-3, n, derive_seed(BASE_SEED, 601))
    report = moment_compare(em_coarse, exact[:, 0])
    ok = report.passed
    em_fine = _em_final_values(k, x0, t_end, 5e-4, n, derive_seed(BASE_SEED, 602))
    exact_mean = exact[:, 0].mean()
    gap_coarse = abs(em_coarse.mean() - exact_mean)
    gap_fine = abs(em_fine.mean() - exact_mean)
    se = em_fine.std(ddof=1) / math.sqrt(n)
    refine_ok = gap_fine <= gap_coarse + se
    return ok and refine_ok, (
        f"mean z={report.mean_z:.2f}, var z={report.var_z:.2f} (|z|<=4); "
        f"dt/2 gap {gap_fine:.4f} vs {gap_coarse:.4f}+SE {se:.4f}")


def _mc_integral_variance(integrand, t_end: float, dt: float, n_paths: int,
                          seed: int) -> float:
    """Variance over paths of sum g(u_i) dB_i, accumulated in step chunks."""
    n_steps = int(round(t_end / dt))
    rng = make_rng(seed)
    total = np.zeros(n_paths)
    chunk = 500
    for a in range(0, n_steps, chunk):
        b = min(a + chunk, n_steps)
        u = (np.arange(a, b) * dt)
        g = integrand(u)
        z = rng.standard_normal((n_paths, b - a))
        total += z @ (g * math.sqrt(dt))
    return float(total.var(ddof=1))


def criterion_7_closed_forms() -> tuple[bool, str]:
    rv = remaining_variance(0.3, 0.0)
    qv = cont.quadratic_variation(NoiseSchedule("exp_half"), 0.0, math.inf)
    exact_ok = rv == 0.625 and qv == 1.0
    var_rv = _mc_integral_variance(lambda u: np.exp(-u * (2 * 0.3 + 1) / 2.0),
                                   40.0, 0.01, 10_000, derive_seed(BASE_SEED, 700))
    var_qv = _mc_integral_variance(lambda u: np.exp(-u / 2.0),
                                   40.0, 0.01, 10_000, derive_seed(BASE_SEED, 701))
    rv_ok = abs(var_rv - 0.625) / 0.625 < 0.05
    qv_ok = abs(var_qv - 1.0) < 0.05
    return exact_ok and rv_ok and qv_ok, (
        f"remaining_variance(0.3,0)={rv} (==0.625), qv(exp,0,inf)={qv} (==1); "
        f"MC variances {var_rv:.4f}, {var_qv:.4f} within 5%")


def criterion_8_dominance() -> tuple[bool, str]:
    schedule = NoiseSchedule("exp_half")
    spec_a = ProcessSpec(DriftSpec("linear", 0.8), schedule, t0=0.0, x0=-0.45)
    spec_b = ProcessSpec(DriftSpec("linear", 0.3), schedule, t0=0.0, x0=-0.5)
    grid = cont.TimeGrid(0.0, 15.0, 1e-3)
    seeds = [derive_seed(BASE_SEED, 800, i) for i in range(500)]
    first = cont.coupled_violations_batch(spec_a, spec_b, -0.45, -0.5, grid, seeds)
    violations = int((first >= 0).sum())
    return violations == 0, (f"500 coupled paths, 15000 steps: "
                             f"{violations} ordering violations (exact)")


def criterion_9_urn() -> tuple[bool, str]:
    checks = []
    details = []
    # pathwise decomposition identity over 10 random seeds
    rng = make_rng(derive_seed(BASE_SEED, 900))
    gaps = []
    for i in range(10):
        table = tuple(np.round(rng.random(9), 6))
        spec = disc.UrnSpec("table", table=table, red0=2, total0=5)
        rep = disc.urn_as_sgd_check(spec, 1005, derive_seed(BASE_SEED, 901, i))
        gaps.append(rep.max_abs_gap)
        checks.append(rep.pathwise_equal)
    details.append(f"decomposition max gap {max(gaps):.2e} (<1e-12)")
    # Polya martingale: mean of X_N preserved
    polya = disc.UrnSpec("identity", red0=3, total0=10)
    seeds = [derive_seed(BASE_SEED, 902, i) for i in range(10_000)]
    finals = disc.urn_final_batch(polya, 2000, seeds)
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    gap = abs(float(finals.mean()) - 0.3)
    checks.append(gap <= 4 * se)
    details.append(f"Polya mean gap {gap:.5f} <= 4SE {4 * se:.5f}")
    # constant f = 1/2 concentration at N = 1e5
    half = disc.UrnSpec("constant", value=0.5, red0=1, total0=2)
    seeds = [derive_seed(BASE_SEED, 903, i) for i in range(10_000)]
    finals = disc.urn_final_batch(half, 100_000, seeds)
    frac = float((np.abs(finals - 0.5) < 0.05).mean())
    checks.append(frac >= 0.95)
    details.append(f"f=1/2: {frac:.4f} of runs within 0.05 of 1/2 (>=0.95)")
    return all(checks), "; ".join(details)


def criterion_10_reproducibility() -> tuple[bool, str]:
    import filecmp
    import tempfile
    from pathlib import Path

    from .cli import main

    config = ExperimentConfig(kind="monomial-dichotomy", k=2.0, gamma=0.9,
                              x0=-0.2, t0=1.0, horizon=30.0, dt=1e-2,
                              trials=64, seed=BASE_SEED, jobs=1)
    first = run_dichotomy(config)
    again = run_dichotomy(ExperimentConfig.from_dict(
        ExperimentConfig.from_dict(config.to_dict()).to_dict()))
    counts_ok = first.result.counts == again.result.counts
    with tempfile.TemporaryDirectory() as tmp:
        out1, out8 = Path(tmp) / "j1", Path(tmp) / "j8"
        # 600 trials > 2 blocks, so --jobs 8 really schedules onto the pool
        argv = ["sweep", "--model", "continuous", "--k-values", "2.0",
                "--gamma-values", "0.6,0.9", "--trials", "600",
                "--horizon", "30.0", "--dt", "0.01", "--x0", "-0.2",
                "--seed", str(BASE_SEED)]
        rc1 = main(argv + ["--jobs", "1", "--out", str(out1)])
        rc8 = main(argv + ["--jobs", "8", "--out", str(out8)])
        same = filecmp.cmp(out1 / "sweep_results.csv",
                           out8 / "sweep_results.csv", shallow=False)
    ok = counts_ok and rc1 == 0 and rc8 == 0 and same
    return ok, (f"manifest rerun counts identical: {counts_ok}; "
                f"--jobs 1 vs --jobs 8 CSV identical: {same}")


CRITERIA = [
    ("1. linear supercritical escape", criterion_1_linear_supercritical),
    ("2. linear subcritical dichotomy", criterion_2_linear_subcritical),
    ("3. never-return closed form", criterion_3_never_return),
    ("4. monomial phase flip", criterion_4_monomial_phase_flip),
    ("5. discrete phase flip", criterion_5_discrete_phase_flip),
    ("6. exact-vs-EM oracle", criterion_6_exact_vs_em),
    ("7. closed-form formulas", criterion_7_closed_forms),
    ("8. dominance coupling", criterion_8_dominance),
    ("9. urn checks", criterion_9_urn),
    ("10. reproducibility and parallelism", criterion_10_reproducibility),
]


def run_criterion(name: str, fn) -> CriterionResult:
    started = time.time()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(criterion=name, passed=passed, detail=detail,
                           elapsed_s=time.time() - started)


def run_acceptance(only: str | None = None) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if only is not None and not name.startswith(f"{only}."):
            continue
        result = run_criterion(name, fn)
        print(result.line, flush=True)
        results.append(result)
    if only is not None and not results:
        raise ValueError(f"no acceptance criterion numbered {only!r}")
    return results

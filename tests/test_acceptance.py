"""End-to-end acceptance gate: one test per shipping criterion.

Each test records a CRITERION verdict line with its measured numbers; the
conftest terminal-summary hook replays every verdict after the run so they
land in the log even though pytest captures test output. Tolerances are
stated inline next to the measured values.
"""

import os
import pathlib
import time

import numpy as np
import pytest
from scipy import integrate, signal, stats

from dramp.cli import EXIT_OK, EXIT_REFUSED, main
from dramp.config import build_spec
from dramp.driver import run_simulation
from dramp.kernel import (
    REJECTED,
    BlockDraws,
    Kernel,
    KernelConfig,
    propose_cascade,
    run_kernel,
)
from dramp.model import TargetDensity, gaussian_target
from dramp.parallel import fit_geometric, predict_speedup, run_forkjoin, run_multichain
from dramp.persist import ChainWriter, OutputSuite
from dramp.proposal import ProposalState, adaptation_measure
from dramp.rng import chain_stream
from dramp.refine import estimate_iac, refine_two_phase

from conftest import ACCEPTANCE_VERDICTS
from test_refine import as_chain, sticky_normal_chain


def announce(number, title, checks):
    ok = all(flag for flag, _ in checks)
    lines = ["CRITERION %02d %s  %s" % (number, "PASS" if ok else "FAIL", title)]
    lines.extend(
        "    %s %s" % ("+" if flag else "!", detail) for flag, detail in checks
    )
    ACCEPTANCE_VERDICTS.extend(lines)
    for line in lines:
        print(line)
    failed = [detail for flag, detail in checks if not flag]
    assert not failed, "criterion %d: %s" % (number, "; ".join(failed))


def fmt_floats(values):
    return ",".join("%.17g" % v for v in np.asarray(values).ravel())


def assert_chains_bitwise(a, b):
    assert a.n_rows == b.n_rows
    assert a.states.tobytes() == b.states.tobytes()
    assert a.log_funcs.tobytes() == b.log_funcs.tobytes()
    assert a.mean_acceptance_rates.tobytes() == b.mean_acceptance_rates.tobytes()
    assert a.adaptation_measures.tobytes() == b.adaptation_measures.tobytes()
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.process_ids, b.process_ids)
    assert np.array_equal(a.dr_stages, b.dr_stages)
    assert np.array_equal(a.burnin_locations, b.burnin_locations)


SUITE_FILES = (
    "run_chain.txt",
    "run_sample.txt",
    "run_report.txt",
    "run_progress.txt",
    "run_restart.bin",
)


@pytest.fixture(scope="module")
def gauss4d(tmp_path_factory):
    """Shared 4-D Gaussian recovery run (criteria 1 and 2)."""
    rng = np.random.default_rng(100)
    A = rng.standard_normal((4, 4))
    cov = A @ A.T + 0.5 * np.eye(4)
    cov *= 4.0 / np.trace(cov)
    mean = np.array([1.0, -0.5, 0.25, 2.0])
    prefix = tmp_path_factory.mktemp("c1") / "run"
    spec = build_spec({
        "target": "mvn", "dim": "4", "target-mean": fmt_floats(mean),
        "target-cov": fmt_floats(cov), "chain-len": "50000", "seed": "42",
        "scale-factor": "1.9", "out": str(prefix),
        "deterministic-test-mode": "true",
    })
    t0 = time.monotonic()
    result = run_simulation(spec)
    return {"mean": mean, "cov": cov, "result": result,
            "runtime": time.monotonic() - t0}


def test_criterion_01_gaussian_recovery(gauss4d):
    result = gauss4d["result"]
    pts = result.refined.points
    mean_err = float(np.abs(pts.mean(axis=0) - gauss4d["mean"]).max())
    sample_cov = np.cov(pts.T)
    frob = float(np.linalg.norm(sample_cov - gauss4d["cov"])
                 / np.linalg.norm(gauss4d["cov"]))
    announce(1, "4-D Gaussian recovery from the refined sample", [
        (result.summaries[0].chain.n_rows == 50000,
         "unique states = %d (need 50000)" % result.summaries[0].chain.n_rows),
        (mean_err <= 0.05,
         "max per-component mean error = %.4f (<= 0.05)" % mean_err),
        (frob <= 0.10,
         "covariance Frobenius relative error = %.4f (<= 0.10)" % frob),
        (gauss4d["runtime"] <= 60.0,
         "runtime = %.1fs (<= 60s)" % gauss4d["runtime"]),
    ])


def test_criterion_02_diminishing_adaptation(gauss4d):
    chain = gauss4d["result"].summaries[0].chain
    column = chain.adaptation_measures
    events = column[column > 0.0]
    windows = events[: events.size - events.size % 10].reshape(10, -1)
    means = windows.mean(axis=1)
    inversions = int(np.sum(means[1:] > means[:-1]))
    announce(2, "adaptation measures diminish over the run", [
        (events.size >= 100,
         "adaptation events observed = %d (need >= 100)" % events.size),
        (bool(np.all((column >= 0.0) & (column <= 1.0))),
         "all measures within [0, 1]; max = %.4f" % float(column.max())),
        (inversions <= 1,
         "window-mean inversions = %d of 9 steps (<= 1); means %s"
         % (inversions, np.array2string(means, precision=4))),
    ])


def test_criterion_03_tvd_dominated_by_measure():
    rng = np.random.default_rng(314)

    def random_cov(d):
        A = rng.standard_normal((d, d))
        return A @ A.T + (0.3 + rng.random()) * np.eye(d)

    def measure_of(S1, S2):
        d = S1.shape[0]
        a = ProposalState.create(d, covariance=S1, scale_factor=1.0, dr_scales=())
        b = ProposalState.create(d, covariance=S2, scale_factor=1.0, dr_scales=())
        return adaptation_measure(a, b)

    def tvd_1d(s1, s2):
        integrand = lambda x: 0.5 * abs(
            stats.norm.pdf(x, scale=np.sqrt(s1))
            - stats.norm.pdf(x, scale=np.sqrt(s2))
        )
        hi = 12.0 * np.sqrt(max(s1, s2))
        value, _ = integrate.quad(integrand, -hi, hi, limit=200)
        return value

    def tvd_2d(S1, S2, n):
        hi = 10.0 * np.sqrt(max(np.linalg.eigvalsh(S1).max(),
                                np.linalg.eigvalsh(S2).max()))
        ax = np.linspace(-hi, hi, n)
        X, Y = np.meshgrid(ax, ax)
        grid = np.stack([X.ravel(), Y.ravel()], axis=1)
        p = stats.multivariate_normal(cov=S1).pdf(grid)
        q = stats.multivariate_normal(cov=S2).pdf(grid)
        integrand = 0.5 * np.abs(p - q).reshape(n, n)
        return float(np.trapezoid(np.trapezoid(integrand, ax, axis=1), ax))

    violations = 0
    worst_margin = np.inf
    margin_2d = np.inf
    grid_drift = 0.0
    for _ in range(100):
        s1, s2 = random_cov(1), random_cov(1)
        tvd = tvd_1d(float(s1[0, 0]), float(s2[0, 0]))
        slack = measure_of(s1, s2) - tvd
        violations += slack < -1e-6
        worst_margin = min(worst_margin, slack)
    for _ in range(100):
        S1, S2 = random_cov(2), random_cov(2)
        coarse = tvd_2d(S1, S2, 401)
        fine = tvd_2d(S1, S2, 801)
        grid_drift = max(grid_drift, abs(fine - coarse))
        slack = measure_of(S1, S2) - fine
        violations += slack < -1e-6
        worst_margin = min(worst_margin, slack)
        margin_2d = min(margin_2d, slack)
    same = ProposalState.create(
        2, covariance=np.array([[2.0, 0.3], [0.3, 0.5]]),
        scale_factor=1.3, dr_scales=(),
    )
    identical = adaptation_measure(same, same)
    announce(3, "integrated TVD never exceeds the adaptation measure", [
        (violations == 0,
         "violations = %d of 200 random pairs (d in {1, 2})" % violations),
        (worst_margin > 0.0,
         "smallest measure - TVD margin = %.2e" % worst_margin),
        (grid_drift * 10.0 < margin_2d,
         "2-D quadrature error (max drift between resolutions = %.1e) is "
         "at least 10x below the smallest 2-D margin (%.1e)"
         % (grid_drift, margin_2d)),
        (identical == 0.0,
         "measure of a proposal against itself = %r (must be exactly 0.0)"
         % identical),
    ])


def test_criterion_04_geometric_contribution_law(tmp_path):
    # a homogeneous kernel: fixed proposal, warm start, single-try proposals.
    # the rank law presumes a constant per-proposal acceptance probability,
    # so adaptation transients would turn the tally into a geometric mixture
    spec = build_spec({
        "target": "himmelblau", "dim": "2", "mode": "forkjoin",
        "workers": "64", "chain-len": "20100", "seed": "9",
        "scale-factor": "0.35", "dr-stages": "0",
        "adaptation-period": "1000000000", "start": "3,2",
        "out": str(tmp_path / "run"), "deterministic-test-mode": "true",
    })
    t0 = time.monotonic()
    result = run_simulation(spec)
    runtime = time.monotonic() - t0
    summary = result.summaries[0]
    accepted = summary.chain.n_rows - 1
    p_hat = fit_geometric(result.tally)
    measured = accepted / summary.stage_attempts[0]

    counts = np.array(result.tally.counts, dtype=float)
    ranks = np.arange(1, result.tally.worker_count + 1)
    probs = p_hat * (1 - p_hat) ** (ranks - 1)
    probs /= 1 - (1 - p_hat) ** result.tally.worker_count
    expected = counts.sum() * probs
    cut = len(expected)
    while cut > 2 and expected[cut - 1:].sum() < 5.0:
        cut -= 1
    observed_b = np.concatenate([counts[:cut - 1], [counts[cut - 1:].sum()]])
    expected_b = np.concatenate([expected[:cut - 1], [expected[cut - 1:].sum()]])
    chi2 = float(((observed_b - expected_b) ** 2 / expected_b).sum())
    dof = len(observed_b) - 2  # one bin constraint, one fitted parameter
    p_value = float(stats.chi2.sf(chi2, dof))
    announce(4, "fork-join rank tally follows the fitted geometric law", [
        (accepted >= 20000, "accepted states = %d (>= 20000)" % accepted),
        (p_value > 0.01,
         "chi-square p = %.3f (> 0.01; chi2 %.1f on %d dof, %d bins)"
         % (p_value, chi2, dof, len(observed_b))),
        (abs(p_hat - measured) <= 0.03,
         "fitted p = %.4f vs measured per-proposal rate %.4f (|diff| <= 0.03)"
         % (p_hat, measured)),
        (runtime <= 120.0, "runtime = %.1fs (<= 120s)" % runtime),
    ])


def test_criterion_05_scaling_model_consistency():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for p in (0.1, 0.3, 0.5):
        for P in (2, 8, 32):
            hits = (rng.random((100_000, P)) < p).any(axis=1).mean()
            truth = 1.0 - (1.0 - p) ** P
            worst = max(worst, abs(hits - truth) / truth)
    exact_ones = [predict_speedup(p, 1) for p in (0.1, 0.3, 0.5)]
    shape_ok = True
    for p in (0.1, 0.3, 0.5):
        curve = [predict_speedup(p, P) for P in range(1, 4097)]
        diffs = np.diff(curve)
        shape_ok &= bool(np.all(diffs >= 0.0))
        shape_ok &= bool(np.all(np.asarray(curve) <= 1.0 / p + 1e-12))
    announce(5, "speedup model matches the simulated round protocol", [
        (worst <= 0.02,
         "worst relative error of accepted-rounds frequency = %.4f (<= 0.02)"
         % worst),
        (all(v == 1.0 for v in exact_ones),
         "predicted speedup at one worker = %s (each exactly 1.0)"
         % exact_ones),
        (shape_ok, "curves monotone nondecreasing and bounded by 1/p"),
    ])


def test_criterion_06_compression_accounting(tmp_path):
    values = {
        "target": "mvn", "dim": "2", "chain-len": "4000", "seed": "8",
        "scale-factor": "2.3", "dr-stages": "0",
        "out": str(tmp_path / "run"), "deterministic-test-mode": "true",
    }
    result = run_simulation(build_spec(values))
    chain = result.summaries[0].chain
    rate = result.summaries[0].mean_acceptance_rate
    factor = chain.verbose_length / chain.n_rows
    weight_sum = int(np.sum(chain.weights))

    # verbose twin: what a storage scheme without weights would have written
    verbose_suite = OutputSuite(prefix=str(tmp_path / "verbose"))
    names = ["Var%d" % (j + 1) for j in range(chain.dimension)]
    with ChainWriter(verbose_suite, names) as writer:
        for i in range(chain.n_rows):
            fields = chain.fields(i)
            unit = fields[:5] + (1,) + fields[6:]  # the weight column
            for _ in range(fields[5]):
                writer.write_row(unit)
    binary = dict(values, out=str(tmp_path / "bin"), format="binary")
    run_simulation(build_spec(binary))

    ascii_size = os.path.getsize(str(tmp_path / "run_chain.txt"))
    verbose_size = os.path.getsize(verbose_suite.chain_path)
    binary_size = os.path.getsize(str(tmp_path / "bin_chain.bin"))
    ratio = verbose_size / ascii_size
    announce(6, "weighted storage shrinks the chain file", [
        (0.2 <= rate <= 0.3,
         "acceptance rate = %.3f (tuned near 0.25)" % rate),
        (weight_sum == chain.verbose_length,
         "weights sum to the verbose length exactly (%d); compression "
         "factor = %.2f" % (weight_sum, factor)),
        (ratio >= 3.5,
         "verbose/weighted file size = %.2f (>= 3.5; %d vs %d bytes)"
         % (ratio, verbose_size, ascii_size)),
        (binary_size < ascii_size,
         "binary codec %d bytes < text codec %d bytes"
         % (binary_size, ascii_size)),
    ])


def test_criterion_07_restart_bitwise_equality(tmp_path, monkeypatch, capsys):
    def spec_here():
        return build_spec({
            "target": "mvn", "dim": "2", "chain-len": "100000", "seed": "6",
            "out": "run", "deterministic-test-mode": "true",
        })

    clean = tmp_path / "clean"
    clean.mkdir()
    monkeypatch.chdir(clean)
    run_simulation(spec_here())

    killed = tmp_path / "killed"
    killed.mkdir()
    monkeypatch.chdir(killed)
    kill_rows = sorted(
        np.random.default_rng(99).choice(
            np.arange(500, 99500), size=20, replace=False
        )
    )

    class Boom(Exception):
        pass

    restarts = 0
    pending = list(kill_rows)
    while True:
        target_row = pending[0] if pending else None

        def bomb(event):
            if (target_row is not None and event[0] == "row_final"
                    and event[1] >= target_row):
                raise Boom()

        try:
            result = run_simulation(spec_here(), on_event=bomb)
            break
        except Boom:
            pending.pop(0)
            restarts += 1

    identical = [
        name for name in SUITE_FILES
        if (clean / name).read_bytes() == (killed / name).read_bytes()
    ]
    refuse_code = main([
        "run", "--target", "mvn", "--dim", "2", "--chain-len", "100000",
        "--seed", "6", "--out", "run", "--deterministic-test-mode",
    ])
    err = capsys.readouterr().err
    announce(7, "kill points anywhere in the run resume to identical bytes", [
        (restarts == 20, "distinct kill points survived = %d (need 20)"
         % restarts),
        (result.restarted, "final pass reported itself as a resume"),
        (len(identical) == len(SUITE_FILES),
         "byte-identical files = %d of %d %s"
         % (len(identical), len(SUITE_FILES), sorted(identical))),
        (refuse_code == EXIT_REFUSED and "force" in err,
         "completed run refused a rerun (exit %d) without the overwrite flag"
         % refuse_code),
    ])


def test_criterion_08_refinement_quality():
    chain = sticky_normal_chain(seed=1, steps=100_000, sigma=0.1)
    refined = refine_two_phase(chain)
    pts = refined.points[:, 0]
    centered = pts - pts.mean()
    lag1 = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
    again = refine_two_phase(as_chain(refined.points, refined.log_funcs))
    removed = 1.0 - again.points.shape[0] / refined.points.shape[0]

    noise = np.random.default_rng(12).standard_normal(1_000_000)
    ar1 = signal.lfilter([1.0], [1.0, -0.5], noise)
    iac = estimate_iac(ar1)
    announce(8, "two-phase refinement decorrelates a sticky chain", [
        (abs(lag1) < 0.1,
         "refined lag-1 autocorrelation = %.4f (|.| < 0.1, %d points kept)"
         % (lag1, pts.size)),
        (removed < 0.05,
         "re-refinement removed %.2f%% more points (< 5%%)" % (100 * removed)),
        (abs(iac - 3.0) <= 0.15,
         "AR(1) oracle: estimated IAC = %.3f (3.0 +/- 0.15)" % iac),
    ])


def test_criterion_09_multichain_convergence_rate():
    target = gaussian_target([0.0], [[1.0]])
    passes = 0
    entry_counts = set()
    for rep in range(100):
        cfg = KernelConfig(
            chain_length_target=1200, start_point=(0.0,),
            rng_seed=1000 + rep, dr_stage_count=1,
            adaptation_period=100, greedy_adaptation_count=4,
        )
        proposal = ProposalState.create(
            1, covariance=np.eye(1), scale_factor=2.38, dr_scales=(0.5,)
        )
        outcome = run_multichain(target, cfg, proposal, 4)
        entry_counts.add(len(outcome.check.entries))
        passes += bool(outcome.check.all_pass)
    announce(9, "independent chains pass the cross-chain distribution check", [
        (entry_counts == {6},
         "every repetition compared all 6 chain pairs (counts seen: %s)"
         % sorted(entry_counts)),
        (passes >= 95,
         "repetitions with every corrected KS p-value clear = %d of 100 "
         "(>= 95)" % passes),
    ])


def test_criterion_10_determinism_and_reductions(tmp_path, monkeypatch):
    def run_in(directory, mode, extra=None):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        values = {
            "target": "mvn", "dim": "2", "chain-len": "2000", "seed": "3",
            "mode": mode, "out": "run", "deterministic-test-mode": "true",
        }
        values.update(extra or {})
        return run_simulation(build_spec(values))

    run_in(tmp_path / "a", "serial")
    run_in(tmp_path / "b", "serial")
    repeat_same = [
        name for name in SUITE_FILES
        if (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
    ]

    target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
    cfg = KernelConfig(
        chain_length_target=400, start_point=(1.0, -2.0), rng_seed=5,
        dr_stage_count=1, adaptation_period=100, greedy_adaptation_count=4,
    )
    proposal = ProposalState.create(
        2, covariance=np.eye(2), scale_factor=1.7, dr_scales=(0.5,)
    )
    def chains_match(a, b):
        try:
            assert_chains_bitwise(a, b)
            return True
        except AssertionError:
            return False

    plain = run_kernel(target, cfg, proposal)
    forked = run_forkjoin(target, cfg, proposal, 1)
    fork_reduces = chains_match(forked.summary.chain, plain.chain)

    multi = run_multichain(target, cfg, proposal, 1)
    multi_reduces = chains_match(multi.summaries[0].chain, plain.chain)

    run_in(tmp_path / "m1", "multichain", {"chains": "1"})
    file_pairs_equal = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "m1" / name).read_bytes()
        for name in ("run_chain.txt", "run_sample.txt")
    )
    announce(10, "seeded runs are bitwise reproducible and modes reduce", [
        (len(repeat_same) == len(SUITE_FILES),
         "same seed twice: identical files = %d of %d"
         % (len(repeat_same), len(SUITE_FILES))),
        (fork_reduces, "fork-join with one worker matches the serial kernel "
                       "bitwise (all columns)"),
        (multi_reduces, "one-chain multichain matches the serial kernel "
                        "bitwise (process ids included)"),
        (file_pairs_equal,
         "one-chain multichain writes the same chain and sample files as "
         "serial mode"),
    ])


# Bound on the worst per-stage flow asymmetry of the cell balance gates,
# calibrated on the correct code (see flow_z)
FLOW_Z_BOUND = 4.5


def flow_z(stages, before, after, cells, min_moves=50):
    """Worst per-stage flow asymmetry of moves between ``cells`` cells, over
    the (stage, cell pair) flows with at least ``min_moves`` moves, and the
    number of such flows. Move m went from cell before[m] to cell after[m],
    accepted at DR stage stages[m].

    N_k(i -> j) counts the moves from cell i to cell j accepted at DR stage
    k. Delayed rejection keeps detailed balance at each stage on its own
    (Tierney & Mira 1999), so for cells i < j the asymmetry
    |N_k(i -> j) - N_k(j -> i)| / sqrt(N_k(i -> j) + N_k(j -> i)) stays of
    the order of a standard normal. An error in one stage's ratio shows here
    even when that stage accepts too few moves to move the occupancies.
    """
    depth = int(stages.max(initial=0)) + 1
    index = (stages * cells + before) * cells + after
    counts = np.bincount(index, minlength=depth * cells * cells)
    counts = counts.reshape(depth, cells, cells)
    i, j = np.triu_indices(cells, 1)
    forward, backward = counts[:, i, j], counts[:, j, i]
    total = forward + backward
    counted = total >= min_moves
    z = np.abs(forward - backward)[counted] / np.sqrt(total[counted])
    return float(z.max(initial=0.0)), int(counted.sum())


def worst_flow_z(chain):
    """flow_z of the moves of a five-cell chain."""
    cells = np.floor(chain.states[:, 0]).astype(np.int64)
    return flow_z(chain.dr_stages[1:], cells[:-1], cells[1:], 5)


FIVE_CELL_HEIGHTS = np.array([1.0, 2.0, 4.0, 2.0, 1.0])


def five_cell_target():
    """Density on [0, 5) proportional to FIVE_CELL_HEIGHTS, constant on each
    unit cell, -inf outside."""

    def step_density(x):
        v = x[0]
        if v < 0.0 or v >= 5.0:
            return float("-inf")
        return float(np.log(FIVE_CELL_HEIGHTS[int(v)]))

    return TargetDensity(
        "fivecell", 1, step_density, preferred_start=np.array([2.5])
    )


def five_cell_setup(dr_stages, rows=10 ** 9):
    """Criterion 11's config and proposal: a fixed kernel from the middle
    cell, seed 77, ``rows`` unique states."""
    cfg = KernelConfig(
        chain_length_target=rows, start_point=(2.5,), rng_seed=77,
        dr_stage_count=dr_stages, adaptation_period=10 ** 9,
        greedy_adaptation_count=0,
    )
    proposal = ProposalState.create(
        1, covariance=np.eye(1), scale_factor=1.8, dr_scales=(0.5, 0.25)
    )
    return cfg, proposal


@pytest.mark.parametrize("dr_stages", [0, 2])
@pytest.mark.parametrize("target_name", ["mvn2", "fivecell"])
def test_forkjoin_writes_the_serial_chain_at_every_worker_count(
    target_name, dr_stages
):
    # the workers draw the chain's attempts in order from its one stream, so
    # a fork-join chain is the serial kernel's in every column but the
    # process id, and in that one too at P = 1. On the five cells at P = 8
    # it is criterion 11's chain, whose balance checks so cover fork-join
    if target_name == "mvn2":
        target = gaussian_target([1.0, -2.0], [[2.0, 1.2], [1.2, 1.0]])
        cfg = KernelConfig(
            chain_length_target=2000, start_point=(0.0, 0.0), rng_seed=5,
            dr_stage_count=dr_stages, adaptation_period=100,
        )
        proposal = ProposalState.create(2, dr_scales=(0.5, 0.25))
    else:
        target = five_cell_target()
        cfg, proposal = five_cell_setup(dr_stages, rows=2000)
    serial = run_kernel(target, cfg, proposal).chain
    assert serial.verbose_length > serial.n_rows  # some attempts rejected
    for workers in (1, 3, 8):
        chain = run_forkjoin(target, cfg, proposal, workers).summary.chain
        if workers == 1:
            assert_chains_bitwise(chain, serial)
            continue
        for column in ("states", "log_funcs", "weights", "dr_stages",
                       "mean_acceptance_rates", "adaptation_measures",
                       "burnin_locations"):
            assert getattr(chain, column).tobytes() == \
                getattr(serial, column).tobytes()
        assert np.array_equal(
            chain.process_ids[1:], (chain.weights[:-1] - 1) % workers + 1
        )


def test_criterion_11_detailed_balance_five_cells():
    pi = FIVE_CELL_HEIGHTS / FIVE_CELL_HEIGHTS.sum()
    target = five_cell_target()

    def worst_z(dr_stages):
        cfg, proposal = five_cell_setup(dr_stages)
        kern = Kernel(target, cfg, proposal)
        while kern.chain.verbose_length < 1_000_000:
            for _ in kern.step():
                pass
        chain = kern.chain
        states = chain.states[:, 0]
        weights = chain.weights.astype(np.int64)
        n = float(weights.sum())
        cells = np.floor(states).astype(int)
        worst = 0.0
        for i in range(5):
            indicator = (cells == i).astype(float)
            freq = float((indicator * weights).sum() / n)
            iac = estimate_iac(indicator, weights)
            se = np.sqrt(pi[i] * (1.0 - pi[i]) * iac / n)
            worst = max(worst, abs(freq - pi[i]) / se)
        return worst, int(n), worst_flow_z(chain)

    z_plain, n_plain, (flow_plain, pairs_plain) = worst_z(0)
    z_dr, n_dr, (flow_dr, pairs_dr) = worst_z(2)
    announce(11, "cell occupancies match the stepped target density", [
        (n_plain == 1_000_000 and n_dr == 1_000_000,
         "chains realized %d and %d steps" % (n_plain, n_dr)),
        (z_plain <= 3.0,
         "retries off: worst |freq - target| = %.2f correlation-adjusted "
         "standard errors (<= 3)" % z_plain),
        (z_dr <= 3.0,
         "retries on: worst |freq - target| = %.2f correlation-adjusted "
         "standard errors (<= 3)" % z_dr),
        (flow_plain <= FLOW_Z_BOUND and flow_dr <= FLOW_Z_BOUND,
         "worst per-stage flow asymmetry = %.2f over %d (stage, cell pair) "
         "flows with retries off, %.2f over %d with retries on (<= %g)"
         % (flow_plain, pairs_plain, flow_dr, pairs_dr, FLOW_Z_BOUND)),
    ])


# The d = 2 balance gate's target: unit cells on [0, 4)^2 with heights 1 to
# 8, -inf outside; cell (a, b) is index 4a + b
GRID_HEIGHTS = np.arange(1.0, 17.0) % 8 + 1
GRID_LOG_HEIGHTS = np.log(GRID_HEIGHTS)
GRID_DRAWS = 400_000
# smallest chi-square p-value of the endpoint cell counts that passes
ENDPOINT_P_BOUND = 1e-3


def test_dr3_balance_one_step_from_exact_draws_in_two_dimensions():
    # One DR 3 cascade from each of GRID_DRAWS independent exact draws of
    # the cell target, with a correlated proposal, so that an error in the
    # whitening or in one stage's ratio shows (criterion 11 is 1-D with an
    # identity proposal). The starts are independent, so per-stage detailed
    # balance makes each forward flow exactly Binomial(n, 1/2) given its
    # pair's n moves, and the endpoints, rejections included, are exact
    # draws of the target (Geweke 2004).
    log_heights = GRID_LOG_HEIGHTS.tolist()

    def log_density(x):
        a, b = x.tolist()
        if 0.0 <= a < 4.0 and 0.0 <= b < 4.0:
            return log_heights[int(a) * 4 + int(b)]
        return float("-inf")

    target = TargetDensity("cells", 2, log_density)
    proposal = ProposalState.create(
        2, covariance=[[1.0, 0.7], [0.7, 0.8]], scale_factor=1.6,
        dr_scales=(0.6, 0.35, 0.2),
    )
    pi = GRID_HEIGHTS / GRID_HEIGHTS.sum()
    draws = np.random.default_rng(2)
    before = draws.choice(16, size=GRID_DRAWS, p=pi)
    starts = np.column_stack((before // 4, before % 4)) + draws.random((GRID_DRAWS, 2))
    stream = BlockDraws(chain_stream(2, 0), 2, 3)
    after, stages = [], []
    for start, log_start in zip(list(starts), GRID_LOG_HEIGHTS[before].tolist()):
        state, _, stage, _ = propose_cascade(target, proposal, start, log_start, stream)
        a, b = state.tolist()
        after.append(int(a) * 4 + int(b))
        stages.append(stage)
    after, stages = np.array(after), np.array(stages)
    moved = stages != REJECTED
    worst, flows = flow_z(stages[moved], before[moved], after[moved], 16)
    assert np.all(np.bincount(stages[moved], minlength=4) > 0)
    assert flows >= 150, "only %d flows of at least 50 moves" % flows
    assert worst <= FLOW_Z_BOUND, \
        "worst per-stage flow asymmetry %.2f over %d flows" % (worst, flows)
    counts = np.bincount(after, minlength=16)
    endpoint_p = stats.chisquare(counts, GRID_DRAWS * pi).pvalue
    assert endpoint_p >= ENDPOINT_P_BOUND, \
        "endpoint cell counts: chi-square p = %.3g" % endpoint_p

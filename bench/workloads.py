"""Seeded workload definitions.

Each workload is a ``dramp run`` configuration generated from the benchmark
seed; the program receives only the generated key=value spec. The seed fixes
the mvn target's mean and covariance and the sampler seed. Covariances share
one eigenvalue spectrum and differ in orientation, so seeds vary the inputs
without varying how hard they are.

Why each workload exists:

- ``serial-dr2`` runs the delayed-rejection acceptance algebra (the stage-1
  rule, the ``_log_path_alpha`` recursion, ``log_kernel_density``) on a
  correlated 8-d Gaussian and writes an ascii chain.
- ``forkjoin-p8`` spends its time building per-(round, rank) streams, drawing
  candidates and evaluating the target; it has no DR algebra at all.
- ``multichain-resume`` is the only workload that reads: it is interrupted at
  fixed, evenly spaced rows by an exception from ``on_event`` and resumed
  each time, so ``read_chain``, the chain rebuild and ``load_state`` run on
  every resume. It also carries heavy binary writes, d=32 snapshots and d=32
  rank-1 moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

# eigenvalue range of every seeded mvn covariance
SPECTRUM = (0.1, 10.0)

# The default banana (curvature 0.1, sigma1 10) bends so far that the
# acceptance rate of a 2500-row chain ranges over 0.24-0.42 between sampler
# seeds, and the work per row with it, which would swamp any regression
# bound. With curvature 0.05 and sigma1 3 the rank attempts per row stay
# within a few percent (about 3.8 of the 8 ranks scanned per row).
BANANA = {"target-curvature": "0.05", "target-sigma1": "3"}

# resumes per suite in multichain-resume, and saved prefixes per resume
# probe. Resume latency grows with the rows read, so the samples form one
# cluster per interrupt; with 15 clusters the 50th and 90th percentiles fall
# inside a cluster (the 8th and the 14th) rather than on the edge between
# two, where they would flip between neighbouring clusters from run to run.
INTERRUPTS = 15


@dataclass(frozen=True)
class Shape:
    target: str
    dim: int
    mode: str
    chains: int
    workers: int
    dr_stages: int
    chain_format: str
    chain_len: int
    scale_factor: Optional[float] = None
    interrupted: bool = False  # timed suites are interrupted and resumed


SHAPES: Dict[str, Shape] = {
    "serial-dr2": Shape(
        target="mvn", dim=8, mode="serial", chains=1, workers=1, dr_stages=2,
        chain_format="ascii", chain_len=5000,
    ),
    "forkjoin-p8": Shape(
        target="banana", dim=4, mode="forkjoin", chains=1, workers=8,
        dr_stages=0, chain_format="binary", chain_len=6000,
    ),
    "multichain-resume": Shape(
        target="mvn", dim=32, mode="multichain", chains=4, workers=1,
        dr_stages=0, chain_format="binary", chain_len=2000, scale_factor=0.2,
        interrupted=True,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    values: Dict[str, str]  # the spec, minus the output prefix
    mean: Optional[np.ndarray]  # known mvn mean, None for other targets
    covariance: Optional[np.ndarray]

    @property
    def total_rows(self) -> int:
        return self.shape.chain_len * self.shape.chains


def _render(values) -> str:
    return ",".join("%.17g" % v for v in values)


def _seeded_covariance(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))  # a uniformly distributed rotation
    cov = (q * np.geomspace(*SPECTRUM, dim)) @ q.T
    return (cov + cov.T) / 2.0


def build(name: str, seed: int) -> Workload:
    shape = SHAPES[name]
    rng = np.random.default_rng(seed)
    values = {
        "target": shape.target,
        "dim": str(shape.dim),
        "chain-len": str(shape.chain_len),
        "seed": str(int(rng.integers(1, 2 ** 31))),
        "dr-stages": str(shape.dr_stages),
        "mode": shape.mode,
        "chains": str(shape.chains),
        "workers": str(shape.workers),
        "format": shape.chain_format,
        "deterministic-test-mode": "true",
    }
    if shape.target == "banana":
        values.update(BANANA)
    if shape.scale_factor is not None:
        values["scale-factor"] = repr(shape.scale_factor)
    mean: Optional[np.ndarray] = None
    cov: Optional[np.ndarray] = None
    if shape.target == "mvn":
        mean = rng.normal(0.0, 1.0, shape.dim)
        cov = _seeded_covariance(rng, shape.dim)
        values["target-mean"] = _render(mean)
        values["target-cov"] = _render(cov.ravel())
    return Workload(name=name, shape=shape, values=values, mean=mean, covariance=cov)


def thresholds(workload: Workload) -> Tuple[int, ...]:
    """Absolute row counts at which an interrupted suite is stopped."""
    total = workload.total_rows
    return tuple(k * total // (INTERRUPTS + 1) for k in range(1, INTERRUPTS + 1))

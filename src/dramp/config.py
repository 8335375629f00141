"""Simulation specification: parsing, validation, echo, digest.

One flat key=value vocabulary serves three surfaces: config files, CLI flags
(same names with a leading ``--``), and the settings echo inside report
files. A report can therefore be fed back in as a config file and reproduce
the run that wrote it.

The digest covers exactly the fields that alter the stochastic trajectory;
extending chain-len or changing output cosmetics keeps the digest stable so
a run can be resumed or lengthened without being considered a different
simulation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import BadDimension, SpecMismatch
from .kernel import KernelConfig
from .model import (
    BUILTIN_KINDS,
    BuiltinTargetSpec,
    TargetDensity,
    make_builtin_target,
)
from .persist import OutputSuite, _fmt
from .proposal import ProposalState, default_dr_scales, default_scale_factor

__all__ = [
    "SimulationSpec",
    "FIELD_DESCRIPTIONS",
    "DIGEST_EXCLUDED",
    "TRAJECTORY_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "parse_config_file",
    "build_spec",
    "spec_to_items",
    "spec_digest",
    "make_target",
    "initial_proposal",
]

MODES = ("serial", "multichain", "forkjoin")

# Bumped by every change that gives some spec a different trajectory, so a
# resume never joins two trajectories. A snapshot without the field is 1;
# 2 made the fork-join round streams counter-based; 3 charges every fork-join
# attempt as a verbose step on its own attempt stream, and folds each row
# into the moments once, with its final weight, in every mode; 4 folds the
# moments in blocks at adaptation boundaries only.
TRAJECTORY_VERSION = 4

# Layout of the restart snapshot. 2 dropped the proposal, which resume
# rebuilds from the rows, and hashes the mvn arrays' bytes in the digest;
# 3 dropped the adaptation count, the stream's identity and the multichain
# bookkeeping, which resume derives from the rows.
SNAPSHOT_FORMAT_VERSION = 3

# every user-facing field, in echo order; descriptions double as CLI help
FIELD_DESCRIPTIONS: Dict[str, str] = {
    "target": "built-in target family: mvn, himmelblau or banana",
    "dim": "dimension of the sampling space",
    "target-mean": "mvn mean vector, comma separated",
    "target-cov": "mvn covariance matrix, row-major comma separated",
    "target-scale": "himmelblau flattening scale",
    "target-curvature": "banana bend strength",
    "target-sigma1": "banana first-axis standard deviation",
    "chain-len": "unique (compact) states to collect",
    "start": "starting point, comma separated",
    "seed": "random number generator seed",
    "dr-stages": "delayed-rejection retries after a rejected proposal",
    "dr-scales": "per-retry proposal shrink factors, comma separated",
    "scale-factor": "overall proposal scale multiplier",
    "adaptation-period": "unique states between proposal re-estimations",
    "greedy-count": "early adaptations fed by accepted states only",
    "mode": "execution mode: serial, multichain or forkjoin",
    "chains": "independent chain count (multichain mode)",
    "workers": "per-round proposal workers (forkjoin mode)",
    "out": "output file prefix",
    "format": "chain file codec: ascii or binary",
    "delimiter": "column delimiter for ASCII files",
    "deterministic-test-mode": "blank wall-clock fields for byte-stable reruns",
}

# fields that do not alter the stochastic trajectory
DIGEST_EXCLUDED = frozenset(
    ("chain-len", "out", "format", "delimiter", "deterministic-test-mode")
)

_DEFAULTS: Dict[str, Optional[str]] = {
    "target": "mvn",
    "dim": "2",
    "target-mean": None,  # zeros
    "target-cov": None,  # identity
    "target-scale": "10",
    "target-curvature": "0.1",
    "target-sigma1": "10",
    "chain-len": "10000",
    "start": None,  # target's preferred start
    "seed": "0",
    "dr-stages": "1",
    "dr-scales": None,  # successive halving
    "scale-factor": None,  # 2.38 / sqrt(dim)
    "adaptation-period": None,  # max(10*dim, 100)
    "greedy-count": "4",
    "mode": "serial",
    "chains": "1",
    "workers": "1",
    "out": None,  # required
    "format": "ascii",
    "delimiter": ",",
    "deterministic-test-mode": "false",
}


@dataclass(frozen=True)
class SimulationSpec:
    """Fully resolved description of one simulation.

    All optional knobs are concrete here (defaults already applied), so two
    specs that render to the same echo are the same simulation.
    """

    target_spec: BuiltinTargetSpec
    kernel: KernelConfig
    scale_factor: float
    dr_scales: Tuple[float, ...]
    mode: str
    n_chains: int
    worker_count: int
    output: OutputSuite
    deterministic_test_mode: bool


def parse_config_file(path: str) -> Dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment line."""
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    "%s:%d: expected 'key = value', got %r" % (path, lineno, line)
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in FIELD_DESCRIPTIONS:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if key in values:
                raise ValueError("%s:%d: duplicate key %r" % (path, lineno, key))
            values[key] = value.strip()
    return values


def _floats(text: str, key: str) -> Tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValueError("%s: cannot parse %r as numbers" % (key, text)) from exc


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError("%s: cannot parse %r as an integer" % (key, text)) from exc


def _float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError("%s: cannot parse %r as a number" % (key, text)) from exc


def _bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError("%s: cannot parse %r as a boolean" % (key, text))


def build_spec(values: Mapping[str, str]) -> SimulationSpec:
    """Resolve raw key=value strings into a validated SimulationSpec.

    Raises ValueError (or a subclass) naming the offending field; the CLI maps
    that to its configuration-error exit code.
    """
    merged: Dict[str, Optional[str]] = dict(_DEFAULTS)
    for key, value in values.items():
        if key not in FIELD_DESCRIPTIONS:
            raise ValueError("unknown configuration key %r" % key)
        merged[key] = value

    kind = str(merged["target"]).strip().lower()
    if kind not in BUILTIN_KINDS:
        raise ValueError(
            "target: %r is not one of %s" % (kind, ", ".join(BUILTIN_KINDS))
        )
    dim = _int(merged["dim"], "dim")
    if dim < 1:
        raise BadDimension("dim: must be >= 1, got %d" % dim)
    if kind == "himmelblau" and dim != 2:
        raise BadDimension("dim: himmelblau target is defined for dim 2 only")
    if kind == "banana" and dim < 2:
        raise BadDimension("dim: banana target needs dim >= 2")

    if kind == "mvn":
        mean = (
            tuple(0.0 for _ in range(dim))
            if merged["target-mean"] is None
            else _floats(merged["target-mean"], "target-mean")
        )
        if len(mean) != dim:
            raise BadDimension(
                "target-mean: %d entries for dim %d" % (len(mean), dim)
            )
        cov = (
            tuple(np.eye(dim).ravel())
            if merged["target-cov"] is None
            else _floats(merged["target-cov"], "target-cov")
        )
        if len(cov) != dim * dim:
            raise BadDimension(
                "target-cov: %d entries, expected %d" % (len(cov), dim * dim)
            )
        target_spec = BuiltinTargetSpec(
            kind="mvn", dimension=dim, mean=mean, covariance=cov
        )
    elif kind == "himmelblau":
        target_spec = BuiltinTargetSpec(
            kind="himmelblau",
            dimension=2,
            shape_params={"scale": _float(merged["target-scale"], "target-scale")},
        )
    else:
        target_spec = BuiltinTargetSpec(
            kind="banana",
            dimension=dim,
            shape_params={
                "curvature": _float(merged["target-curvature"], "target-curvature"),
                "sigma1": _float(merged["target-sigma1"], "target-sigma1"),
            },
        )
    target = make_builtin_target(target_spec)  # validates geometry

    start = (
        tuple(float(v) for v in target.start_point())
        if merged["start"] is None
        else _floats(merged["start"], "start")
    )
    if len(start) != dim:
        raise BadDimension("start: %d entries for dim %d" % (len(start), dim))

    dr_stages = _int(merged["dr-stages"], "dr-stages")
    if dr_stages < 0:
        raise ValueError("dr-stages: must be >= 0, got %d" % dr_stages)
    dr_scales = (
        default_dr_scales(dr_stages)
        if merged["dr-scales"] is None
        else _floats(merged["dr-scales"], "dr-scales")
    )
    if len(dr_scales) < dr_stages:
        raise ValueError(
            "dr-scales: %d factors for %d retry stages"
            % (len(dr_scales), dr_stages)
        )
    scale_factor = (
        default_scale_factor(dim)
        if merged["scale-factor"] is None
        else _float(merged["scale-factor"], "scale-factor")
    )
    if not scale_factor > 0.0:
        raise ValueError("scale-factor: must be positive")
    period = merged["adaptation-period"]
    if period is not None:
        period = _int(period, "adaptation-period")

    mode = str(merged["mode"]).strip().lower()
    if mode not in MODES:
        raise ValueError("mode: %r is not one of %s" % (mode, ", ".join(MODES)))
    n_chains = _int(merged["chains"], "chains")
    worker_count = _int(merged["workers"], "workers")
    if n_chains < 1:
        raise ValueError("chains: must be >= 1, got %d" % n_chains)
    if worker_count < 1:
        raise ValueError("workers: must be >= 1, got %d" % worker_count)

    if merged["out"] is None:
        raise ValueError("out: an output prefix is required")

    kernel = KernelConfig(
        chain_length_target=_int(merged["chain-len"], "chain-len"),
        start_point=start,
        rng_seed=_int(merged["seed"], "seed"),
        dr_stage_count=dr_stages,
        adaptation_period=period,
        greedy_adaptation_count=_int(merged["greedy-count"], "greedy-count"),
    )
    # the echo and the digest hold the concrete period
    kernel = replace(kernel, adaptation_period=kernel.resolved_adaptation_period(dim))
    output = OutputSuite(
        prefix=str(merged["out"]),
        chain_format=str(merged["format"]).strip().lower(),
        delimiter=str(merged["delimiter"]),
    )
    return SimulationSpec(
        target_spec=target_spec,
        kernel=kernel,
        scale_factor=float(scale_factor),
        dr_scales=tuple(float(s) for s in dr_scales),
        mode=mode,
        n_chains=n_chains,
        worker_count=worker_count,
        output=output,
        deterministic_test_mode=_bool(
            merged["deterministic-test-mode"], "deterministic-test-mode"
        ),
    )


def _render_floats(values) -> str:
    return ",".join(_fmt(float(v)) for v in values)


def _spec_pairs(spec: SimulationSpec, render_array=_render_floats
                ) -> List[Tuple[str, str]]:
    """Every field of ``spec`` as ordered (key, value) pairs, with the mvn
    mean and covariance rendered by ``render_array``."""
    t = spec.target_spec
    items: List[Tuple[str, str]] = [("target", t.kind), ("dim", str(t.dimension))]
    if t.kind == "mvn":
        items.append(("target-mean", render_array(t.mean)))
        items.append(("target-cov", render_array(t.covariance)))
    elif t.kind == "himmelblau":
        items.append(("target-scale", _fmt(t.shape_params["scale"])))
    else:
        items.append(("target-curvature", _fmt(t.shape_params["curvature"])))
        items.append(("target-sigma1", _fmt(t.shape_params["sigma1"])))
    k = spec.kernel
    items.extend(
        [
            ("chain-len", str(k.chain_length_target)),
            ("start", _render_floats(k.start_point)),
            ("seed", str(k.rng_seed)),
            ("dr-stages", str(k.dr_stage_count)),
            ("dr-scales", _render_floats(spec.dr_scales)),
            ("scale-factor", _fmt(spec.scale_factor)),
            ("adaptation-period", str(k.adaptation_period)),
            ("greedy-count", str(k.greedy_adaptation_count)),
            ("mode", spec.mode),
            ("chains", str(spec.n_chains)),
            ("workers", str(spec.worker_count)),
            ("out", spec.output.prefix),
            ("format", spec.output.chain_format),
            ("delimiter", spec.output.delimiter),
            (
                "deterministic-test-mode",
                "true" if spec.deterministic_test_mode else "false",
            ),
        ]
    )
    return items


def spec_to_items(spec: SimulationSpec) -> List[Tuple[str, str, str]]:
    """Render a spec as ordered (key, value, description) triples.

    Feeding the keys and values back through build_spec reproduces the spec
    exactly; 17-digit float rendering keeps the round trip lossless.
    """
    return [(key, value, FIELD_DESCRIPTIONS[key]) for key, value in _spec_pairs(spec)]


def _bytes_digest(values) -> str:
    # the values' exact <f8 bytes, hashed without rendering each as text
    return hashlib.sha256(struct.pack("<%dd" % len(values), *values)).hexdigest()


def spec_digest(spec: SimulationSpec) -> int:
    """64-bit digest of the trajectory-determining fields: the key=value
    lines of spec_to_items, except that the mvn mean and covariance are
    the SHA-256 of their bytes as little-endian doubles."""
    lines = [
        "%s=%s" % (key, value)
        for key, value in _spec_pairs(spec, _bytes_digest)
        if key not in DIGEST_EXCLUDED
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_restart_compatibility(
    spec: SimulationSpec, snapshot: dict, digest: int
) -> None:
    """Refuse to resume under a spec that would change the trajectory or the
    on-disk layout of the files being appended to; ``digest`` is
    spec_digest(spec)."""
    for name, stored, built in (
        ("format", snapshot.get("format_version"), SNAPSHOT_FORMAT_VERSION),
        # a snapshot without the field is trajectory version 1
        ("trajectory", snapshot.get("trajectory_version", 1), TRAJECTORY_VERSION),
    ):
        if stored != built:
            raise SpecMismatch(
                "snapshot %s version %r differs from this build's %d; the run "
                "cannot be resumed, only restarted with force overwrite"
                % (name, stored, built)
            )
    if int(snapshot["spec_digest"]) != digest:
        raise SpecMismatch(
            "the resumed specification differs from the one that started "
            "this run in a trajectory-determining field"
        )
    for key, live in (
        ("chain_format", spec.output.chain_format),
        ("delimiter", spec.output.delimiter),
    ):
        if snapshot.get(key) != live:
            raise SpecMismatch(
                "%s changed since the run started (%r -> %r); the existing "
                "files cannot be appended to" % (key, snapshot.get(key), live)
            )


def make_target(spec: SimulationSpec) -> TargetDensity:
    return make_builtin_target(spec.target_spec)


def initial_proposal(spec: SimulationSpec) -> ProposalState:
    d = spec.target_spec.dimension
    return ProposalState.create(
        d,
        covariance=np.eye(d),
        scale_factor=spec.scale_factor,
        dr_scales=spec.dr_scales,
    )

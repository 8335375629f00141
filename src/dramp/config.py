"""Simulation specification: parsing, validation, echo, digest.

One flat key=value vocabulary serves three surfaces: config files, CLI flags
(same names with a leading ``--``), and the settings echo inside report
files. :data:`FIELDS` lists every key once, in echo order, with its default
and description; the parameter ``p`` of a target family in
``model.FAMILIES`` has the key ``target-p``, and a target key of another
family is refused. One parser reads the files and the echo, so a report can
be fed back in as a config file and reproduce the run that wrote it. Every
integer key has a lower bound, every target parameter must be finite, and a
value outside its domain is refused with an error that names the key.

The digest covers exactly the fields that alter the stochastic trajectory;
extending chain-len or changing output cosmetics keeps the digest stable so
a run can be resumed or lengthened without being considered a different
simulation.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import BadDimension, BadParameter, NotPositiveDefinite, SpecMismatch
from .kernel import KernelConfig
from .model import FAMILIES, BuiltinTargetSpec, TargetDensity, make_builtin_target
from .persist import ECHO_BEGIN, ECHO_END, OutputSuite, _fmt
from .proposal import ProposalState, default_dr_scales, default_scale_factor

__all__ = [
    "SimulationSpec",
    "FIELDS",
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
# moments in blocks at adaptation boundaries only; 5 reads the DR ratio's
# kernel terms off a table of squared whitened distances, which moves the
# ratios' last bits; 6 draws the fork-join attempts in order from the
# chain's PCG64 stream, so a fork-join run writes the serial chain (serial
# and multichain trajectories are unchanged); 7 draws the stream in blocks
# of kernel.BLOCK stages (normals, then uniforms) and forms L z per block in
# one product, which moves every decision in every mode.
TRAJECTORY_VERSION = 7

# Layout of the restart snapshot. 2 dropped the proposal, which resume
# rebuilds from the rows, and hashes the mvn arrays' bytes in the digest;
# 3 dropped the adaptation count, the stream's identity and the multichain
# bookkeeping, which resume derives from the rows; 4 dropped the hex-float
# and array encoding for plain JSON, the flattened stream state for numpy's
# own PCG64 state dict, the mode, chain count and worker count, which the
# digest pins, and the kernel-less snapshot between multichain chains; 5
# stores the stream's state before the pending block of draws and adds the
# block offset, the rows taken of that block.
SNAPSHOT_FORMAT_VERSION = 5

# every user-facing key, in echo order, as (default, description); the
# descriptions double as CLI help. A None default is derived by build_spec:
# mvn zeros and identity, the family parameters of model.FAMILIES, the
# target's preferred start, successive halving, 2.38 / sqrt(dim) and
# max(10*dim, 100); out has none and is required.
FIELDS: Dict[str, Tuple[Optional[str], str]] = {
    "target": ("mvn", "built-in target family: mvn, himmelblau or banana"),
    "dim": ("2", "dimension of the sampling space"),
    "target-mean": (None, "mvn mean vector, comma separated"),
    "target-cov": (None, "mvn covariance matrix, row-major comma separated"),
    "target-scale": (None, "himmelblau flattening scale"),
    "target-curvature": (None, "banana bend strength"),
    "target-sigma1": (None, "banana first-axis standard deviation"),
    "chain-len": ("10000", "unique (compact) states to collect"),
    "start": (None, "starting point, comma separated"),
    "seed": ("0", "random number generator seed"),
    "dr-stages": ("1", "delayed-rejection retries after a rejected proposal"),
    "dr-scales": (None, "per-retry proposal shrink factors, comma separated"),
    "scale-factor": (None, "overall proposal scale multiplier"),
    "adaptation-period": (None, "unique states between proposal re-estimations"),
    "greedy-count": ("4", "early adaptations fed by accepted states only"),
    "mode": ("serial", "execution mode: serial, multichain or forkjoin"),
    "chains": ("1", "independent chain count (multichain mode)"),
    "workers": ("1", "per-round proposal workers (forkjoin mode)"),
    "out": (None, "output file prefix"),
    "format": ("ascii", "chain file codec: ascii or binary"),
    "delimiter": (",", "column delimiter for ASCII files"),
    "deterministic-test-mode": (
        "false", "blank wall-clock fields for byte-stable reruns"
    ),
}
FIELD_DESCRIPTIONS: Dict[str, str] = {
    key: description for key, (_, description) in FIELDS.items()
}

# fields that do not alter the stochastic trajectory
DIGEST_EXCLUDED = frozenset(
    ("chain-len", "out", "format", "delimiter", "deterministic-test-mode")
)


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
    """Read a flat ``key = value`` file; '#' starts a comment line. Of a file
    that holds the specification echo's sentinel lines, such as a report,
    only the lines between them are read."""
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [raw.strip() for raw in fh]
    numbered = list(enumerate(lines, start=1))
    if ECHO_BEGIN in lines and ECHO_END in lines:
        first = lines.index(ECHO_BEGIN) + 1
        numbered = numbered[first:lines.index(ECHO_END, first)]
    for lineno, line in numbered:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                "%s:%d: expected 'key = value', got %r" % (path, lineno, line)
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in FIELDS:
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


def _vector(text: Optional[str], key: str, size: int, default: tuple,
            finite: bool = False) -> tuple:
    """``text`` as exactly ``size`` numbers, each finite if ``finite``;
    ``default`` when it is None."""
    values = default if text is None else _floats(text, key)
    if len(values) != size:
        raise BadDimension("%s: %d entries, expected %d" % (key, len(values), size))
    if finite:
        for value in values:
            _finite(value, key)
    return values


def _int(text: str, key: str, low: int, error=ValueError) -> int:
    """``text`` as an integer; one below ``low`` raises ``error``."""
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError("%s: cannot parse %r as an integer" % (key, text)) from exc
    if value < low:
        raise error("%s: must be >= %d, got %d" % (key, low, value))
    return value


def _finite(value: float, key: str) -> float:
    if not math.isfinite(value):
        raise ValueError("%s: must be finite, got %g" % (key, value))
    return value


def _float(text: str, key: str) -> float:
    """``text`` as a finite number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError("%s: cannot parse %r as a number" % (key, text)) from exc
    return _finite(value, key)


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
    for key in values:
        if key not in FIELDS:
            raise ValueError("unknown configuration key %r" % key)
    merged = {key: default for key, (default, _) in FIELDS.items()}
    merged.update(values)

    kind = str(merged["target"]).strip().lower()
    if kind not in FAMILIES:
        raise ValueError("target: %r is not one of %s" % (kind, ", ".join(FAMILIES)))
    for key in values:
        if key.startswith("target-") and key[len("target-"):] not in FAMILIES[kind]:
            raise ValueError("%s: not a parameter of target %s" % (key, kind))
    dim = _int(merged["dim"], "dim", 1, BadDimension)
    params = {}
    for name, default in FAMILIES[kind].items():
        text = merged["target-" + name]
        if default is not None:  # a vector, read below
            params[name] = default if text is None else _float(text, "target-" + name)
    mean = cov = None
    if kind == "mvn":
        mean = _vector(merged["target-mean"], "target-mean", dim, (0.0,) * dim,
                       finite=True)
        cov = _vector(merged["target-cov"], "target-cov", dim * dim,
                      tuple(np.eye(dim).ravel()), finite=True)
    target_spec = BuiltinTargetSpec(kind, dim, mean, cov, params)
    # the constructors validate the geometry and the parameters' domains
    try:
        target = make_builtin_target(target_spec)
    except BadDimension as exc:
        raise BadDimension("dim: %s" % exc) from exc
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite("target-cov: %s" % exc) from exc
    except BadParameter as exc:
        raise BadParameter(exc.parameter,
                           "target-%s: %s" % (exc.parameter, exc)) from exc
    start = _vector(merged["start"], "start", dim,
                    tuple(float(v) for v in target.start_point()), finite=True)

    dr_stages = _int(merged["dr-stages"], "dr-stages", 0)
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
    if scale_factor <= 0.0:
        raise ValueError("scale-factor: must be positive, got %g" % scale_factor)
    period = merged["adaptation-period"]
    if period is not None:
        period = _int(period, "adaptation-period", 1)

    mode = str(merged["mode"]).strip().lower()
    if mode not in MODES:
        raise ValueError("mode: %r is not one of %s" % (mode, ", ".join(MODES)))
    n_chains = _int(merged["chains"], "chains", 1)
    worker_count = _int(merged["workers"], "workers", 1)

    if merged["out"] is None:
        raise ValueError("out: an output prefix is required")

    kernel = KernelConfig(
        chain_length_target=_int(merged["chain-len"], "chain-len", 1),
        start_point=start,
        rng_seed=_int(merged["seed"], "seed", 0),
        dr_stage_count=dr_stages,
        adaptation_period=period,
        greedy_adaptation_count=_int(merged["greedy-count"], "greedy-count", 0),
    )
    # the echo and the digest hold the concrete period
    kernel = replace(kernel, adaptation_period=kernel.resolved_adaptation_period(dim))
    output = OutputSuite(
        prefix=str(merged["out"]),
        chain_format=str(merged["format"]).strip().lower(),
        delimiter=str(merged["delimiter"]),
    )
    spec = SimulationSpec(
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
    try:  # the dimension and the scale factor are checked above
        initial_proposal(spec)
    except ValueError as exc:
        raise ValueError("dr-scales: %s" % exc) from exc
    return spec


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
    for name, default in FAMILIES[t.kind].items():
        if default is not None:  # mvn's vectors are above
            items.append(("target-" + name, _fmt(t.shape_params[name])))
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

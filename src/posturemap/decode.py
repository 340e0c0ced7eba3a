"""Decoding activation vectors back to joint angles.

Every curve bank of :mod:`posturemap.codec` inverts its curves analytically:
monotonic curves (linear ramps, sigmoids) one-to-one, Gaussian bumps
two-to-one, so both branches ``mu +/- r`` are produced.
A whole population segment is decoded by pooling the candidate angles from
every sufficiently active curve and taking the argmax of a kernel density
estimate over the candidates: for a consistent code all candidates agree,
while for an off-manifold vector (such as a trained map weight) the KDE
arbitrates among the disagreeing inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import GaussianParams, LinearParams, PopulationCodec, SigmoidParams
from .errors import OutOfRangeError, SaturationError, UndecodableError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class KdeConfig:
    """Knobs of the KDE population decoder.

    ``bandwidth_h`` is in degrees, or ``"auto"`` for Silverman's rule over
    the candidate set.  ``grid_resolution`` is the argmax search step in
    degrees.  ``activation_floor`` is the minimum activation for a curve
    to contribute candidates.
    """

    bandwidth_h: float | str = 0.3
    grid_resolution: float = 0.1
    activation_floor: float = 1e-3

    def __post_init__(self):
        if isinstance(self.bandwidth_h, str):
            if self.bandwidth_h != "auto":
                raise ValueError(f'bandwidth_h must be positive or "auto", got {self.bandwidth_h!r}')
        elif self.bandwidth_h <= 0:
            raise ValueError(f"bandwidth_h must be positive, got {self.bandwidth_h}")
        if self.grid_resolution <= 0:
            raise ValueError("grid_resolution must be positive")
        if not 0.0 < self.activation_floor < 0.5:
            raise ValueError("activation_floor must lie in (0, 0.5)")


# ---------------------------------------------------------------------------
# Analytic per-curve inverses: each curve bank's own formula, guarded
# ---------------------------------------------------------------------------

def invert_linear(slope: float, intercept: float, y: float) -> float:
    """Invert a clamped ramp on its unsaturated region: ``x = (y - b) / a``."""
    if slope == 0.0:
        raise SaturationError("degenerate ramp (zero slope) has no inverse")
    if not 0.0 < y < 1.0:
        raise SaturationError(
            f"activation {y:g} is saturated; no unique preimage on a clamped ramp"
        )
    return LinearParams.inverse(slope, intercept, y)


def invert_sigmoid(
    offset: float,
    sgn: int,
    y: float,
    gain: float = 1.0,
    floor: float = 1e-3,
) -> float:
    """Invert a logistic curve: ``x = offset - sgn * ln((1 - y) / y) / gain``.

    Refuses activations outside ``(floor, 1 - floor)``, where the inverse
    amplifies activation noise.
    """
    if not floor < y < 1.0 - floor:
        raise SaturationError(
            f"activation {y:g} outside reliable band ({floor:g}, {1 - floor:g})"
        )
    return SigmoidParams.inverse(offset, sgn, y, gain)


def invert_gaussian(
    mu: float,
    sigma: float,
    y: float,
    floor: float = 1e-3,
) -> tuple[float, float]:
    """Both preimages of a Gaussian bump: ``mu +/- sqrt(-2 sigma^2 ln y)``.

    Returns the pair ``(mu - r, mu + r)``; they coincide at the peak.
    """
    if y > 1.0:
        raise OutOfRangeError(f"activation {y:g} exceeds the Gaussian peak value 1")
    if y < floor:
        raise SaturationError(f"activation {y:g} below reliability floor {floor:g}")
    return GaussianParams.inverse(mu, sigma, y)


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------

def kde_density(samples, h: float, x) -> np.ndarray | float:
    """Gaussian-kernel density estimate ``(1/nh) sum K((x - x_i)/h)``.

    Samples are sorted before summing so the result is bit-identical under
    permutation of the sample list.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("kde_density requires at least one sample")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    u = (x[..., None] - samples) / h
    dens = np.exp(-0.5 * u * u).sum(axis=-1) / (samples.size * h * _SQRT_2PI)
    return dens if dens.ndim else float(dens)


def silverman_bandwidth(samples, floor: float) -> float:
    """Silverman's rule ``h = 1.06 * std * m^(-1/5)``, floored."""
    samples = np.asarray(samples, dtype=float)
    h = 1.06 * float(samples.std()) * samples.size ** (-0.2)
    return max(h, floor)


# ---------------------------------------------------------------------------
# Population decoding
# ---------------------------------------------------------------------------

def decode_population(
    codec: PopulationCodec,
    segment,
    cfg: KdeConfig | None = None,
    dof: int = 0,
) -> float:
    """Decode one DoF segment of activations to a single angle in degrees.

    Pools candidate angles from every curve whose activation passes the
    floor (both branches for Gaussians), then returns the KDE argmax over
    a uniform grid spanning the joint range.  Exact ties resolve to the
    lowest angle.  Raises :class:`UndecodableError` when no curve passes.
    """
    cfg = cfg or KdeConfig()
    segment = np.asarray(segment, dtype=float)
    params = codec.per_dof[dof]
    joint = codec.joints[dof]
    if segment.shape != (params.width,):
        raise ValueError(
            f"segment has shape {segment.shape}, expected ({params.width},) "
            f"for joint {joint.name!r}"
        )
    if codec.family == "normalized":
        x = params.min_deg + float(segment[0]) * (params.max_deg - params.min_deg)
        return joint.clamp(x)

    cands = params.candidates(segment, cfg.activation_floor)
    if not cands:
        raise UndecodableError(
            f"no curve of joint {joint.name!r} passed the activation floor "
            f"{cfg.activation_floor:g}"
        )
    cands = np.array(cands)
    if isinstance(cfg.bandwidth_h, str):
        h = silverman_bandwidth(cands, floor=cfg.grid_resolution)
    else:
        h = float(cfg.bandwidth_h)
    n_steps = max(1, round(joint.range_deg / cfg.grid_resolution))
    grid = np.linspace(joint.min_deg, joint.max_deg, n_steps + 1)
    dens = kde_density(cands, h, grid)
    return float(grid[int(np.argmax(dens))])


def decode_vector(
    codec: PopulationCodec,
    vector,
    cfg: KdeConfig | None = None,
) -> np.ndarray:
    """Decode a full-width activation vector to one angle per DoF."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (codec.width,):
        raise ValueError(f"vector has shape {vector.shape}, expected ({codec.width},)")
    angles = np.empty(len(codec.joints))
    for d in range(len(codec.joints)):
        seg = codec.segment(vector, d)
        try:
            angles[d] = decode_population(codec, seg, cfg, dof=d)
        except (UndecodableError, OutOfRangeError) as exc:
            raise UndecodableError(
                f"DoF {d} ({codec.joints[d].name!r}): {exc}"
            ) from exc
    return angles

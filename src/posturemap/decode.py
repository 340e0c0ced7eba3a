"""Decoding activation vectors back to joint angles.

Every curve bank of :mod:`posturemap.codec` inverts its curves analytically:
monotonic curves (linear ramps, sigmoids) one-to-one, Gaussian bumps
two-to-one, so both branches ``mu +/- r`` are produced.
A whole population segment is decoded by pooling the candidate angles from
every sufficiently active curve and taking the argmax of a kernel density
estimate over the candidates: for a consistent code all candidates agree,
while for an off-manifold vector (such as a trained map weight) the KDE
arbitrates among the disagreeing inverses.  :func:`decode_matrix` decodes
many vectors at once and scores only the grid points that can hold the
maximum; the one-vector and one-segment forms call it.
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
        elif not (math.isfinite(self.bandwidth_h) and self.bandwidth_h > 0):
            raise ValueError(f"bandwidth_h must be positive and finite, got {self.bandwidth_h}")
        if not (math.isfinite(self.grid_resolution) and self.grid_resolution > 0):
            raise ValueError(
                f"grid_resolution must be positive and finite, got {self.grid_resolution}"
            )
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
    return float(LinearParams.inverse(slope, intercept, y))


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
    return float(SigmoidParams.inverse(offset, sgn, y, gain))


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
    lo, hi = GaussianParams.inverse(mu, sigma, y)
    return float(lo), float(hi)


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

# Rows are scored in blocks whose rows x window points x candidates
# temporaries (two at a time) hold at most this many floats (256 KiB) each:
# fast and small enough not to raise the peak memory much.
_BLOCK_FLOATS = 1 << 15
# exp(x) rounds to +0.0 for every x below ln(2^-1075) = -745.13.
_EXP_UNDERFLOW = -746.0


def _window_densities(samples: np.ndarray, h: np.ndarray, grid: np.ndarray):
    """KDE densities at the grid points that can hold each row's argmax.

    ``samples`` is N x m, each row sorted ascending, and ``h`` the N row
    bandwidths.  Let ``delta`` be the distance from a row's grid-nearest
    candidate to its nearest grid point.  A grid point farther than
    ``sqrt(2 h^2 ln m + delta^2)`` from every candidate sums to less than
    the density at that nearest point, so only the union of the windows of
    that radius (plus two grid steps for rounding) around the candidates
    is scored.  Yields ``(rows, idx, dens)`` per block of rows: ``idx``
    holds each row's window points in ascending order, padded by repeating
    its last point, and ``dens`` the densities there, computed term by term
    as :func:`kde_density` does, so the bits agree.
    """
    n, m = samples.shape
    g = grid.size
    step = (grid[-1] - grid[0]) / (g - 1)
    pos = (samples - grid[0]) / step
    near = np.clip(np.rint(pos), 0, g - 1).astype(np.intp)
    delta = np.abs(grid[near] - samples).min(axis=1)
    reach = (np.sqrt(2.0 * h * h * math.log(m) + delta * delta) + 2.0 * step) / step
    lo = np.clip(np.ceil(pos - reach[:, None]), 0, g).astype(np.intp)
    hi = np.clip(np.floor(pos + reach[:, None]), -1, g - 1).astype(np.intp)
    # Sorted candidates give non-decreasing windows, so each one adds the
    # points past its predecessor's end, and a row's points come out sorted.
    start = np.maximum(lo, np.concatenate([np.full((n, 1), -1), hi[:, :-1]], axis=1) + 1)
    count = np.maximum(hi - start + 1, 0)
    width = count.sum(axis=1)

    order = np.argsort(width, kind="stable")
    first = 0
    while first < n:
        cost = (np.arange(1, n - first + 1) * width[order[first:]]) * m
        stop = first + max(1, int(np.searchsorted(cost, _BLOCK_FLOATS, side="right")))
        rows = order[first:stop]
        first = stop
        c = count[rows].ravel()
        points = np.repeat(start[rows].ravel() - (np.cumsum(c) - c), c) + np.arange(c.sum())
        w = width[rows]
        idx = points[(np.cumsum(w) - w)[:, None] + np.minimum(np.arange(w.max()), w[:, None] - 1)]
        yield rows, idx, _block_densities(grid[idx], samples[rows], h[rows])


def _block_densities(points: np.ndarray, samples: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Densities at each row's ``points`` of its sorted ``samples``, with
    :func:`kde_density`'s terms and m-term sums; in place, so that at most
    two ``rows x points x m`` temporaries are alive.  A term below
    ``_EXP_UNDERFLOW`` is set to the +0.0 its ``exp`` rounds to, without
    calling ``exp``, which is slow on such arguments."""
    m = samples.shape[1]
    u = np.subtract(points[:, :, None], samples[:, None, :])
    u /= h[:, None, None]
    terms = -0.5 * u
    terms *= u
    del u
    live = terms >= _EXP_UNDERFLOW
    kept = terms[live]
    np.exp(kept, out=kept)
    terms.fill(0.0)
    terms[live] = kept
    return terms.reshape(-1, m).sum(axis=-1).reshape(points.shape) / (m * h[:, None] * _SQRT_2PI)


def _check_finite(activations: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(activations))
    if bad.size:
        at = tuple(bad[0])
        raise OutOfRangeError(f"activation {activations[at]:g} at index {list(map(int, at))} is not finite")


def _no_candidate(joint, cfg: KdeConfig) -> str:
    return f"no curve of joint {joint.name!r} passed the activation floor {cfg.activation_floor:g}"


def _decode_dof(codec: PopulationCodec, dof: int, segments: np.ndarray, cfg: KdeConfig) -> np.ndarray:
    """Decode the N x width segments of one DoF; NaN where no curve passes."""
    params = codec.per_dof[dof]
    joint = codec.joints[dof]
    if codec.family == "normalized":
        x = params.min_deg + segments[:, 0] * (params.max_deg - params.min_deg)
        x = np.where(joint.min_deg > x, joint.min_deg, x)  # as JointSpec.clamp
        return np.where(joint.max_deg < x, joint.max_deg, x)

    values, mask = params.candidates(segments, cfg.activation_floor)
    sizes = mask.sum(axis=1)
    grid = joint.grid(cfg.grid_resolution)
    angles = np.full(len(segments), np.nan)
    # Rows with equal candidate counts share one m-term sum, so numpy adds
    # their terms in the same order as for a single row.
    for m in np.unique(sizes[sizes > 0]):
        in_group = sizes == m
        group = np.flatnonzero(in_group)
        samples = values[mask & in_group[:, None]].reshape(group.size, m)
        if isinstance(cfg.bandwidth_h, str):
            # silverman_bandwidth of every row, bit for bit: int(m) takes Python's
            # power, which numpy's int64 ** -0.2 misses by an ulp for some m.
            h = np.maximum(1.06 * samples.std(axis=1) * int(m) ** -0.2, cfg.grid_resolution)
        else:
            h = np.full(group.size, float(cfg.bandwidth_h))
        samples.sort(axis=1)
        for rows, idx, dens in _window_densities(samples, h, grid):
            pick = dens.argmax(axis=1)
            best = idx[np.arange(rows.size), pick]
            # Where every density underflows to 0, the full-grid argmax is 0.
            best[dens[np.arange(rows.size), pick] == 0.0] = 0
            angles[group[rows]] = grid[best]
    return angles


def decode_matrix(
    codec: PopulationCodec,
    vectors,
    cfg: KdeConfig | None = None,
) -> np.ndarray:
    """Decode N full-width activation vectors to an N x D angle matrix.

    Per DoF, pools the candidate angles of every curve whose activation
    passes the floor (both branches for Gaussians) and takes the argmax of
    their kernel density over a uniform grid spanning the joint range;
    exact ties resolve to the lowest angle.  Only the grid points near the
    candidates are scored, which gives the same argmax as the full grid.
    An entry is NaN where no curve of its DoF passes the floor.  A
    non-finite activation raises :class:`OutOfRangeError`.
    """
    cfg = cfg or KdeConfig()
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != codec.width:
        raise ValueError(f"vectors have shape {vectors.shape}, expected (N, {codec.width})")
    _check_finite(vectors)
    return np.stack(
        [_decode_dof(codec, d, codec.segment(vectors, d), cfg) for d in range(len(codec.joints))],
        axis=1,
    )


def undecodable_dof_error(codec: PopulationCodec, angles, cfg: KdeConfig | None = None):
    """The error naming the first undecodable DoF of one decoded row, or None."""
    missing = np.flatnonzero(np.isnan(angles))
    if not missing.size:
        return None
    d = int(missing[0])
    joint = codec.joints[d]
    return UndecodableError(f"DoF {d} ({joint.name!r}): {_no_candidate(joint, cfg or KdeConfig())}")


def decode_population(
    codec: PopulationCodec,
    segment,
    cfg: KdeConfig | None = None,
    dof: int = 0,
) -> float:
    """Decode one DoF segment of activations to a single angle in degrees,
    as :func:`decode_matrix` does.  Raises :class:`UndecodableError` when
    no curve passes the activation floor.
    """
    cfg = cfg or KdeConfig()
    segment = np.asarray(segment, dtype=float)
    joint, params = codec.bank(dof)
    if segment.shape != (params.width,):
        raise ValueError(
            f"segment has shape {segment.shape}, expected ({params.width},) "
            f"for joint {joint.name!r}"
        )
    _check_finite(segment)
    x = float(_decode_dof(codec, dof, segment[None, :], cfg)[0])
    if math.isnan(x):
        raise UndecodableError(_no_candidate(joint, cfg))
    return x


def decode_vector(
    codec: PopulationCodec,
    vector,
    cfg: KdeConfig | None = None,
) -> np.ndarray:
    """Decode a full-width activation vector to one angle per DoF."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (codec.width,):
        raise ValueError(f"vector has shape {vector.shape}, expected ({codec.width},)")
    _check_finite(vector)
    angles = decode_matrix(codec, vector[None, :], cfg)[0]
    exc = undecodable_dof_error(codec, angles, cfg)
    if exc is not None:
        raise exc
    return angles

"""Quality measures for trained maps.

Quantization error is measured twice: in encoded space (the raw mean
input-to-BMU distance, whose scale depends on the encoding width) and in
normalized angle space after decoding every unit, which is comparable
across encodings of different dimensionality.  Topographic error and a
posture-space neighbor-coherence ratio assess topology preservation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .codec import PopulationCodec
from .dataset import Dataset
from .decode import KdeConfig, decode_matrix
from .errors import DegenerateMapError
from .som import SomMap, bmu_indices, check_encoded, mean_bmu_distance, mean_distance, sq_distances


@dataclass(frozen=True)
class MetricsReport:
    """One trained map's scores plus the configuration that produced it."""

    qe_encoded: float
    qe_encoded_per_sqrt_width: float
    qe_angle: float
    topographic_error: float
    neighbor_coherence_ratio: float
    n_undecodable_units: int
    family: str
    setup: str
    n_or_offset: float
    width: int
    rows: int
    cols: int
    cycles: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def quantization_error(som: SomMap, data) -> float:
    """Mean Euclidean distance of every input to its BMU's weights."""
    return mean_bmu_distance(som.weights, check_encoded(data, som.width))


def normalize_postures(angles: np.ndarray, joints) -> np.ndarray:
    """Map per-DoF angles onto [0, 1] using each joint's range."""
    lo = np.array([j.min_deg for j in joints])
    hi = np.array([j.max_deg for j in joints])
    return (np.asarray(angles, dtype=float) - lo) / (hi - lo)


def decode_units(
    som: SomMap,
    codec: PopulationCodec | None = None,
    cfg: KdeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode every unit to joint angles.

    Returns ``(angles, ok)`` where ``angles`` is units x D (NaN rows for
    undecodable units) and ``ok`` is a boolean mask.
    """
    codec = codec if codec is not None else som.codec
    if codec is None:
        raise ValueError("a codec is required to decode map units")
    angles = decode_matrix(codec, som.weights, cfg)
    ok = ~np.isnan(angles).any(axis=1)
    angles[~ok] = np.nan
    return angles, ok


def _normalized_unit_postures(
    som: SomMap, codec: PopulationCodec, cfg: KdeConfig | None
) -> tuple[np.ndarray, np.ndarray]:
    # For the normalized family the weights already are the normalized
    # posture, so use them directly and skip the affine round trip.
    if codec.family == "normalized":
        return som.weights.copy(), np.ones(som.n_units, dtype=bool)
    angles, ok = decode_units(som, codec, cfg)
    return normalize_postures(angles, codec.joints), ok


def quantization_error_angle(
    som: SomMap,
    codec: PopulationCodec,
    dataset: Dataset,
    encoded,
    cfg: KdeConfig | None = None,
) -> float:
    """Mean normalized-angle distance between samples and decoded BMUs.

    Every BMU's weight vector is decoded to a posture; the error for a
    sample is the Euclidean distance between that posture and the true
    one, both normalized per DoF to [0, 1].  Samples whose BMU cannot be
    decoded are excluded (with a warning naming the unit count).
    ``encoded`` is the dataset's encoding, one row per sample.
    """
    bmus = bmu_indices(som, encoded)
    return _qe_angle(codec, dataset, bmus, *_normalized_unit_postures(som, codec, cfg))


def _qe_angle(codec, dataset, bmus, unit_norm, ok) -> float:
    if bmus.size != dataset.n_samples:
        raise ValueError(f"encoded has {bmus.size} rows for {dataset.n_samples} samples")
    if not ok.all():
        n_bad = int((~ok).sum())
        warnings.warn(f"{n_bad} undecodable unit(s) excluded from qe_angle", stacklevel=3)
    keep = ok[bmus]
    if not keep.any():
        raise DegenerateMapError("every sample maps to an undecodable unit")
    truth = normalize_postures(dataset.samples[keep], codec.joints)
    approx = unit_norm[bmus[keep]]
    return float(np.linalg.norm(truth - approx, axis=1).mean())


def topographic_error(som: SomMap, data) -> float:
    """Fraction of samples whose two best units are not lattice 4-neighbors."""
    return _topographic_error(som, sq_distances(som.weights, check_encoded(data, som.width)))


def _topographic_error(som: SomMap, d2: np.ndarray) -> float:
    if som.n_units < 2:
        raise DegenerateMapError("topographic error is undefined for maps smaller than 1x2")
    top2 = np.argpartition(d2, 1, axis=1)[:, :2]
    # argpartition does not order the pair; sort by distance for correctness.
    row = np.arange(d2.shape[0])[:, None]
    pair_d = d2[row, top2]
    order = np.argsort(pair_d, axis=1)
    best = top2[row[:, 0], order[:, 0]]
    second = top2[row[:, 0], order[:, 1]]
    r1, c1 = np.divmod(best, som.cols)
    r2, c2 = np.divmod(second, som.cols)
    adjacent = (np.abs(r1 - r2) + np.abs(c1 - c2)) == 1
    return float(1.0 - adjacent.mean())


def neighbor_coherence(
    som: SomMap,
    codec: PopulationCodec | None = None,
    cfg: KdeConfig | None = None,
) -> float:
    """Posture-space coherence of the lattice: adjacent over all-pairs distance.

    Decodes every unit, normalizes per DoF, and divides the mean distance
    between lattice-adjacent unit pairs by the mean over all unit pairs.
    Ratios below 1 indicate that lattice neighbors represent more similar
    postures than average, i.e. some topology preservation.
    """
    codec = codec if codec is not None else som.codec
    if codec is None:
        raise ValueError("a codec is required to measure neighbor coherence")
    return _neighbor_coherence(som, *_normalized_unit_postures(som, codec, cfg))


def _neighbor_coherence(som: SomMap, unit_norm: np.ndarray, ok: np.ndarray) -> float:
    if som.n_units < 2:
        raise DegenerateMapError("neighbor coherence is undefined for maps smaller than 1x2")
    if not ok.all():
        n_bad = int((~ok).sum())
        warnings.warn(f"{n_bad} undecodable unit(s) excluded from neighbor coherence", stacklevel=3)
    valid = np.nonzero(ok)[0]
    if valid.size < 2:
        raise DegenerateMapError("fewer than two decodable units")
    coords = som.unit_coords()[valid]
    postures = unit_norm[valid]
    diff = postures[:, None, :] - postures[None, :, :]
    dist = np.sqrt(np.einsum("uvk,uvk->uv", diff, diff))
    lat = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    iu = np.triu_indices(valid.size, k=1)
    all_mean = dist[iu].mean()
    adj_mask = lat[iu] == 1.0
    if not adj_mask.any():
        raise DegenerateMapError("no lattice-adjacent pairs among decodable units")
    if all_mean == 0.0:
        raise DegenerateMapError("all decodable units decode to the same posture")
    return float(dist[iu][adj_mask].mean() / all_mean)


def evaluate_map(
    som: SomMap,
    codec: PopulationCodec,
    dataset: Dataset,
    encoded,
    cfg: KdeConfig | None = None,
    cycles: int = 0,
    seed: int = 0,
) -> MetricsReport:
    """Compute the full report for one trained map from one :func:`sq_distances`
    ranking of every input against every unit, shared by all its metrics."""
    encoded = check_encoded(encoded, som.width)
    d2 = sq_distances(som.weights, encoded)
    bmus = np.argmin(d2, axis=1)
    unit_norm, ok = _normalized_unit_postures(som, codec, cfg)
    qe = mean_distance(som.weights, encoded, bmus)
    return MetricsReport(
        qe_encoded=qe,
        qe_encoded_per_sqrt_width=qe / np.sqrt(som.width),
        qe_angle=_qe_angle(codec, dataset, bmus, unit_norm, ok),
        topographic_error=_topographic_error(som, d2),
        neighbor_coherence_ratio=_neighbor_coherence(som, unit_norm, ok),
        n_undecodable_units=int((~ok).sum()),
        family=codec.spec.family,
        setup=codec.spec.setup,
        n_or_offset=codec.spec.n_or_offset,
        width=som.width,
        rows=som.rows,
        cols=som.cols,
        cycles=cycles,
        seed=seed,
    )

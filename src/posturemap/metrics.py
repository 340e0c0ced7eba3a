"""Quality measures for trained maps, all scored by :func:`evaluate_map`."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .codec import PopulationCodec
from .dataset import Dataset
from .decode import KdeConfig, decode_matrix
from .errors import DegenerateMapError
from .som import SomMap, check_encoded, mean_distance, sq_distances


@dataclass(frozen=True)
class MetricsReport:
    """One trained map's scores plus the configuration that produced it.

    ``qe_encoded`` is the mean Euclidean distance of every input to its BMU,
    on a scale set by the encoding width.  ``qe_angle`` is comparable across
    widths: each sample's Euclidean distance to its BMU's decoded posture, both
    normalized per DoF to [0, 1], averaged over the samples whose BMU can be
    decoded (``n_undecodable_units`` counts the rest).  As for topology,
    ``topographic_error`` is the fraction of samples whose two best units are
    not lattice 4-neighbors, and ``neighbor_coherence_ratio`` the mean
    normalized decoded-posture distance of lattice-adjacent unit pairs over
    that of all pairs, decodable units only; below 1, lattice neighbors
    represent more similar postures than average.
    """

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


def normalize_postures(angles: np.ndarray, joints) -> np.ndarray:
    """Map per-DoF angles onto [0, 1] using each joint's range."""
    lo = np.array([j.min_deg for j in joints])
    hi = np.array([j.max_deg for j in joints])
    return (np.asarray(angles, dtype=float) - lo) / (hi - lo)


def decode_units(som: SomMap, cfg: KdeConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Decode every unit to joint angles under the map's own codec.

    Returns ``(angles, ok)`` where ``angles`` is units x D (NaN rows for
    undecodable units) and ``ok`` is a boolean mask.
    """
    if som.codec is None:
        raise ValueError("a codec is required to decode map units")
    angles = decode_matrix(som.codec, som.weights, cfg)
    ok = ~np.isnan(angles).any(axis=1)
    angles[~ok] = np.nan
    return angles, ok


def _normalized_unit_postures(som: SomMap, cfg: KdeConfig | None) -> tuple[np.ndarray, np.ndarray]:
    # For the normalized family the weights already are the normalized
    # posture, so use them directly and skip the affine round trip.
    if som.codec.family == "normalized":
        return som.weights.copy(), np.ones(som.n_units, dtype=bool)
    angles, ok = decode_units(som, cfg)
    return normalize_postures(angles, som.codec.joints), ok


def _qe_angle(codec, dataset, bmus, unit_norm, ok) -> float:
    if bmus.size != dataset.n_samples:
        raise ValueError(f"encoded has {bmus.size} rows for {dataset.n_samples} samples")
    keep = ok[bmus]
    if not keep.any():
        raise DegenerateMapError("every sample maps to an undecodable unit")
    truth = normalize_postures(dataset.samples[keep], codec.joints)
    approx = unit_norm[bmus[keep]]
    return float(np.linalg.norm(truth - approx, axis=1).mean())


def _topographic_error(som: SomMap, d2: np.ndarray) -> float:
    if som.n_units < 2:
        raise DegenerateMapError("topographic error is undefined for maps smaller than 1x2")
    # Each row's two best units, in either order: lattice adjacency is symmetric.
    top2 = np.argpartition(d2, 1, axis=1)
    r1, c1 = np.divmod(top2[:, 0], som.cols)
    r2, c2 = np.divmod(top2[:, 1], som.cols)
    adjacent = (np.abs(r1 - r2) + np.abs(c1 - c2)) == 1
    return float(1.0 - adjacent.mean())


def _neighbor_coherence(som: SomMap, unit_norm: np.ndarray, ok: np.ndarray) -> float:
    if som.n_units < 2:
        raise DegenerateMapError("neighbor coherence is undefined for maps smaller than 1x2")
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
    """The one scorer: every :class:`MetricsReport` metric from one
    :func:`sq_distances` ranking of the inputs and one decoding of the units.
    ``codec`` must be the map's own, ``som.codec``."""
    if codec is None or codec is not som.codec:
        raise ValueError("a map is scored under its own codec: codec must be som.codec and not None")
    encoded = check_encoded(encoded, som.width)
    d2 = sq_distances(som.weights, encoded)
    bmus = np.argmin(d2, axis=1)
    unit_norm, ok = _normalized_unit_postures(som, cfg)
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

"""Self-organizing map over encoded posture data.

Sequential Kohonen training: for every input the best matching unit (BMU)
and its lattice neighborhood move toward the input,
``w <- w + alpha(t) * exp(-d^2 / (2 r(t)^2)) * (x - w)``,
with the learning rate and neighborhood radius decayed linearly over all
presentation steps.  Maps that share lattice, width and schedule but not
seed train together in one lockstep loop over stacked weights, bit for bit
as they would train one at a time.

Initialization comes in two flavors.  Naive init draws every weight
component uniformly within its observed data range, which for population
codes yields weight vectors that do not correspond to any joint angle.
Consistent init instead draws a random posture and encodes it, so every
unit starts exactly on the valid-code manifold.  The distance of a weight
vector from that manifold is measured by :func:`manifold_distance`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .codec import PopulationCodec, codec_from_json, codec_to_json, encode
from .dataset import read_json


@dataclass(frozen=True)
class SomMap:
    """A rows x cols lattice of units, each holding one weight vector."""

    rows: int
    cols: int
    weights: np.ndarray
    codec: PopulationCodec | None = None
    trained_cycles: int = 0
    qe_trace: tuple[float, ...] = ()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"lattice must be at least 1x1, got {self.rows}x{self.cols}")
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"{weights.shape[0]} weight vectors for a {self.rows}x{self.cols} lattice"
            )
        if self.codec is not None and weights.shape[1] != self.codec.width:
            raise ValueError(
                f"weight width {weights.shape[1]} does not match codec width {self.codec.width}"
            )
        bad = np.argwhere(~np.isfinite(weights))
        if bad.size:
            raise ValueError(f"non-finite weight in unit {bad[0, 0]}")
        weights.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def width(self) -> int:
        return self.weights.shape[1]

    def unit_coords(self) -> np.ndarray:
        """Lattice (row, col) coordinates of every unit, row-major."""
        r, c = np.divmod(np.arange(self.n_units), self.cols)
        return np.stack([r, c], axis=1).astype(float)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one sequential training run."""

    cycles: int = 6
    shuffle: bool = True
    seed: int = 0
    alpha0: float = 0.5
    alpha_end: float = 0.01
    radius0: float | None = None
    radius_end: float = 0.5

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not 0.0 <= self.alpha_end <= self.alpha0 <= 1.0:
            raise ValueError(
                f"need 0 <= alpha_end <= alpha0 <= 1, got {self.alpha_end}, {self.alpha0}"
            )
        if self.radius0 is not None and self.radius0 <= 0:
            raise ValueError("radius0 must be positive")
        if self.radius_end < 0:
            raise ValueError("radius_end must be >= 0")

    def start_radius(self, rows: int, cols: int) -> float:
        return self.radius0 if self.radius0 is not None else max(rows, cols) / 2.0


def init_consistent(
    rows: int,
    cols: int,
    codec: PopulationCodec,
    joints=None,
    seed: int = 0,
) -> SomMap:
    """Seed every unit with the encoding of a random in-range posture.

    Every weight vector starts as a valid population code, so decoding a
    fresh map reproduces the seeded postures.
    """
    joints = tuple(joints) if joints is not None else codec.joints
    if tuple(j.name for j in joints) != tuple(j.name for j in codec.joints):
        raise ValueError("joints do not match the codec's joints")
    rng = np.random.default_rng(seed)
    lo = np.array([j.min_deg for j in joints])
    hi = np.array([j.max_deg for j in joints])
    postures = rng.uniform(lo, hi, size=(rows * cols, len(joints)))
    return SomMap(rows=rows, cols=cols, weights=encode(codec, postures), codec=codec)


def data_ranges(data: np.ndarray) -> np.ndarray:
    """Per-dimension [min, max] of an encoded dataset, as a width x 2 array."""
    data = np.asarray(data, dtype=float)
    return np.stack([data.min(axis=0), data.max(axis=0)], axis=1)


def init_naive(
    rows: int,
    cols: int,
    input_ranges,
    seed: int = 0,
    codec: PopulationCodec | None = None,
) -> SomMap:
    """Seed every weight component uniformly within its own data range.

    This is the standard random initialization; on population-coded input
    the resulting vectors generally lie off the valid-code manifold.
    """
    ranges = np.asarray(input_ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[1] != 2:
        raise ValueError(f"input_ranges must be width x 2, got shape {ranges.shape}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(ranges[:, 0], ranges[:, 1], size=(rows * cols, ranges.shape[0]))
    return SomMap(rows=rows, cols=cols, weights=weights, codec=codec)


def check_encoded(data, width: int) -> np.ndarray:
    """``data`` as a float ``T x width`` matrix of encoded inputs: ValueError
    unless it is 2-D, non-empty, ``width`` columns wide and all finite."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(f"data must be a non-empty T x width matrix, got shape {data.shape}")
    if data.shape[1] != width:
        raise ValueError(f"data width {data.shape[1]} does not match map width {width}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"data row {int(np.argmin(finite))} contains NaN or infinite values")
    return data


def find_bmu(som: SomMap, x) -> tuple[int, float]:
    """Index and exact distance of the unit nearest to ``x``, ranked as by :func:`bmu_indices`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (som.width,):
        raise ValueError(f"input has shape {x.shape}, expected ({som.width},)")
    best = int(bmu_indices(som, x[None, :])[0])
    return best, float(np.linalg.norm(som.weights[best:best + 1] - x, axis=1)[0])


def sq_distances(weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """T x units squared distances less each input's ``|x|^2``: ``|w|^2 - 2 x.w``
    ranks the units for every input as the true distance does."""
    w2 = np.einsum("uw,uw->u", weights, weights)
    return w2[None, :] - 2.0 * data @ weights.T


# Rows per block of input-to-BMU differences, bounding that temporary.
_QE_BLOCK_ROWS = 2048


def mean_distance(weights: np.ndarray, data: np.ndarray, bmus: np.ndarray) -> float:
    """Mean Euclidean distance of every input to its unit ``bmus[t]``.

    The distance is computed exactly, so identical vectors yield exactly
    zero.  It is taken in blocks of rows, each row's as it would be alone,
    and averaged once over all rows.
    """
    norms = np.empty(data.shape[0])
    for start in range(0, data.shape[0], _QE_BLOCK_ROWS):
        rows = slice(start, start + _QE_BLOCK_ROWS)
        norms[rows] = np.linalg.norm(data[rows] - weights[bmus[rows]], axis=1)
    return float(norms.mean())


def mean_bmu_distance(weights: np.ndarray, data: np.ndarray) -> float:
    """Mean Euclidean distance of every input to its BMU's weights."""
    return mean_distance(weights, data, np.argmin(sq_distances(weights, data), axis=1))


def bmu_indices(som: SomMap, data) -> np.ndarray:
    """Vectorized BMU lookup for a whole T x width dataset, lowest index on ties."""
    return np.argmin(sq_distances(som.weights, check_encoded(data, som.width)), axis=1)


def _decay_schedule(cfg: TrainConfig, rows: int, cols: int, total: int):
    """Per step, the learning rate and ``-2 r^2`` of the neighborhood radius
    ``r``, or None once ``r`` reaches 0 and only the BMU itself moves.  Both
    decay linearly over all ``total`` presentation steps."""
    r0 = cfg.start_radius(rows, cols)
    for step in range(total):
        frac = step / (total - 1) if total > 1 else 0.0
        radius = r0 + (cfg.radius_end - r0) * frac
        alpha = cfg.alpha0 + (cfg.alpha_end - cfg.alpha0) * frac
        yield alpha, (-2.0 * radius * radius if radius > 0.0 else None)


def train(som: SomMap, data, cfg: TrainConfig) -> tuple[SomMap, tuple[float, ...]]:
    """Run sequential Kohonen training; returns the trained map and QE trace.

    The trace holds the mean input-to-BMU distance before training and
    after every full cycle (``cycles + 1`` entries).  Fully deterministic
    for a fixed config: the same seed reproduces the same shuffles and the
    same final weights.  This is :func:`train_group` on one map.
    """
    return train_group([som], data, [cfg])[0]


def train_group(soms, data, cfgs) -> list[tuple[SomMap, tuple[float, ...]]]:
    """Train several maps on one dataset in a single lockstep Kohonen loop.

    ``soms[s]`` trains under ``cfgs[s]``.  The maps must share lattice
    shape and width, and the configs may differ in ``seed`` alone, so every
    step has one learning rate and radius.  Each map draws its own shuffles
    from its own seed and goes through exactly the arithmetic of training
    it alone: entry ``s`` of the result is bit for bit what
    :func:`train` returns for ``soms[s]`` and ``cfgs[s]``.
    """
    soms, cfgs = list(soms), list(cfgs)
    if not soms or len(soms) != len(cfgs):
        raise ValueError(f"need one config per map, got {len(soms)} maps and {len(cfgs)} configs")
    first, cfg = soms[0], cfgs[0]
    if any((m.rows, m.cols, m.width) != (first.rows, first.cols, first.width) for m in soms):
        raise ValueError("maps trained together must share rows, cols and width")
    if any(replace(conf, seed=cfg.seed) != cfg for conf in cfgs):
        raise ValueError("configs trained together may differ only in seed")
    data = check_encoded(data, first.width)

    coords = first.unit_coords()
    # Pairwise squared lattice distances, units x units.
    diff = coords[:, None, :] - coords[None, :, :]
    lat_d2 = np.einsum("uvk,uvk->uv", diff, diff)

    # Stacked maps x units x width.  Each step gathers one input per map and
    # works in place on preallocated buffers; every operation acts on each
    # map's slice exactly as it would on that map alone.
    weights = np.stack([m.weights for m in soms])
    n_maps, n_units = weights.shape[:2]
    n_samples = data.shape[0]
    traces = [[mean_bmu_distance(w, data)] for w in weights]
    rngs = [np.random.default_rng(conf.seed) for conf in cfgs]
    w2 = np.einsum("suw,suw->su", weights, weights)
    x = np.empty((n_maps, first.width))
    d2 = np.empty((n_maps, n_units))
    h = np.empty((n_maps, n_units))
    c = np.empty((n_maps, n_units))
    keep = np.empty((n_maps, n_units))
    cx = np.empty_like(weights)
    x_col, x_row = x[:, :, None], x[:, None, :]
    d2_col, c_col, keep_col = d2[:, :, None], c[:, :, None], keep[:, :, None]
    schedule = _decay_schedule(cfg, first.rows, first.cols, cfg.cycles * n_samples)
    for _ in range(cfg.cycles):
        orders = np.stack(
            [rng.permutation(n_samples) if cfg.shuffle else np.arange(n_samples) for rng in rngs],
            axis=1,
        )
        for order, (alpha, neg_2r2) in zip(orders, schedule):
            data.take(order, 0, x, "clip")
            np.matmul(weights, x_col, out=d2_col)
            np.multiply(d2, 2.0, out=d2)
            np.subtract(w2, d2, out=d2)
            lat_d2.take(d2.argmin(1), 0, h, "clip")
            if neg_2r2 is not None:
                np.divide(h, neg_2r2, out=h)
                np.exp(h, out=h)
            else:
                h[...] = h == 0.0
            # Convex form of w += c*(x - w): exact at c = 1 and keeps
            # weights inside the hull of past values and inputs.
            np.multiply(h, alpha, out=c)
            np.subtract(1.0, c, out=keep)
            np.multiply(weights, keep_col, out=weights)
            np.multiply(c_col, x_row, out=cx)
            np.add(weights, cx, out=weights)
            np.einsum("suw,suw->su", weights, weights, out=w2)
        for trace, w in zip(traces, weights):
            trace.append(mean_bmu_distance(w, data))

    results = []
    for som, w, trace in zip(soms, weights, traces):
        trained = SomMap(
            rows=som.rows,
            cols=som.cols,
            weights=w.copy(),
            codec=som.codec,
            trained_cycles=som.trained_cycles + cfg.cycles,
            qe_trace=tuple(trace),
        )
        results.append((trained, tuple(trace)))
    return results


# ---------------------------------------------------------------------------
# Distance from the valid-code manifold
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _golden_minimum(f, a: np.ndarray, b: np.ndarray, iters: int = 80) -> np.ndarray:
    """Golden-section minima of a smooth function on the brackets [a, b].

    ``f`` maps an array of points to an array of one value per point.  Each
    bracket takes the branch its own comparison picks and freezes after the
    iteration in which it narrows below ``1e-13 * max(1, |a|)``, exactly as
    it would when searched alone.  Ties and NaN go right, and the result
    is ``fc`` unless ``fd`` is smaller, as ``min(fc, fd)``.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    live = np.ones(a.shape, dtype=bool)
    for _ in range(iters):
        left = fc < fd  # the minimum lies in [a, d], else in [c, b]
        na, nb = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, nb - _GOLDEN * (nb - na), na + _GOLDEN * (nb - na))
        fx = f(x)
        nc, nd = np.where(left, x, d), np.where(left, c, x)
        nfc, nfd = np.where(left, fx, fd), np.where(left, fc, fx)
        a, b, c, d, fc, fd = (
            np.where(live, new, old)
            for new, old in zip((na, nb, nc, nd, nfc, nfd), (a, b, c, d, fc, fd))
        )
        live &= ~(b - a < 1e-13 * np.maximum(1.0, np.abs(a)))
        if not live.any():
            break
    return np.where(fd < fc, fd, fc)


def _grid_argmin(curves: np.ndarray, segs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row ``s`` of ``segs``, the lowest grid index ``g`` that
    minimizes the direct-form ``((curves[g] - s) ** 2).sum()``, and that
    value: bit for bit ``np.argmin`` over every grid point's direct value.

    Every grid point is scored at once in the expanded form ``|c|^2 - 2 s.c``
    (as :func:`sq_distances` scores units: the squared distance less the
    row's constant ``|s|^2``).  Only the points whose score lies within
    ``window`` of the row's lowest score are rescored in the direct form.

    Why the window keeps the direct argmin.  Let n be the width, u the unit
    roundoff, gamma_k = k u / (1 - k u) and R = |s| + max_g |c_g|.  The
    direct form is within gamma_{n+2} R^2 of the exact squared distance T:
    each difference is rounded once (and squared), each square once, and the
    sum adds n - 1 roundings in any order.  The expanded form is within
    gamma_{n+1} (|c|^2 + 2 |s||c|) <= gamma_{n+2} R^2 of T - |s|^2: n - 1
    roundings per dot product in any order (a fused multiply-add drops one),
    one per product and one in the subtraction.  Call that bound e.  With g*
    the direct argmin and m the expanded one, score[g*] <= T[g*] - |s|^2 + e
    <= direct[g*] - |s|^2 + 2e <= direct[m] - |s|^2 + 2e <= T[m] - |s|^2 + 3e
    <= score[m] + 4e, so a window of 4 e keeps g*.  A product that underflows
    errs by less than 2^-1075 more, which ``tiny`` (2^-1022) covers on both
    sides for any width below 2^50.  Computing the window and the score
    differences adds a relative error near (n + 6) u, far below the
    1 / (2 n + 4) by which 4 gamma_{n+2} exceeds 2 gamma_{n+2} + 2 gamma_{n+1}.
    Where a product can overflow, so does R^2: the window is infinite and
    the row's whole grid is rescored, as is any row with a NaN score.
    """
    n = segs.shape[1]
    gamma = (n + 2) * _UNIT_ROUNDOFF / (1.0 - (n + 2) * _UNIT_ROUNDOFF)
    c2 = np.einsum("gw,gw->g", curves, curves)
    reach = np.sqrt(np.einsum("uw,uw->u", segs, segs)) + np.sqrt(c2.max())
    window = 4.0 * gamma * reach * reach + np.finfo(float).tiny
    # Scaling by -2 is exact, so it may act on the curves before the product.
    score = segs @ (-2.0 * curves.T)
    score += c2
    score -= score.min(axis=1, keepdims=True)
    rows, idx = np.divmod(np.flatnonzero(~(score > window[:, None])), curves.shape[0])
    d2 = ((curves[idx] - segs[rows]) ** 2).sum(axis=1)
    # Every row keeps at least its lowest score, so the row runs start where
    # the row index changes and there is one run per row.
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    lowest = np.minimum.reduceat(d2, starts)
    best = np.minimum.reduceat(np.where(d2 == lowest[rows], idx, curves.shape[0]), starts)
    return best, lowest


def manifold_distance(
    som: SomMap,
    codec: PopulationCodec | None = None,
    grid_deg: float = 0.05,
    refine: bool = True,
) -> np.ndarray:
    """Per-unit distance from the set of valid population codes.

    For every unit and DoF segment, finds the angle whose encoding is
    nearest the segment (dense grid search plus local golden-section
    refinement within one grid step of the best grid angle) and sums the
    residual norms over DoF.  Zero means the weight vector is the exact
    encoding of some posture.  Per DoF, one exact windowed grid search
    (:func:`_grid_argmin`) covers all units; one golden-section search then
    refines every unit of every DoF at once, a units x DoF matrix of
    angles encoded by one all-DoF activation call per step.
    """
    codec = codec if codec is not None else som.codec
    if codec is None:
        raise ValueError("a codec is required to measure manifold distance")
    if codec.width != som.width:
        raise ValueError(f"codec width {codec.width} does not match map width {som.width}")
    if not (math.isfinite(grid_deg) and grid_deg > 0):
        raise ValueError(f"grid_deg must be positive and finite, got {grid_deg}")
    residuals, lo, hi = [], [], []
    for d, (joint, params) in enumerate(zip(codec.joints, codec.per_dof)):
        grid = joint.grid(grid_deg)
        best, d2 = _grid_argmin(params.activations(grid), codec.segment(som.weights, d))
        residuals.append(d2)
        lo.append(grid[np.maximum(best - 1, 0)])
        hi.append(grid[np.minimum(best + 1, len(grid) - 1)])
    residuals = np.stack(residuals, axis=1)
    if refine:
        residuals = _golden_minimum(
            lambda postures: codec.segment_sums((codec.activations(postures) - som.weights) ** 2),
            np.stack(lo, axis=1),
            np.stack(hi, axis=1),
        )
    out = np.zeros(som.n_units)
    for d2 in residuals.T:
        out += np.sqrt(np.maximum(d2, 0.0))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def map_to_json(som: SomMap, train_config: TrainConfig | None = None) -> dict:
    doc = {
        "rows": som.rows,
        "cols": som.cols,
        "weights": [[float(v) for v in row] for row in som.weights],
        "codec": codec_to_json(som.codec) if som.codec is not None else None,
        "trained_cycles": som.trained_cycles,
        "qe_trace": [float(v) for v in som.qe_trace],
    }
    if train_config is not None:
        doc["train_config"] = asdict(train_config)
    return doc


def map_from_json(doc: dict) -> SomMap:
    if not isinstance(doc, dict):
        raise ValueError(f"a map is a JSON object, not {type(doc).__name__}")
    missing = [key for key in ("rows", "cols", "weights") if key not in doc]
    if missing:
        raise ValueError(f"map lacks {', '.join(missing)}")
    codec = codec_from_json(doc["codec"]) if doc.get("codec") else None
    return SomMap(
        rows=doc["rows"],
        cols=doc["cols"],
        weights=np.array(doc["weights"], dtype=float),
        codec=codec,
        trained_cycles=doc.get("trained_cycles", 0),
        qe_trace=tuple(doc.get("qe_trace", ())),
    )


def save_map(som: SomMap, path, train_config: TrainConfig | None = None) -> None:
    Path(path).write_text(json.dumps(map_to_json(som, train_config)) + "\n")


def load_map(path) -> SomMap:
    """Read a map saved by :func:`save_map`; a malformed or invalid map
    raises :class:`DatasetFormatError` naming the file."""
    return read_json(path, map_from_json)

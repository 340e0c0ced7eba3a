"""Decoding activation vectors back to joint angles.

:func:`decode_matrix` is the one decoder.  Per DoF it pools the candidate
angles of every sufficiently active curve, as each curve bank's
``candidates`` gives them (the analytic inverse of each curve: one-to-one
for linear ramps and sigmoids, both branches ``mu +/- r`` for Gaussian
bumps), and takes the argmax of a kernel density estimate over the
candidates: for a consistent code all candidates agree, while for an
off-manifold vector (such as a trained map weight) the KDE arbitrates among
the disagreeing inverses.  It decodes many vectors at once and scores only
the grid points that can hold the maximum.  The work runs per batch of
consecutive DoFs, each (vector, DoF) pair one row of the batch's window
pass and density blocks, so that the fixed cost of those steps is paid
once per batch; a cap on a batch's candidates keeps large decodes to about
one DoF's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import PopulationCodec
from .dataset import check_fields, check_value, either, real
from .errors import OutOfRangeError, UndecodableError

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
        check_fields(
            self, bandwidth_h=either(real(gt=0), "auto"), grid_resolution=real(gt=0),
            activation_floor=real(gt=0, lt=0.5),
        )


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")
def kde_density(samples, h: float, x) -> np.ndarray | float:
    """Gaussian-kernel density estimate ``(1/nh) sum K((x - x_i)/h)``.

    Samples are sorted before summing so the result is bit-identical under
    permutation of the sample list.  Samples, bandwidth and points must be
    finite.  A kernel argument too large for a float is infinite, so its
    term is 0, as it rounds to.
    """
    samples = np.sort(_finite("samples", samples))
    if samples.size == 0:
        raise ValueError("kde_density requires at least one sample")
    check_value("bandwidth", h, real(gt=0))
    x = _finite("x", x)
    u = (x[..., None] - samples) / h
    dens = np.exp(-0.5 * u * u).sum(axis=-1) / (samples.size * h * _SQRT_2PI)
    return dens if dens.ndim else float(dens)


def silverman_bandwidth(samples, floor: float) -> float | np.ndarray:
    """Silverman's rule ``h = 1.06 * std * m^(-1/5)``, floored, of ``(m,)``
    samples, or of each row of ``(N, m)`` samples, bit for bit as of that
    row alone."""
    samples = _finite("samples", samples)
    if samples.ndim not in (1, 2):
        raise ValueError(f"samples must be (m,) or (N, m), got shape {samples.shape}")
    if samples.size == 0:
        raise ValueError("silverman_bandwidth requires at least one sample")
    check_value("floor", floor, real(gt=0))
    # The count is a Python int: numpy's int64 ** -0.2 misses Python's power
    # by an ulp for some m.
    h = np.maximum(1.06 * samples.std(axis=-1) * samples.shape[-1] ** -0.2, floor)
    return h if h.ndim else float(h)


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; a NaN or infinite entry raises ``ValueError``."""
    values = np.asarray(values, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]!r}")
    return values


# ---------------------------------------------------------------------------
# Population decoding
# ---------------------------------------------------------------------------

# Rows are scored in blocks whose rows x window points x candidates
# temporaries (two at a time) hold at most this many floats (256 KiB) each:
# fast and small enough not to raise the peak memory much.
_BLOCK_FLOATS = 1 << 15
# decode_matrix decodes consecutive DoFs together in batches of at most this
# many candidates (64 KiB of them), unless one DoF alone holds more: a small
# map pools all its DoFs into one or two batches, which pay the fixed cost of
# the window pass and of each candidate count's blocks once, while the
# per-candidate arrays of a large decode stay about one DoF's size.
_BATCH_CANDIDATES = 1 << 13
# exp(x) rounds to +0.0 for every x below ln(2^-1075) = -745.13.
_EXP_UNDERFLOW = -746.0
# numpy's exp is fast where its result is normal, down to about -708, and
# takes a slow path below; the cluster bound stays above -700.
_EXP_FAST = -700.0
# The cluster bound prunes only rows whose LB term sum and LB density lie
# this far above the subnormal range, where absolute rounding errors are
# negligible against its relative slack.
_LB_SUM_MIN = 2.0**-900
_LB_MIN = 2.0**-1000


def _window_densities(samples: np.ndarray, h: np.ndarray, grid: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray):
    """KDE densities at the grid points that can hold each row's argmax.

    ``samples`` is N x m, each row sorted ascending, ``h`` the N row
    bandwidths, and ``lo``/``hi`` (N x m) the first and last grid index of
    each candidate's window, as :func:`_candidate_windows` gives them.
    Yields ``(rows, idx, dens)`` per block of rows: ``idx`` holds each
    row's points in the union of its windows in ascending order, padded by
    repeating its last point, and ``dens`` the densities there, computed
    term by term as :func:`kde_density` does, so the bits agree.

    Why the argmax over these points is the full grid's.  Write ``D(p)``
    for the computed density at grid point ``p`` and ``R(p)`` for its real
    value.  The full grid's argmax is its lowest point of largest ``D``, so
    it suffices that every unscored point ``p`` has ``D(p) < D(q)`` for some
    scored point ``q``: then every point of largest ``D`` is scored.

    Windows.  Let ``delta`` be the distance from a row's grid-nearest
    candidate ``x*`` to its nearest grid point ``n*``.  Each term at a
    point farther than ``sqrt(2 h^2 ln m + delta^2)`` from every candidate
    is below ``exp(-delta^2 / 2h^2) / m``, so such a point sums to less than
    the term of ``x*`` at ``n*`` alone, and two grid steps more of radius,
    ``reach``, cover the rounding: outside every window, ``D(p) < D(n*)``.

    Clusters.  A row's candidates split into clusters, maximal runs whose
    windows overlap or touch, so the windows of different clusters cover
    disjoint index spans.  Let cluster ``k`` hold ``n_k`` candidates, its
    windows span the grid points ``[a_k, b_k]``, and ``gap_k`` be the
    distance from that span to the nearest candidate outside the cluster,
    clamped at 0.  At every point of the span, each of the ``n_k`` terms is
    at most 1 and each other term at most ``exp(-gap_k^2 / 2h^2)``, so

        R(p) <= UB_k = (n_k + (m - n_k) exp(-gap_k^2 / 2h^2)) / (m h sqrt(2 pi)).

    The bound raises the exponent to ``-700`` where it is lower, which only
    loosens it.  ``q`` is the grid point nearest the middle candidate of the
    row's largest cluster (the first, on a tie), and ``LB`` the density
    there, from :func:`kde_density`'s terms, summed in another order and
    leaving out terms below ``exp(-700)``, which only lowers it.  A cluster
    is dropped, and its windows emptied, when ``UB_k (1 + rho) < LB (1 -
    rho)``.  The largest cluster is never dropped, and no cluster is dropped
    from a row whose ``q`` lies outside its own window, whose term sum at
    ``q`` is below ``2^-900`` or whose ``LB`` is below ``2^-1000`` or
    infinite.

    Slack.  With unit roundoff ``u = 2^-53``: the subtraction and division
    forming ``u_i = (p - x_i) / h`` and the product forming ``-u_i^2 / 2``
    put a relative error of at most ``5u`` on a term's exponent, so at most
    ``746 * 5u`` on a live term (one not under ``exp(-746)``; the others are
    set to 0 and err by less than ``2^-1074`` each); ``exp`` adds a few ulps,
    and the m-term sum and the normalizing division ``(m - 1)u + u``.  So
    ``D`` and ``LB`` lie within ``(3750 + m) u`` of their real values,
    relatively, and the computed ``UB_k`` within ``3750 u`` of its own (its
    exponent is at least -700), while subnormal terms err by at most
    ``m 2^-1070`` absolutely and a quotient by ``2^-1075``.  Above the two
    floors those absolute errors are below ``2^-70`` of ``LB``.  The slack
    ``rho = (m + 2^14) 2^-52 = (2m + 32768) u`` is about three times what
    all of them need together.  So every point ``p`` of a dropped span has
    ``D(p) < D(q)``, and ``q`` is scored.  An unscored point outside every
    window has ``D(p) < D(n*)``, where ``n*`` is scored or lies in a dropped
    span, so again ``D(p) < D(q)``.  Where a quantity exceeds the float range
    it is infinite: an infinite ``u`` makes a term 0, an infinite reach
    scores the whole grid and an infinite density ties as the full grid's
    does, the values they stand for.
    """
    n, m = samples.shape
    # Sorted candidates give non-decreasing windows, so each one adds the
    # points past its predecessor's end, and a row's points come out sorted.
    # A dropped cluster's emptied windows end before the next kept one.
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


@np.errstate(over="ignore")
def _candidate_windows(cands: np.ndarray, sizes: np.ndarray, h: np.ndarray, grid: np.ndarray,
                       base: np.ndarray, points: np.ndarray):
    """The first and last grid index of every candidate's window, with the
    windows of clusters that cannot hold their row's argmax emptied
    (``hi = lo - 1``), as :func:`_window_densities` sets out.

    ``cands`` holds every row's candidates, sorted within the row, rows one
    after another, row ``i`` holding ``sizes[i]`` of them with bandwidth
    ``h[i]``.  ``grid`` may hold several grids end to end: row ``i``'s is
    the ``points[i]`` of them from index ``base[i]``, and the windows index
    ``grid``.  The work is O(m) per row over all rows at once, with one
    ``exp`` per cluster, and ends early where no row has two clusters.
    """
    offsets = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(sizes.size), sizes)
    end = base + points - 1
    step = (grid[end] - grid[base]) / (points - 1)
    # Each candidate's first and last grid point; positions are counted from
    # its grid's start and clipped to its grid once the base is added.
    first_at, last_at = base[row], end[row]
    pos = (cands - grid[first_at]) / step[row]
    near = np.clip(np.rint(pos) + first_at, first_at, last_at).astype(np.intp)
    delta = np.minimum.reduceat(np.abs(grid[near] - cands), offsets)
    reach = ((np.hypot(h * np.sqrt(2.0 * np.log(sizes)), delta) + 2.0 * step) / step)[row]
    lo = np.clip(np.ceil(pos - reach) + first_at, first_at, last_at + 1).astype(np.intp)
    hi = np.clip(np.floor(pos + reach) + first_at, first_at - 1, last_at).astype(np.intp)
    # A batch's per-candidate arrays set the decoder's peak memory.
    del first_at, last_at, pos, reach

    new = np.empty(cands.size, dtype=bool)
    np.greater(lo[1:], hi[:-1] + 1, out=new[1:])
    new[offsets] = True
    clusters = np.add.reduceat(new, offsets, dtype=np.intp)
    multi = clusters > 1
    if not multi.any():
        return lo, hi

    # Every cluster, each row's in order: its candidates first..last, and
    # UB_k (times the row's normalizer m h sqrt(2 pi)).
    first = np.flatnonzero(new)
    last = np.append(first[1:], cands.size) - 1
    n_k = last - first + 1
    crow = row[first]
    head = np.cumsum(clusters) - clusters
    prev = cands[first - 1]
    prev[head] = -np.inf
    after = cands[np.minimum(last + 1, cands.size - 1)]
    after[head + clusters - 1] = np.inf
    gap = np.minimum(grid[np.minimum(lo[first], end[crow])] - prev,
                     after - grid[np.maximum(hi[last], base[crow])])
    z = np.maximum(gap, 0.0) / h[crow]
    ub = n_k + (sizes[crow] - n_k) * np.exp(np.maximum(-0.5 * z * z, _EXP_FAST))
    # Each row's largest cluster, the first on a tie, as the largest key.
    key = n_k * first.size - np.arange(first.size)
    biggest = -np.maximum.reduceat(key, head) % first.size

    # LB of every row of two or more clusters, at q near the middle
    # candidate of its largest cluster.
    rows = np.flatnonzero(multi)
    mid = first[biggest[rows]] + n_k[biggest[rows]] // 2
    q = near[mid]
    m = sizes[rows]
    u = (np.repeat(grid[q], m) - cands[multi[row]]) / np.repeat(h[rows], m)
    t = -0.5 * u
    t *= u
    terms = np.zeros_like(t)
    np.exp(t, out=terms, where=t >= _EXP_FAST)
    norm = sizes * h * _SQRT_2PI
    rho = (sizes + 2**14) * 2.0**-52
    lbs = np.add.reduceat(terms, np.cumsum(m) - m)
    lb = lbs / norm[rows]
    ok = (lo[mid] <= q) & (q <= hi[mid]) & (lbs >= _LB_SUM_MIN) & (lb >= _LB_MIN) & (lb < np.inf)
    low = np.full(sizes.size, -np.inf)
    low[rows[ok]] = (lb * (1.0 - rho[rows]))[ok]

    drop = ub / norm[crow] * (1.0 + rho[crow]) < low[crow]
    drop[biggest] = False
    gone = np.flatnonzero(drop)
    count = n_k[gone]
    gone = np.repeat(first[gone] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    hi[gone] = lo[gone] - 1
    return lo, hi


@np.errstate(over="ignore")
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


def _decode_batch(codec: PopulationCodec, batch: list, cfg: KdeConfig, angles: np.ndarray) -> None:
    """Decode a batch of DoFs into their columns of ``angles``, which hold NaN.

    ``batch`` holds ``(dof, values, mask)`` per DoF, as its curve bank's
    ``candidates`` gives them.  Every (row, DoF) problem with a candidate is
    one row of a single :func:`_candidate_windows` pass and of a single loop
    over candidate counts, on the batch's grids laid end to end; each row
    indexes its own DoF's grid from that grid's base offset.
    """
    auto = isinstance(cfg.bandwidth_h, str)
    which, live, sizes, raw, cands = [], [], [], [], []
    for k, (_, values, mask) in enumerate(batch):
        counts = mask.sum(axis=1)
        rows = np.flatnonzero(counts)
        which.append(np.full(rows.size, k))
        live.append(rows)
        sizes.append(counts[rows])
        if auto:
            raw.append(values[mask])
        # Each row's candidates sorted, one row after another.
        cands.append(np.sort(np.where(mask[rows], values[rows], np.inf), axis=1)[
            np.arange(values.shape[1]) < counts[rows, None]])
    which, live, sizes, cands = map(np.concatenate, (which, live, sizes, cands))
    if not live.size:
        return
    dofs = np.array([d for d, _, _ in batch])
    grids = [codec.joints[d].grid(cfg.grid_resolution) for d in dofs]
    points = np.array([g.size for g in grids])
    grid = np.concatenate(grids)
    del grids
    base, points = (np.cumsum(points) - points)[which], points[which]
    offsets = np.cumsum(sizes) - sizes
    # Each candidate count's rows, and the indices of their candidates.
    groups = []
    for m in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == m)
        groups.append((group, offsets[group, None] + np.arange(m)))
    if auto:
        # Silverman's rule over each row's candidates in curve order.
        raw = np.concatenate(raw)
        h = np.empty(live.size)
        for group, at in groups:
            h[group] = silverman_bandwidth(raw[at], cfg.grid_resolution)
    else:
        h = np.full(live.size, float(cfg.bandwidth_h))
    lo, hi = _candidate_windows(cands, sizes, h, grid, base, points)
    # Rows with equal candidate counts share one m-term sum, so numpy adds
    # their terms in the same order as for a single row.
    for group, at in groups:
        for rows, idx, dens in _window_densities(cands[at], h[group], grid, lo[at], hi[at]):
            rows = group[rows]
            pick = dens.argmax(axis=1)
            best = idx[np.arange(rows.size), pick]
            # Where every density underflows to 0, the full-grid argmax is its start.
            zero = dens[np.arange(rows.size), pick] == 0.0
            best[zero] = base[rows[zero]]
            angles[live[rows], dofs[which[rows]]] = grid[best]


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
    candidates of clusters that can hold the maximum are scored, which gives
    the same argmax as the full grid.  The work runs per batch of
    consecutive DoFs, of at most ``_BATCH_CANDIDATES`` candidates unless one
    DoF alone holds more: small inputs pool their DoFs and pay the fixed cost
    of the window pass and the density blocks once, large ones keep one DoF's
    memory.  An entry is NaN where no curve of its DoF passes the floor; zero
    rows give a ``(0, D)`` matrix.  A non-finite activation raises
    :class:`OutOfRangeError`.
    """
    cfg = cfg or KdeConfig()
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != codec.width:
        raise ValueError(f"vectors have shape {vectors.shape}, expected (N, {codec.width})")
    bad = np.argwhere(~np.isfinite(vectors))
    if bad.size:
        at = tuple(bad[0])
        raise OutOfRangeError(f"activation {vectors[at]:g} at index {list(map(int, at))} is not finite")
    angles = np.full((len(vectors), len(codec.joints)), np.nan)
    if not len(vectors):
        return angles
    if codec.family == "normalized":
        for d, (joint, params) in enumerate(zip(codec.joints, codec.per_dof)):
            x = params.min_deg + codec.segment(vectors, d)[:, 0] * (params.max_deg - params.min_deg)
            x = np.where(joint.min_deg > x, joint.min_deg, x)  # as min(max(x, lo), hi)
            angles[:, d] = np.where(joint.max_deg < x, joint.max_deg, x)
        return angles
    batch, total = [], 0
    for d, params in enumerate(codec.per_dof):
        values, mask = params.candidates(codec.segment(vectors, d), cfg.activation_floor)
        count = np.count_nonzero(mask)
        if batch and total + count > _BATCH_CANDIDATES:
            _decode_batch(codec, batch, cfg, angles)
            batch, total = [], 0
        batch.append((d, values, mask))
        total += count
    _decode_batch(codec, batch, cfg, angles)
    return angles


def undecodable_dof_error(codec: PopulationCodec, angles, cfg: KdeConfig | None = None):
    """The error naming the first undecodable DoF of one decoded row, or None."""
    missing = np.flatnonzero(np.isnan(angles))
    if not missing.size:
        return None
    d = int(missing[0])
    name = codec.joints[d].name
    floor = (cfg or KdeConfig()).activation_floor
    return UndecodableError(
        f"DoF {d} ({name!r}): no curve of joint {name!r} passed the activation floor {floor:g}"
    )

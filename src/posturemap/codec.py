"""Population encoding of joint angles with tuning-curve families.

Each degree of freedom is encoded by a bank of tuning curves mapping an
angle in degrees to activations in [0, 1]:

* ``normalized`` -- one channel per DoF, the plain affine map
  ``(x - min) / (max - min)``.
* ``linear`` -- clamped ramps ``clip(a*x + b, 0, 1)``, half rising toward
  the range maximum and half falling from the range minimum.
* ``sigmoid`` -- logistic curves ``1 / (1 + exp(sgn * (offset - x)))`` in
  both orientations.
* ``gaussian`` -- bumps ``exp(-(x - mu)^2 / (2 sigma^2))``.

Curve banks are laid out under one of two population setups: a fixed
number of curves per DoF (every DoF contributes the same channel count,
whatever its range), or a fixed angular offset between adjacent curves
(the channel count then varies with the range).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset, JointSpec, check_array, check_fields, check_postures, joints_from_json, read_json, real,
)

SETUPS = ("fixed_count", "fixed_offset")
# Upper bound on one DoF's curves of one orientation, under either setup.
MAX_CURVES_PER_DOF = 1000


@dataclass(frozen=True)
class CodecSpec:
    """Choice of tuning-curve family and population setup.

    ``n_or_offset`` is the per-DoF curve count under ``fixed_count`` (per
    orientation, for the two-sided families) or the angular spacing in
    degrees under ``fixed_offset``.  ``sigmoid_gain`` scales the logistic
    exponent; 1 is the plain form.  Encoding always rejects an angle
    outside its joint's range (see :func:`encode`).
    """

    family: str
    setup: str = "fixed_count"
    n_or_offset: float = 10
    sigmoid_gain: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.setup not in SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}, expected one of {SETUPS}")
        check_fields(self, n_or_offset=real(), sigmoid_gain=real(gt=0))
        if self.family != "normalized":
            if self.setup == "fixed_count":
                n = self.n_or_offset
                if n != int(n) or int(n) < 2:
                    raise ValueError(f"fixed_count requires an integer count >= 2, got {n}")
            elif self.n_or_offset <= 0:
                raise ValueError(f"fixed_offset requires a positive spacing, got {self.n_or_offset}")


def _anchor_grid(joint: JointSpec, spec: CodecSpec, closed: bool = False) -> tuple[np.ndarray, float]:
    """Anchor indices ``k`` and spacing ``step`` of one DoF's curve bank,
    whose anchors sit at ``min_deg + k * step`` or a fixed fraction further.

    fixed_count splits the range into ``n`` steps (``n - 1`` when ``closed``,
    so the last anchor lands on the maximum); fixed_offset steps the spec's
    spacing from the minimum, overshooting the maximum by less than a step.
    A bank of more than ``MAX_CURVES_PER_DOF`` anchors, or one reaching
    past the float range, is rejected before anything is allocated.
    """
    lo, hi = joint.min_deg, joint.max_deg
    if spec.setup == "fixed_count":
        n = int(spec.n_or_offset)
        step = (hi - lo) / (n - 1 if closed else n)
    else:
        step = float(spec.n_or_offset)
        n = float(np.ceil((hi - lo) / step)) + 1
    if not n <= MAX_CURVES_PER_DOF:
        raise ValueError(
            f"joint {joint.name!r}: {n:g} curves per orientation exceed the limit of {MAX_CURVES_PER_DOF}"
        )
    if not math.isfinite(lo + n * step):
        raise ValueError(f"joint {joint.name!r}: curves {step:g} degrees apart overflow the float range")
    return np.arange(int(n)), step


_LOG = np.frompyfunc(math.log, 1, 1)


def _log(y):
    """``math.log`` elementwise as floats; ``np.log`` can differ from it in
    the last bit, which would move decoded candidates."""
    return np.asarray(_LOG(y), dtype=float)


def _gather(mask: np.ndarray, *columns) -> list[np.ndarray]:
    """The entries of each per-curve array (broadcast over rows) where ``mask`` holds."""
    return [np.broadcast_to(c, mask.shape)[mask] for c in columns]


class _CurveBank:
    """What every family's bank shares: its per-curve parameter arrays,
    built once as ``columns``, and per-DoF activations through the
    family's one column formula ``curves(x, **columns)``, which takes one
    angle per curve in the last axis of ``x``."""

    def _freeze_columns(self, **columns) -> None:
        object.__setattr__(self, "columns", {k: np.array(v, dtype=float) for k, v in columns.items()})

    @property
    def width(self) -> int:
        """Curves in the bank: the length of each per-curve column."""
        return len(next(iter(self.columns.values())))

    def activations(self, x) -> np.ndarray:
        """Every curve's activation at the angle(s) ``x``: shape ``x.shape + (width,)``."""
        return self.curves(np.asarray(x, dtype=float)[..., None], **self.columns)


@dataclass(frozen=True)
class NormalizedParams(_CurveBank):
    """Single-channel affine normalization for one DoF."""

    min_deg: float
    max_deg: float

    def __post_init__(self):
        self._freeze_columns(lo=[self.min_deg], span=[self.max_deg - self.min_deg])

    @classmethod
    def build(cls, joint: JointSpec, spec: CodecSpec) -> NormalizedParams:
        return cls(joint.min_deg, joint.max_deg)

    @staticmethod
    def curves(x, lo, span) -> np.ndarray:
        return (x - lo) / span


@dataclass(frozen=True)
class LinearParams(_CurveBank):
    """Clamped-ramp bank for one DoF: ``y = clip(a*x + b, 0, 1)``.

    A zero slope marks a degenerate anchor (at or beyond the range end
    under the fixed-offset setup); such a curve is constant 0.
    """

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self):
        self._freeze_columns(a=self.slopes, b=self.intercepts)

    @classmethod
    def build(cls, joint: JointSpec, spec: CodecSpec) -> LinearParams:
        lo, hi = joint.min_deg, joint.max_deg
        k, step = _anchor_grid(joint, spec)
        slopes, intercepts = [], []
        for anchor in lo + k * step:
            # Rising ramp: 0 at the anchor, 1 at the range maximum.
            if anchor >= hi - 1e-12:
                slopes.append(0.0)
                intercepts.append(0.0)
            else:
                a = 1.0 / (hi - anchor)
                slopes.append(a)
                intercepts.append(-anchor * a)
        for zero in lo + (k + 1) * step:
            # Falling ramp: 1 at the range minimum, 0 at its zero point.
            a = -1.0 / (zero - lo)
            slopes.append(a)
            intercepts.append(zero / (zero - lo))
        return cls(tuple(slopes), tuple(intercepts))

    @staticmethod
    def curves(x, a, b) -> np.ndarray:
        y = x * a
        y += b
        return np.clip(y, 0.0, 1.0, out=y)

    @staticmethod
    def inverse(slope, intercept, y):
        """``x = (y - b) / a`` on the unsaturated part of a ramp."""
        return (y - intercept) / slope

    def candidates(self, segments: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.columns["a"], self.columns["b"]
        # Every ramp saturates at the range ends, but one reading exactly 1
        # is at its own end (falling: the minimum, rising: the maximum).
        mask = (a != 0.0) & (floor < segments) & (segments <= 1.0)
        values = np.zeros(mask.shape)
        values[mask] = self.inverse(*_gather(mask, a, b, segments))
        return values, mask


@dataclass(frozen=True)
class SigmoidParams(_CurveBank):
    """Logistic bank for one DoF: ``y = 1 / (1 + exp(gain*sgn*(offset - x)))``."""

    offsets: tuple[float, ...]
    sgns: tuple[int, ...]
    gain: float = 1.0

    def __post_init__(self):
        self._freeze_columns(o=self.offsets, s=self.sgns, gain=np.full(len(self.sgns), self.gain))

    @classmethod
    def build(cls, joint: JointSpec, spec: CodecSpec) -> SigmoidParams:
        k, step = _anchor_grid(joint, spec)
        if spec.setup == "fixed_count":
            k = k + 0.5  # the centers of the n bins
        anchors = tuple(joint.min_deg + k * step)
        return cls(anchors + anchors, (1,) * len(anchors) + (-1,) * len(anchors), spec.sigmoid_gain)

    @staticmethod
    def curves(x, o, s, gain) -> np.ndarray:
        z = o - x
        z *= gain * s
        np.clip(z, -500.0, 500.0, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)

    @staticmethod
    def inverse(offset, sgn, y, gain):
        """``x = offset - sgn * ln((1 - y) / y) / gain`` for ``0 < y < 1``."""
        return offset - sgn * _log((1.0 - y) / y) / gain

    def candidates(self, segments: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
        # Saturation means float-exact 0 or 1; anything between inverts
        # stably enough for a grid search, so only the floor prunes.
        mask = (floor < segments) & (segments < 1.0)
        o, s, y = _gather(mask, self.columns["o"], self.columns["s"], segments)
        values = np.zeros(mask.shape)
        values[mask] = self.inverse(o, s, y, self.gain)
        return values, mask


@dataclass(frozen=True)
class GaussianParams(_CurveBank):
    """Gaussian bump bank for one DoF: ``y = exp(-(x - mu)^2 / (2 sigma^2))``."""

    centers: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        # Python's ``**`` is ``pow``, which may differ from numpy's square.
        self._freeze_columns(mu=self.centers, two_var=np.full(len(self.centers), 2.0 * self.sigma**2))

    @classmethod
    def build(cls, joint: JointSpec, spec: CodecSpec) -> GaussianParams:
        k, sigma = _anchor_grid(joint, spec, closed=True)
        return cls(tuple(joint.min_deg + k * sigma), sigma)

    @staticmethod
    def curves(x, mu, two_var) -> np.ndarray:
        d = x - mu
        d *= d
        np.negative(d, out=d)
        d /= two_var
        return np.exp(d, out=d)

    @staticmethod
    def inverse(mu, sigma: float, y):
        """Both preimages ``mu -/+ sqrt(-2 sigma^2 ln y)`` for ``0 < y <= 1``."""
        r = np.sqrt(-2.0 * sigma**2 * _log(np.minimum(y, 1.0)))
        return (mu - r, mu + r)

    def candidates(self, segments: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
        # Each active curve gives its pair (mu - r, mu + r), curves in order.
        mask = (floor <= segments) & (segments <= 1.0)
        mu, y = _gather(mask, self.columns["mu"], segments)
        values = np.zeros(mask.shape + (2,))
        values[mask] = np.stack(self.inverse(mu, self.sigma, y), axis=-1)
        return values.reshape(len(segments), -1), np.repeat(mask, 2, axis=1)


DofParams = NormalizedParams | LinearParams | SigmoidParams | GaussianParams
PARAMS_BY_FAMILY = {
    "normalized": NormalizedParams,
    "linear": LinearParams,
    "sigmoid": SigmoidParams,
    "gaussian": GaussianParams,
}
# The order seeds every experiment cell (``experiment._cell_seed``).
FAMILIES = tuple(PARAMS_BY_FAMILY)


@dataclass(frozen=True)
class PopulationCodec:
    """Curve parameters for every DoF, derived from a :class:`CodecSpec`."""

    spec: CodecSpec
    joints: tuple[JointSpec, ...]
    per_dof: tuple[DofParams, ...]
    layout: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if len(self.per_dof) != len(self.joints):
            raise ValueError(f"{len(self.per_dof)} per-DoF curve banks for {len(self.joints)} joints")
        bounds = []
        start = 0
        for d, params in enumerate(self.per_dof):
            lengths = {k: len(v) for k, v in vars(params).items() if isinstance(v, tuple)}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"DoF {d}: ragged curve bank, lengths {lengths}")
            if self.family == "sigmoid" and params.gain != self.spec.sigmoid_gain:
                raise ValueError(f"DoF {d}: sigmoid gain {params.gain} differs from sigmoid_gain")
            bounds.append((start, start + params.width))
            start += params.width
        object.__setattr__(self, "layout", tuple(bounds))
        # Every DoF's curve columns side by side, and the DoF feeding each.
        object.__setattr__(self, "_columns", {
            k: np.concatenate([params.columns[k] for params in self.per_dof])
            for k in (self.per_dof[0].columns if self.per_dof else ())
        })
        widths = [params.width for params in self.per_dof]
        object.__setattr__(self, "_column_dof", np.repeat(np.arange(len(widths)), widths))
        groups: dict[int, list[int]] = {}
        for d, w in enumerate(widths):
            groups.setdefault(w, []).append(d)
        object.__setattr__(self, "_width_groups", [
            (dofs, None if len(groups) == 1 else np.concatenate([np.arange(*bounds[d]) for d in dofs]))
            for dofs in groups.values()
        ])

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def width(self) -> int:
        return self.layout[-1][1] if self.layout else 0

    def _check_dof(self, dof: int) -> None:
        if not 0 <= dof < len(self.joints):
            raise ValueError(f"dof must lie in 0..{len(self.joints) - 1}, got {dof}")

    def bank(self, dof: int) -> tuple[JointSpec, DofParams]:
        """The joint and curve parameters of DoF ``dof``, which must lie in 0..D-1."""
        self._check_dof(dof)
        return self.joints[dof], self.per_dof[dof]

    def segment(self, vector: np.ndarray, dof: int) -> np.ndarray:
        """The channels of DoF ``dof``, which must lie in 0..D-1, along the
        last axis of ``vector``."""
        self._check_dof(dof)
        start, stop = self.layout[dof]
        return np.asarray(vector)[..., start:stop]

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-DoF sums of an ``(N, width)`` matrix, as ``(N, D)``: each
        segment summed over its last axis as a lone ``(N, w)`` array is, so
        the bits match.  DoFs of equal width are summed together as one
        ``(N, k, w)`` array; under fixed_count that is all of them."""
        out = np.empty((len(values), len(self.per_dof)))
        for dofs, columns in self._width_groups:
            # ``take`` copies row-major; ``values[:, columns]`` would copy
            # column-major and reshape to a view that sums in another order.
            group = np.ascontiguousarray(values) if columns is None else values.take(columns, axis=1)
            out[:, dofs] = group.reshape(len(values), len(dofs), -1).sum(axis=-1)
        return out

    def activations(self, postures) -> np.ndarray:
        """Every curve of every DoF at once: ``(..., D)`` angles in,
        ``(..., width)`` activations out, each column fed its own DoF's
        angle; no range check (see :func:`encode`)."""
        # ``take`` keeps the result row-major, unlike ``postures[..., index]``.
        angles = np.asarray(postures, dtype=float).take(self._column_dof, axis=-1)
        return PARAMS_BY_FAMILY[self.family].curves(angles, **self._columns)


def build_codec(spec: CodecSpec, joints) -> PopulationCodec:
    """Derive per-DoF curve parameters for a family/setup choice."""
    joints = tuple(joints)
    if not joints:
        raise ValueError("at least one joint spec is required")
    build = PARAMS_BY_FAMILY[spec.family].build
    return PopulationCodec(spec=spec, joints=joints, per_dof=tuple(build(j, spec) for j in joints))


def encode(codec: PopulationCodec, postures) -> np.ndarray:
    """Encode a D-vector of joint angles (degrees) into a width-vector of
    activations, or an N x D matrix of them into an N x width matrix; an
    angle outside its joint's range, NaN included, raises
    :class:`OutOfRangeError` naming the joint."""
    d = len(codec.joints)
    postures = check_array("postures", postures, (d,), (None, d), finite=False)
    check_postures(postures, codec.joints)
    return codec.activations(postures)


def encode_dataset(codec: PopulationCodec, ds: Dataset) -> np.ndarray:
    """Encode every dataset row; returns a ``T x width`` activation matrix."""
    if tuple(j.name for j in ds.joints) != tuple(j.name for j in codec.joints):
        raise ValueError("dataset joints do not match codec joints")
    return encode(codec, ds.samples)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def codec_to_json(codec: PopulationCodec) -> dict:
    return {
        **asdict(codec.spec),
        "joints": [asdict(j) for j in codec.joints],
        "per_dof": [
            {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(params).items()}
            for params in codec.per_dof
        ],
    }


def codec_from_json(doc: dict) -> PopulationCodec:
    spec = CodecSpec(**{f.name: doc[f.name] for f in fields(CodecSpec)})
    joints = joints_from_json(doc["joints"])
    cls = PARAMS_BY_FAMILY[spec.family]
    keys = [f.name for f in fields(cls)]
    per_dof = []
    for d, entry in enumerate(doc["per_dof"]):
        if sorted(entry) != sorted(keys):
            raise ValueError(
                f"per_dof[{d}] has keys {sorted(entry)}; a {spec.family} codec needs {keys}"
            )
        per_dof.append(cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()}))
    return PopulationCodec(spec=spec, joints=joints, per_dof=tuple(per_dof))


def save_codec(codec: PopulationCodec, path) -> None:
    Path(path).write_text(json.dumps(codec_to_json(codec), indent=2) + "\n")


def load_codec(path) -> PopulationCodec:
    return read_json(path, codec_from_json)

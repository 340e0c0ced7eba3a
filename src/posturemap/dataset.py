"""Joint specifications and time-ordered posture datasets.

A dataset is a T x D matrix of joint angles in degrees sampled at a fixed
rate, together with one :class:`JointSpec` per column.  Datasets round-trip
through CSV (header = joint names) with a small JSON sidecar holding the
per-joint angular ranges.

This module is the package's file boundary: every matrix CSV goes through
:func:`write_matrix_csv` / :func:`read_matrix_csv` and every JSON input
through :func:`read_json`, so a malformed file is rejected in one way.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, OutOfRangeError

# Upper bound on the points of one joint's search grid (:meth:`JointSpec.grid`).
MAX_GRID_POINTS = 100_000
# The rate of every dataset: babble samples at it, and CSV files keep no rate.
SAMPLE_RATE_HZ = 50.0


@dataclass(frozen=True)
class JointSpec:
    """A named degree of freedom with an angular range in degrees."""

    name: str
    min_deg: float
    max_deg: float

    def __post_init__(self):
        check_fields(self, name=instance(str), min_deg=real(), max_deg=real())
        if not self.min_deg < self.max_deg:
            raise ValueError(
                f"joint {self.name!r}: min_deg ({self.min_deg}) must be "
                f"less than max_deg ({self.max_deg})"
            )
        if not math.isfinite(self.range_deg):
            raise ValueError(
                f"joint {self.name!r}: the range from {self.min_deg} to {self.max_deg} is not finite"
            )

    @property
    def range_deg(self) -> float:
        return self.max_deg - self.min_deg

    def grid(self, step: float) -> np.ndarray:
        """Evenly spaced angles from ``min_deg`` to ``max_deg``, both ends
        included, as near ``step`` degrees apart as a whole number of steps
        allows.  A step that gives more than ``MAX_GRID_POINTS`` points is
        rejected before anything is allocated, as is a step that is not a
        finite number > 0."""
        check_value("step", step, real(gt=0))
        steps = self.range_deg / step
        # round() gives at most MAX_GRID_POINTS - 1 steps exactly below this.
        if not steps < MAX_GRID_POINTS - 0.5:
            raise ValueError(
                f"joint {self.name!r}: a grid step of {step:g} degrees gives more than "
                f"{MAX_GRID_POINTS} points"
            )
        return np.linspace(self.min_deg, self.max_deg, max(1, round(steps)) + 1)


@dataclass(frozen=True)
class Dataset:
    """Time-ordered posture samples: rows are time steps, columns are joints."""

    joints: tuple[JointSpec, ...]
    samples: np.ndarray

    def __post_init__(self):
        # A NaN sample is out of its joint's range, and check_postures names
        # the joint.
        samples = check_array("samples", self.samples, (None, len(self.joints)), finite=False)
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "samples", samples)
        if not samples.size:
            raise ValueError(f"samples must be non-empty, got shape {samples.shape}")
        check_postures(samples, self.joints)
        samples.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_joints(self) -> int:
        return self.samples.shape[1]

    @property
    def joint_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.joints)

    @property
    def duration_s(self) -> float:
        return self.n_samples / SAMPLE_RATE_HZ


def check_postures(postures: np.ndarray, joints: tuple[JointSpec, ...]) -> None:
    """Reject a ``(D,)`` posture or an ``(N, D)`` matrix holding a value
    outside its joint's range, NaN included, naming the first such value,
    its row (2-D only), its column and its joint."""
    lo = np.array([j.min_deg for j in joints])
    hi = np.array([j.max_deg for j in joints])
    # NaN fails both comparisons, so it is out of range too.
    bad = np.argwhere(~((postures >= lo) & (postures <= hi)))
    if bad.size:
        idx = tuple(bad[0])
        c = int(idx[-1])
        where = f"row {int(idx[0])}, " if postures.ndim == 2 else ""
        raise OutOfRangeError(
            f"value {postures[idx]:g} at {where}column {c} outside range "
            f"[{lo[c]:g}, {hi[c]:g}] of joint {joints[c].name!r}"
        )


def write_matrix_csv(path, header, matrix) -> None:
    """Write a header row, then one row of ``repr`` floats per matrix row,
    so that a write/read round trip is value-identical."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # repr of a list of floats is the csv row of their reprs, bar ", ".
        fh.writelines(
            repr(row)[1:-1].replace(", ", ",") + "\r\n"
            for row in np.asarray(matrix, dtype=float).tolist()
        )


def read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a file written by :func:`write_matrix_csv`; an empty, ragged,
    non-numeric, non-finite or data-less file raises :class:`DatasetFormatError`
    naming the file and row."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        rows = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise DatasetFormatError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {r}: {exc}") from exc
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        raise DatasetFormatError(f"{path}: non-finite value in row {bad[0, 0]}")
    return [h.strip() for h in header], matrix


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, Python's or numpy's, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_value(name: str, value, rule) -> None:
    """The one argument check.  ``rule`` is a pair ``(ok, what)``, made by
    the functions below; a ``value`` that fails ``ok`` raises
    ``ValueError("<name> must be <what>, got <repr>")``."""
    ok, what = rule
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_array(name: str, values, *shapes, finite: bool = True) -> np.ndarray:
    """The one array check, as :func:`check_value` is the one scalar check:
    ``values`` as a float array.  Its shape must match one of ``shapes``, if
    any are given, each a tuple of sizes in which None stands for any size;
    else ``ValueError("<name> must be a <shape> array, got shape <shape>")``,
    the message showing a None size as n, m or k by its axis.  Unless ``finite`` is false, a NaN or infinite entry raises
    ``ValueError("<name> must be finite, got <value> at <index>")`` for the
    first one."""
    values = np.asarray(values, dtype=float)
    if shapes and not _fits(values.shape, shapes):
        wanted = " or ".join(
            str(tuple("nmk"[i] if n is None else n for i, n in enumerate(shape))).replace("'", "")
            for shape in shapes
        )
        raise ValueError(f"{name} must be a {wanted} array, got shape {values.shape}")
    if finite and not np.isfinite(values).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        where = at[0] if len(at) == 1 else at
        raise ValueError(f"{name} must be finite, got {float(values[at])} at {where}")
    return values


def _fits(size: tuple[int, ...], shapes) -> bool:
    # Plain loops, not generators: arm_points runs this at every IK step.
    for shape in shapes:
        if len(shape) == len(size):
            for n, m in zip(shape, size):
                if n is not None and n != m:
                    break
            else:
                return True
    return False


def check_ranges(name: str, values, rows: int | None = None) -> np.ndarray:
    """:func:`check_array` of a ``(rows, 2)`` array of [min, max] rows, with
    min <= max in each; the first reversed row raises ``ValueError`` naming it."""
    ranges = check_array(name, values, (rows, 2))
    reversed_rows = ranges[:, 0] > ranges[:, 1]
    if reversed_rows.any():
        r = int(reversed_rows.argmax())
        raise ValueError(
            f"{name} must be [min, max] rows with min <= max, got {ranges[r].tolist()} at row {r}"
        )
    return ranges


def check_fields(obj, **rules) -> None:
    """The one field check of every config dataclass: :func:`check_value`
    of each named field of ``obj``, in argument order."""
    for name, rule in rules.items():
        check_value(name, getattr(obj, name), rule)


def integer(least: int):
    return (lambda v: is_int(v) and v >= least), f"an integer >= {least}"


_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"),
           "le": (operator.le, "<=")}


def real(**bounds: float):
    """A finite number within ``bounds``, each named ``gt``, ``ge``, ``lt`` or ``le``.
    The chained comparison fails NaN and the infinities without converting
    the value, so a huge int cannot overflow it."""
    tests = [(_BOUNDS[key][0], bound) for key, bound in bounds.items()]
    what = " and ".join(f"{_BOUNDS[key][1]} {bound:g}" for key, bound in bounds.items())
    return (lambda v: is_real(v) and -math.inf < v < math.inf and all(test(v, b) for test, b in tests),
            f"a finite number {what}".rstrip())


def either(rule, literal):
    """``rule``, or else the one value ``literal``, such as None or ``"auto"``."""
    ok, what = rule
    return (lambda v: (isinstance(v, type(literal)) and v == literal) or ok(v)), f"{what} or {literal!r}"


def instance(cls: type):
    return (lambda v: isinstance(v, cls)), f"a {cls.__name__}"


BOOL = (lambda v: isinstance(v, bool)), "true or false"
PATH = (lambda v: isinstance(v, (str, os.PathLike))), "a str or os.PathLike path"


def tuple_of(rule, size: int | None = None):
    """A tuple or list, of ``size`` entries if given, each meeting ``rule``."""
    ok, what = rule
    return (lambda v: isinstance(v, (tuple, list)) and (size is None or len(v) == size)
            and all(map(ok, v))), f"a tuple of {'' if size is None else f'{size} '}values, each {what}"


def read_json(path, parse):
    """``parse`` of the JSON document in ``path``; a file that is not JSON, or
    a document ``parse`` rejects with ``ValueError``, ``KeyError`` or
    ``TypeError``, raises :class:`DatasetFormatError` naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def save_joint_specs(joints, path) -> None:
    """Write joint specs as the JSON sidecar used next to dataset CSVs."""
    doc = {"joints": [asdict(j) for j in joints]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def joints_from_json(entries) -> tuple[JointSpec, ...]:
    """The one reader of JSON joint specs, the sidecar's and a codec's: each
    ``{"name", "min_deg", "max_deg"}`` object goes to :class:`JointSpec` as
    it is, with no coercion."""
    return tuple(JointSpec(**entry) for entry in entries)


def load_joint_specs(path) -> tuple[JointSpec, ...]:
    """Read a sidecar written by :func:`save_joint_specs`; a malformed one
    raises :class:`DatasetFormatError` naming the file."""
    return read_json(path, lambda doc: joints_from_json(doc["joints"]))


def save_dataset(ds: Dataset, path, joint_spec_path=None) -> None:
    """Write the sample matrix as CSV, the header row carrying the joint
    names; optionally write the joint-spec sidecar as well."""
    write_matrix_csv(path, ds.joint_names, ds.samples)
    if joint_spec_path is not None:
        save_joint_specs(ds.joints, joint_spec_path)


def load_dataset(path, joint_spec_path) -> Dataset:
    """Load a CSV dataset against its joint-spec sidecar.

    Raises :class:`DatasetFormatError` when the file is malformed or its
    header does not match the sidecar, and :class:`OutOfRangeError` (with
    row/column diagnostics) when any cell violates its joint range.
    """
    joints = load_joint_specs(joint_spec_path)
    header, samples = read_matrix_csv(path)
    names = [j.name for j in joints]
    if header != names:
        raise DatasetFormatError(f"{path}: header {header} does not match joint specs {names}")
    return Dataset(joints=joints, samples=samples)

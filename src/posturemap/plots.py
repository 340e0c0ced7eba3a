"""Figure emission: tuning curves, posture grids, update drift, QE bars."""

from __future__ import annotations

import math

import numpy as np

from .codec import PopulationCodec
from .dataset import SAMPLE_RATE_HZ, Dataset
from .decode import KdeConfig
from .kinematics import ARM_JOINT_NAMES, HEAD_JOINT_NAMES, KinematicChain, arm_points
from .metrics import decode_units
from .som import SomMap
from .svg import PALETTE, Frame, SvgCanvas

_PANEL_W, _PANEL_H, _MARGIN = 310.0, 200.0, 52.0
_TRACE_WINDOW_S = 20.0


def _curve_frame(canvas, x, y, joint, title):
    frame = Frame(x, y, _PANEL_W, _PANEL_H, joint.min_deg, joint.max_deg, 0.0, 1.0)
    frame.draw_axes(canvas, title=title, x_label="angle [deg]", y_label="activation")
    return frame


def _draw_curves(canvas, frame, params, lo, hi, n_points=300):
    xs = np.linspace(lo, hi, n_points)
    acts = params.activations(xs)
    for k in range(acts.shape[1]):
        canvas.polyline(frame.map(xs, acts[:, k]), stroke=PALETTE[k % len(PALETTE)])


def plot_tuning_curves(codec: PopulationCodec, dataset: Dataset, dof: int = 0) -> SvgCanvas:
    """Four panels for one DoF: input trace over the first 20 s, curve
    bank, channels, close-up."""
    joint, params = codec.bank(dof)
    n = min(dataset.n_samples, int(_TRACE_WINDOW_S * SAMPLE_RATE_HZ))
    ts = np.arange(n) / SAMPLE_RATE_HZ
    trace = dataset.samples[:n, dof]

    canvas = SvgCanvas(2 * _PANEL_W + 3 * _MARGIN, 2 * _PANEL_H + 3 * _MARGIN + 20)
    x0, y0 = _MARGIN, _MARGIN
    x1, y1 = x0 + _PANEL_W + _MARGIN, y0 + _PANEL_H + _MARGIN + 20

    f_in = Frame(x0, y0, _PANEL_W, _PANEL_H, 0.0, float(ts[-1]) if n > 1 else 1.0,
                 joint.min_deg, joint.max_deg)
    f_in.draw_axes(canvas, title=f"input: {joint.name}", x_label="time [s]", y_label="angle [deg]")
    canvas.polyline(f_in.map(ts, trace), stroke="#333", stroke_width=1.2)

    f_curves = _curve_frame(canvas, x1, y0, joint, "tuning curves")
    _draw_curves(canvas, f_curves, params, joint.min_deg, joint.max_deg)

    f_enc = Frame(x0, y1, _PANEL_W, _PANEL_H, 0.0, float(ts[-1]) if n > 1 else 1.0, 0.0, 1.0)
    f_enc.draw_axes(canvas, title="encoded channels", x_label="time [s]", y_label="activation")
    acts = params.activations(trace)
    for k in range(acts.shape[1]):
        canvas.polyline(f_enc.map(ts, acts[:, k]), stroke=PALETTE[k % len(PALETTE)])

    # Close-up: the middle fifth of the range with the trace samples that
    # fall inside it marked on the curves.
    span = joint.range_deg / 5.0
    lo = joint.min_deg + 2.0 * span
    hi = lo + span
    f_zoom = Frame(x1, y1, _PANEL_W, _PANEL_H, lo, hi, 0.0, 1.0)
    f_zoom.draw_axes(canvas, title="close-up", x_label="angle [deg]", y_label="activation")
    _draw_curves(canvas, f_zoom, params, lo, hi)
    inside = trace[(trace >= lo) & (trace <= hi)][:25]
    pts = params.activations(inside)
    for i, xv in enumerate(inside):
        for k in range(pts.shape[1]):
            canvas.circle(f_zoom.px(float(xv)), f_zoom.py(float(pts[i, k])), 1.6)
    return canvas


def _gaze_direction(head_angles_deg) -> np.ndarray:
    pitch = math.radians(head_angles_deg[0] + head_angles_deg[3])
    yaw = math.radians(head_angles_deg[2] + head_angles_deg[4])
    return np.array([
        math.cos(pitch) * math.cos(yaw),
        math.cos(pitch) * math.sin(yaw),
        math.sin(pitch),
    ])


def plot_posture_grid(som: SomMap, cfg: KdeConfig | None = None) -> SvgCanvas:
    """Stick-figure grid: each cell shows the posture one unit decodes to
    through the map's own codec.

    The arm chain is projected onto the x-z (side view) plane; the head is
    drawn as a gaze arrow.  Undecodable units are rendered as crossed cells.
    The codec must cover the 7 arm + 6 head joints in order.
    """
    names = tuple(j.name for j in som.codec.joints) if som.codec is not None else None
    if names not in (None, ARM_JOINT_NAMES + HEAD_JOINT_NAMES):
        raise ValueError(f"the posture grid draws the 7 arm + 6 head joints in order, got {names}")
    angles, ok = decode_units(som, cfg=cfg)
    chain = KinematicChain()

    cell, pad = 120.0, 14.0
    canvas = SvgCanvas(som.cols * (cell + pad) + pad, som.rows * (cell + pad) + pad)
    reach = chain.reach + abs(chain.shoulder_offset[2]) + 0.05
    head = np.asarray(chain.head_offset)
    x_lo, x_hi = -0.1, max(reach, head[0] + 0.2)
    z_lo, z_hi = -reach, head[2] + 0.1

    def to_px(frame_x, frame_y, p):
        tx = (p[0] - x_lo) / (x_hi - x_lo)
        tz = (p[2] - z_lo) / (z_hi - z_lo)
        return frame_x + tx * cell, frame_y + cell - tz * cell

    arms = iter(arm_points(chain, angles[ok, :7]))
    for u in range(som.n_units):
        r, c = divmod(u, som.cols)
        fx = pad + c * (cell + pad)
        fy = pad + r * (cell + pad)
        canvas.rect(fx, fy, cell, cell, stroke="#aaa")
        if not ok[u]:
            canvas.line(fx, fy, fx + cell, fy + cell, stroke="#d62728", stroke_width=2)
            canvas.line(fx + cell, fy, fx, fy + cell, stroke="#d62728", stroke_width=2)
            continue
        px = [to_px(fx, fy, p) for p in next(arms)]
        canvas.polyline(px, stroke="#1f77b4", stroke_width=2)
        canvas.circle(*px[3], 3, fill="#1f77b4")
        hp = to_px(fx, fy, head)
        gaze = head + 0.12 * _gaze_direction(angles[u, 7:13])
        canvas.circle(*hp, 4, fill="#333")
        canvas.line(*hp, *to_px(fx, fy, gaze), stroke="#333", stroke_width=1.5)
    return canvas


def plot_update_drift(
    codec: PopulationCodec,
    angles: tuple[float, float, float | None],
    vectors: tuple[np.ndarray, np.ndarray, np.ndarray],
    alpha: float,
) -> SvgCanvas:
    """Three panels of a one-joint codec: an encoded input, a weight vector
    seeded at another angle, and the weight after one BMU update with rate
    ``alpha`` pulled off the curve bank.  ``angles`` are the input, seeded
    and decoded updated angles (``None`` if undecodable: the midpoint is
    drawn), ``vectors`` the three activation vectors."""
    if len(codec.joints) != 1:
        raise ValueError(f"the update-drift figure draws a one-joint codec, got {len(codec.joints)} joints")
    joint, params = codec.bank(0)
    angle_input, angle_init, angle_after = angles
    if angle_after is None:
        angle_after = (angle_input + angle_init) / 2.0
    x, w0, w1 = vectors

    # Place the updated components at the decoded angle: unlike the first
    # two panels the marks no longer sit on their curves, which is the
    # point of the figure.
    canvas = SvgCanvas(3 * _PANEL_W + 4 * _MARGIN, _PANEL_H + 2 * _MARGIN + 16)
    panels = (
        (f"input encoded at {angle_input:g} deg", angle_input, x, "#d62728"),
        (f"weights seeded at {angle_init:g} deg", angle_init, w0, "#d62728"),
        (f"after update (alpha={alpha:g}), decodes to {angle_after:g} deg",
         angle_after, w1, "#2ca02c"),
    )
    for p, (title, angle, vec, color) in enumerate(panels):
        fx = _MARGIN + p * (_PANEL_W + _MARGIN)
        frame = _curve_frame(canvas, fx, _MARGIN, joint, title)
        _draw_curves(canvas, frame, params, joint.min_deg, joint.max_deg)
        gx = frame.px(angle)
        canvas.line(gx, frame.y, gx, frame.y + frame.h, stroke="#999", dash="4,3")
        for y in vec:
            canvas.circle(gx, frame.py(float(y)), 2.5, fill=color)
    return canvas


def plot_qe_bars(medians: dict[tuple[str, object], float]) -> SvgCanvas:
    """Grouped bars of median angle-space quantization error.

    ``medians`` maps ``(family, count_or_None)`` to a median qe_angle; each
    family is one group of bars, families and bars in the order of the keys.
    The normalized family appears as its own single-bar group.
    """
    groups: dict[str, list[tuple[str, object]]] = {}
    for key in medians:
        groups.setdefault(key[0], []).append(key)
    peak = max(medians.values())
    w, h, margin = 560.0, 300.0, 56.0
    canvas = SvgCanvas(w, h + 40)
    frame = Frame(margin, 30.0, w - margin - 20, h - 30, 0.0, 1.0, 0.0, peak * 1.15)
    canvas.rect(frame.x, frame.y, frame.w, frame.h, stroke="#888")
    canvas.text(frame.x - 6, frame.y - 8, "median qe_angle", anchor="end", size=10)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = frac * peak * 1.15
        canvas.text(frame.x - 4, frame.py(yv) + 3, f"{yv:.3f}", anchor="end", size=9, fill="#555")
        canvas.line(frame.x, frame.py(yv), frame.x + frame.w, frame.py(yv), stroke="#eee")

    group_w = frame.w / len(groups)
    for g, (fam, keys) in enumerate(groups.items()):
        gx = frame.x + g * group_w
        bar_w = group_w * 0.8 / len(keys)
        for i, key in enumerate(keys):
            val = medians[key]
            bx = gx + group_w * 0.1 + i * bar_w
            by = frame.py(val)
            canvas.rect(bx, by, bar_w * 0.9, frame.y + frame.h - by,
                        fill=PALETTE[i % len(PALETTE)], stroke="none")
            if key[1] is not None:
                canvas.text(bx + bar_w * 0.45, frame.y + frame.h + 12, str(key[1]), anchor="middle", size=9)
        canvas.text(gx + group_w / 2, frame.y + frame.h + 26, fam, anchor="middle", size=11)
    return canvas

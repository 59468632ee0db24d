"""Static SVG charts: error decay on a log axis, and the 2-D walk of the
center across levels. Hand-emitted markup, no plotting dependency."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .refine import RefinementTrace

_W, _H = 800, 600
_MARGIN = 70


def _frame(title: str, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    """A chart's opening markup and title, and the maps sx, sy from data
    in [x_lo, x_hi] x [y_lo, y_hi] to pixels inside the margins."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="28" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_W - 2 * _MARGIN)

    def sy(y: float) -> float:
        return (_H - _MARGIN) - (y - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    return parts, sx, sy


def _polyline(points: Sequence[tuple[float, float]], sx, sy, stroke: str, width: int) -> str:
    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'


def decay_svg(trace: RefinementTrace) -> str:
    """log10(error vs truth) against solve ordinal, over the errors that
    have a finite logarithm."""
    pts = [
        (r.ordinal, math.log10(r.error_vs_truth))
        for r in trace.records
        if r.error_vs_truth is not None and 0.0 < r.error_vs_truth < math.inf
    ]
    title = "error decay (log10 error vs QUBO solve)"
    if not pts:
        infinite = any(r.error_vs_truth == math.inf for r in trace.records)
        note = "every positive error is infinite" if infinite else "no positive errors to plot"
        parts, _, _ = _frame(title, 0, 1, 0, 1)
        parts.append(
            f'<text x="{_W // 2}" y="{_H // 2}" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{note}</text></svg>'
        )
        return "\n".join(parts)

    x_lo, x_hi = 1, max(p[0] for p in pts)
    y_lo = math.floor(min(p[1] for p in pts))
    y_hi = math.ceil(max(p[1] for p in pts))
    if x_hi == x_lo:
        x_hi += 1
    if y_hi == y_lo:
        y_hi += 1
    parts, sx, sy = _frame(title, x_lo, x_hi, y_lo, y_hi)

    decade_step = max(1, math.ceil((y_hi - y_lo) / 12))
    for d in range(y_lo, y_hi + 1, decade_step):
        y = sy(d)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_W - _MARGIN}" y2="{y:.2f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">1e{d}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 24}" text-anchor="middle" font-size="13" '
        'font-family="sans-serif">QUBO solve ordinal</text>'
    )
    if len(pts) == 1:
        x, y = pts[0]
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#1f4e9c"/>')
    else:
        parts.append(_polyline(pts, sx, sy, "#1f4e9c", 2))
    parts.append("</svg>")
    return "\n".join(parts)


def trajectory_svg(trace: RefinementTrace, truth: Optional[Sequence[float]] = None) -> str:
    """Center walk for 2-unknown systems, level-final centers emphasized."""
    if len(trace.final_center) != 2:
        raise ValueError("trajectory plot needs exactly 2 unknowns")
    pts = [r.center_after.to_floats() for r in trace.records]
    level_final = set()
    for i, r in enumerate(trace.records):
        if i + 1 == len(trace.records) or trace.records[i + 1].level != r.level:
            level_final.add(i)

    if truth is not None:
        pts.append((float(truth[0]), float(truth[1])))
    # the map is scale-invariant, so one exact power-of-two scale keeps
    # coordinates below 2^1020, where the padded range stays finite
    k = max(0, math.frexp(max(abs(v) for p in pts for v in p))[1] - 1020)
    pts = [(math.ldexp(x, -k), math.ldexp(y, -k)) for x, y in pts]
    centers = pts[: len(trace.records)]
    xs, ys = zip(*pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = (x_hi - x_lo) * 0.08 or 1.0
    pad_y = (y_hi - y_lo) * 0.08 or 1.0
    parts, sx, sy = _frame("center trajectory", x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y)
    if len(centers) > 1:
        parts.append(_polyline(centers, sx, sy, "#777777", 1))
    for i, (x, y) in enumerate(centers):
        r = 3.5 if i in level_final else 1.5
        fill = "#1f4e9c" if i in level_final else "#999999"
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r}" fill="{fill}"/>')
    if truth is not None:
        tx, ty = sx(pts[-1][0]), sy(pts[-1][1])
        parts.append(
            f'<path d="M {tx:.2f} {ty - 8:.2f} L {tx + 2.4:.2f} {ty - 2.4:.2f} '
            f'L {tx + 8:.2f} {ty:.2f} L {tx + 2.4:.2f} {ty + 2.4:.2f} '
            f'L {tx:.2f} {ty + 8:.2f} L {tx - 2.4:.2f} {ty + 2.4:.2f} '
            f'L {tx - 8:.2f} {ty:.2f} L {tx - 2.4:.2f} {ty - 2.4:.2f} Z" '
            'fill="#c0392b"/>'
        )
        parts.append(
            f'<text x="{tx + 12:.2f}" y="{ty + 4:.2f}" font-size="12" '
            'font-family="sans-serif" fill="#c0392b">solution</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(
    trace: RefinementTrace,
    out_prefix: str,
    truth: Optional[Sequence[float]] = None,
) -> list[str]:
    """Write the available charts; returns the paths written.

    The decay chart needs recorded errors (a supplied truth); the
    trajectory chart needs exactly two unknowns. Whatever does not
    apply is skipped, never an error. Every chart is drawn before any
    file is opened, so a chart that fails leaves no file behind.
    """
    if not trace.records:
        raise ValueError("cannot plot an empty trace")
    charts = []
    if any(r.error_vs_truth is not None for r in trace.records):
        charts.append((f"{out_prefix}_decay.svg", decay_svg(trace)))
    if len(trace.final_center) == 2:
        charts.append((f"{out_prefix}_trajectory.svg", trajectory_svg(trace, truth)))
    for path, svg in charts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    return [path for path, _ in charts]

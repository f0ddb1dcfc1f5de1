"""Self-contained SVG renderings of layouts, transitions and sweep curves.

Every scene is plain generated markup with no plotting dependency. Loiter
circles are the only ``<circle>`` elements in a document; markers and
arrowheads use polygons so circle counts stay meaningful.
"""

from __future__ import annotations

import math

from .dubins import Pose
from .geometry import AreaSpec, LoiterCircle, Vec2

_CLUSTER_COLORS = (
    "#1f77b4",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
)


class _Scene:
    """World-coordinate drawing surface with a y-up to y-down flip: the
    world point ``origin`` lands ``margin_m`` inside the lower-left corner
    of a ``width_m`` by ``height_m`` drawing."""

    def __init__(self, origin: Vec2, width_m: float, height_m: float, margin_m: float):
        self.origin = origin
        self.margin = margin_m
        self.w = width_m + 2 * margin_m
        self.h = height_m + 2 * margin_m
        self.height_m = height_m
        self.parts: list[str] = []

    def tx(self, x: float) -> float:
        return x - self.origin.x + self.margin

    def ty(self, y: float) -> float:
        return self.height_m + self.margin - (y - self.origin.y)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def document(self) -> str:
        body = "\n  ".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w:.1f}" '
            f'height="{self.h:.1f}" viewBox="0 0 {self.w:.1f} {self.h:.1f}">\n'
            f'  <rect width="{self.w:.1f}" height="{self.h:.1f}" fill="#ffffff"/>\n'
            f"  {body}\n</svg>\n"
        )


def _arrowhead(scene: _Scene, tip: Vec2, heading: float, size: float, color: str) -> str:
    """Triangle marker pointing along the heading at the given position."""
    back = heading + math.pi
    spread = 0.45
    pts = [
        (tip.x, tip.y),
        (tip.x + size * math.cos(back + spread), tip.y + size * math.sin(back + spread)),
        (tip.x + size * math.cos(back - spread), tip.y + size * math.sin(back - spread)),
    ]
    coords = " ".join(f"{scene.tx(x):.2f},{scene.ty(y):.2f}" for x, y in pts)
    return f'<polygon points="{coords}" fill="{color}"/>'


def _circle(scene: _Scene, c: LoiterCircle, stroke: str, width: float = 1.2) -> str:
    return (
        f'<circle cx="{scene.tx(c.center.x):.2f}" cy="{scene.ty(c.center.y):.2f}" '
        f'r="{c.radius:.2f}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"/>'
    )


def _area_rect(scene: _Scene, area: AreaSpec) -> str:
    return (
        f'<rect x="{scene.tx(0):.2f}" y="{scene.ty(area.y_extent):.2f}" '
        f'width="{area.x_extent:.2f}" height="{area.y_extent:.2f}" '
        f'fill="none" stroke="#000000" stroke-width="2"/>'
    )


def render_fleet(
    area: AreaSpec,
    circles: dict[int, LoiterCircle],
    phase: float,
    dead: dict[int, LoiterCircle] | None = None,
    clusters=None,
    title: str = "",
) -> str:
    """Area rectangle, loiter circles and arrowheads at the common phase.

    ``clusters`` (id sets) colors each survivor cluster; lost UAVs are drawn
    as grey crosses at their former circle centers.
    """
    scene = _Scene(Vec2(0.0, 0.0), area.x_extent, area.y_extent, margin_m=max(40.0, 0.1 * area.x_extent))
    scene.add(_area_rect(scene, area))
    color_of = {}
    if clusters:
        for ci, comp in enumerate(clusters):
            for uav_id in comp:
                color_of[uav_id] = _CLUSTER_COLORS[ci % len(_CLUSTER_COLORS)]
    for uav_id in sorted(circles):
        circle = circles[uav_id]
        color = color_of.get(uav_id, "#d62728")
        scene.add(_circle(scene, circle, color))
        tip = circle.point_at(phase)
        heading = phase + 0.5 * math.pi
        scene.add(_arrowhead(scene, tip, heading, 0.25 * circle.radius, "#000000"))
    if dead:
        for uav_id in sorted(dead):
            c = dead[uav_id].center
            s = 0.12 * dead[uav_id].radius
            x0, y0 = scene.tx(c.x - s), scene.ty(c.y - s)
            x1, y1 = scene.tx(c.x + s), scene.ty(c.y + s)
            scene.add(
                f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                f'stroke="#888888" stroke-width="2"/>'
            )
            scene.add(
                f'<line x1="{x0:.2f}" y1="{y1:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
                f'stroke="#888888" stroke-width="2"/>'
            )
    if title:
        scene.add(f'<text x="10" y="20" font-size="16" fill="#333333">{title}</text>')
    return scene.document()


def render_transition(
    source: LoiterCircle,
    target: LoiterCircle,
    points,
    break_off: Pose,
    join_in: Pose,
) -> str:
    """Source/target circles, the transition curve (``points``, a sequence of
    (x, y) pairs), and a marker and an arrowhead at the break-off and join
    poses."""
    xs = [source.center.x - source.radius, target.center.x - target.radius]
    xs += [source.center.x + source.radius, target.center.x + target.radius]
    ys = [source.center.y - source.radius, target.center.y - target.radius]
    ys += [source.center.y + source.radius, target.center.y + target.radius]
    xs += [x for x, _ in points]
    ys += [y for _, y in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    scene = _Scene(Vec2(min(xs), min(ys)), max(xs) - min(xs), max(ys) - min(ys), margin_m=0.15 * span)
    scene.add(_circle(scene, source, "#1f77b4", 2.0))
    scene.add(_circle(scene, target, "#2ca02c", 2.0))
    if len(points) >= 2:
        coords = " ".join(f"{scene.tx(x):.2f},{scene.ty(y):.2f}" for x, y in points)
        scene.add(f'<polyline points="{coords}" fill="none" stroke="#d62728" stroke-width="2"/>')
    s = 0.035 * span
    for pose, color in ((break_off, "#2ca02c"), (join_in, "#d62728")):
        m = pose.position
        scene.add(
            f'<rect x="{scene.tx(m.x) - s:.2f}" y="{scene.ty(m.y) - s:.2f}" '
            f'width="{2 * s:.2f}" height="{2 * s:.2f}" fill="{color}"/>'
        )
    for pose in (break_off, join_in):
        scene.add(_arrowhead(scene, pose.position, pose.heading, 0.06 * span, "#000000"))
    return scene.document()


def render_sweep(points, r_l_max: float) -> str:
    """Radius-vs-loss curves per initial radius with the radius-cap (black)
    reference line."""
    width, height, margin = 640.0, 440.0, 60.0
    r_inits = sorted({p.r_init for p in points})
    max_frac = max((p.loss_fraction for p in points), default=1.0) or 1.0
    max_r = 1.1 * max(
        [r_l_max] + [p.r_new for p in points if p.r_new is not None] + [p.ideal_r_new for p in points]
    )

    def px(frac: float) -> float:
        return margin + (frac / max_frac) * (width - 2 * margin)

    def py(r: float) -> float:
        return height - margin - (r / max_r) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#000000"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="#000000"/>',
        f'<text x="{width / 2:.0f}" y="{height - 15:.0f}" font-size="13" '
        f'text-anchor="middle">loss fraction</text>',
        f'<text x="18" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90, 18, {height / 2:.0f})">loiter radius (m)</text>',
    ]
    for k in range(6):
        frac = max_frac * k / 5
        parts.append(
            f'<text x="{px(frac):.1f}" y="{height - margin + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{frac:.2f}</text>'
        )
        r = max_r * k / 5
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{py(r) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{r:.0f}</text>'
        )
    parts.append(
        f'<line x1="{margin}" y1="{py(r_l_max):.1f}" x2="{width - margin}" '
        f'y2="{py(r_l_max):.1f}" stroke="#000000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{width - margin + 4:.1f}" y="{py(r_l_max) + 4:.1f}" font-size="10" '
        f'fill="#000000">max loiter</text>'
    )
    for ci, r_init in enumerate(r_inits):
        color = _CLUSTER_COLORS[ci % len(_CLUSTER_COLORS)]
        sim = [(p.loss_fraction, p.r_new) for p in points if p.r_init == r_init and p.r_new is not None]
        ideal = [(p.loss_fraction, p.ideal_r_new) for p in points if p.r_init == r_init]
        for series, dash in ((sim, ""), (ideal, ' stroke-dasharray="5,4"')):
            if len(series) >= 2:
                coords = " ".join(f"{px(f):.1f},{py(r):.1f}" for f, r in sorted(series))
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="1.8"{dash}/>'
                )
        parts.append(
            f'<text x="{width - margin - 120:.0f}" y="{margin + 16 * ci:.1f}" font-size="11" '
            f'fill="{color}">r_init = {r_init:g} m</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

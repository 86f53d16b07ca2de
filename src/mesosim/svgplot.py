"""Minimal deterministic SVG chart primitives.

Charts are built from explicit coordinate math and emitted as plain
strings, so identical data always yields byte-identical files and the
output renders without fonts, scripts, or any external resource.
"""

from __future__ import annotations

import math

WIDTH = 800
HEIGHT = 560
MARGIN_LEFT = 78
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 58
TICKS = 6  # the tick count an axis aims at

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(value: float) -> str:
    text = format(value, ".2f")
    return "0.00" if text == "-0.00" else text


def _tick_label(value: float) -> str:
    return format(value, ".6g")


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], at a 1/2/5 step; hi > lo (see Chart)."""
    span = hi - lo
    raw = span / (TICKS - 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = power * mult
        if span / step <= TICKS:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


class Chart:
    """A single x/y chart with linear axes and a fixed pixel frame."""

    def __init__(self, x_range, y_range, title: str, x_label: str, y_label: str):
        lo_x, hi_x = x_range
        lo_y, hi_y = y_range
        if hi_x <= lo_x:
            hi_x = lo_x + 1.0
        if hi_y <= lo_y:
            hi_y = lo_y + 1.0
        self.lo_x, self.hi_x = lo_x, hi_x
        self.lo_y, self.hi_y = lo_y, hi_y
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.body: list[str] = []

    def px(self, x: float) -> float:
        inner = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + (x - self.lo_x) / (self.hi_x - self.lo_x) * inner

    def py(self, y: float) -> float:
        inner = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - (y - self.lo_y) / (self.hi_y - self.lo_y) * inner

    def polyline(self, points, color: str, width: float = 1.0, opacity: float = 1.0):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in points)
        extra = "" if opacity >= 1.0 else f' stroke-opacity="{_fmt(opacity)}"'
        self.body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{_fmt(width)}"'
            f"{extra} points=\"{coords}\" />"
        )

    def circle(self, x: float, y: float, r: float, color: str):
        self.body.append(
            f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" '
            f'r="{_fmt(r)}" fill="{color}" />'
        )

    def text(self, px: float, py: float, content: str):
        """Left-aligned 13 px label at pixel position (px, py)."""
        self.body.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-family="sans-serif" '
            f'font-size="13" text-anchor="start">{escape(content)}</text>'
        )

    def render(self) -> str:
        frame_left = MARGIN_LEFT
        frame_right = WIDTH - MARGIN_RIGHT
        frame_top = MARGIN_TOP
        frame_bottom = HEIGHT - MARGIN_BOTTOM
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white" />',
        ]
        axes = []
        for tick in nice_ticks(self.lo_x, self.hi_x):
            px = self.px(tick)
            axes.append(
                f'<line x1="{_fmt(px)}" y1="{frame_bottom}" x2="{_fmt(px)}" '
                f'y2="{frame_bottom + 5}" stroke="black" stroke-width="1" />'
            )
            axes.append(
                f'<text x="{_fmt(px)}" y="{frame_bottom + 20}" font-family="sans-serif" '
                f'font-size="12" text-anchor="middle">{_tick_label(tick)}</text>'
            )
        for tick in nice_ticks(self.lo_y, self.hi_y):
            py = self.py(tick)
            axes.append(
                f'<line x1="{frame_left - 5}" y1="{_fmt(py)}" x2="{frame_left}" '
                f'y2="{_fmt(py)}" stroke="black" stroke-width="1" />'
            )
            axes.append(
                f'<text x="{frame_left - 9}" y="{_fmt(py + 4)}" font-family="sans-serif" '
                f'font-size="12" text-anchor="end">{_tick_label(tick)}</text>'
            )
        parts.extend(axes)
        parts.extend(self.body)
        parts.append(
            f'<rect x="{frame_left}" y="{frame_top}" width="{frame_right - frame_left}" '
            f'height="{frame_bottom - frame_top}" fill="none" stroke="black" stroke-width="1" />'
        )
        parts.append(
            f'<text x="{(frame_left + frame_right) // 2}" y="{MARGIN_TOP - 16}" '
            f'font-family="sans-serif" font-size="15" text-anchor="middle">'
            f"{escape(self.title)}</text>"
        )
        parts.append(
            f'<text x="{(frame_left + frame_right) // 2}" y="{HEIGHT - 14}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">'
            f"{escape(self.x_label)}</text>"
        )
        parts.append(
            f'<text x="20" y="{(frame_top + frame_bottom) // 2}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" transform="rotate(-90 20 '
            f'{(frame_top + frame_bottom) // 2})">{escape(self.y_label)}</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_chart(chart: Chart, out_path: str) -> str:
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        f.write(chart.render())
    return out_path

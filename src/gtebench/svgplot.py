"""Minimal self-contained SVG line charts (axes, polylines, legend).

No plotting dependency: output is a plain string with fixed-precision
numbers, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Series:
    name: str
    ys: tuple[float, ...]
    color: str


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from ``lo`` to ``hi``."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "black", width: int = 1) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: str, y: str, size: int, body: str, anchor: str | None = "middle",
          extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    # xml.sax.saxutils.escape, whose import would load urllib.request into every CLI run
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{extra}>'
            f'{body}</text>')


def line_chart(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    if not series:
        raise ValueError("at least one series required")
    width, height = 900, 420
    ml, mr, mt, mb = 60, 160, 40, 50  # margins: left/right/top/bottom
    pw, ph = width - ml - mr, height - mt - mb

    # point k of every series is drawn at x = k
    all_y = [y for s in series for y in s.ys]
    x_lo, x_hi = 0, max(len(s.ys) for s in series) - 1
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    out.append(_text(_fmt(ml + pw / 2), "24", 16, title))
    # axes
    out.append(_line(ml, mt + ph, ml + pw, mt + ph))
    out.append(_line(ml, mt, ml, mt + ph))
    for tx in _ticks(x_lo, x_hi):
        out.append(_line(px(tx), mt + ph, px(tx), mt + ph + 5))
        out.append(_text(_fmt(px(tx)), _fmt(mt + ph + 20), 11, _fmt(tx)))
    for ty in _ticks(y_lo, y_hi):
        out.append(_line(ml - 5, py(ty), ml, py(ty)))
        out.append(_text(_fmt(ml - 8), _fmt(py(ty) + 4), 11, _fmt(ty), "end"))
    out.append(_text(_fmt(ml + pw / 2), _fmt(height - 10), 13, xlabel))
    out.append(_text("16", _fmt(mt + ph / 2), 13, ylabel,
                     extra=f' transform="rotate(-90 16 {_fmt(mt + ph / 2)})"'))
    # series + legend
    for k, s in enumerate(series):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in enumerate(s.ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{s.color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 18 * k
        out.append(_line(ml + pw + 12, ly - 4, ml + pw + 36, ly - 4, s.color, 2))
        out.append(_text(_fmt(ml + pw + 42), _fmt(ly), 12, s.name, anchor=None))
    out.append("</svg>")
    return "\n".join(out) + "\n"

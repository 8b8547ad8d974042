#!/usr/bin/env python3
"""Render a self-contained HTML dashboard from a flight-recorder stream.

Usage:
    tools/flow_dashboard.py observe_events.json [-o dashboard.html]
                            [--title TITLE]

The input is the ppacd-observe-v1 event stream written by
`flow_cli --observe` (or the "observe" section of a run report). The
output is a single static HTML file with inline SVG — no JavaScript, no
external assets — showing:

  * placement convergence: HPWL, density overflow, and mean spreading
    displacement per placer iteration (one curve per placer run),
  * CG solver residuals per outer iteration (log scale),
  * router convergence: overflowed edges / victims per rip-up round and
    per-batch overflow growth during initial routing,
  * the final congestion heatmap (binned grid, green->red),
  * the endpoint slack histogram and STA level widths,
  * cluster coarsening progress and the final cluster-size distribution.

Sections whose stream recorded nothing are skipped. Stdlib only.
"""

import argparse
import html
import json
import math
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_SCHEMA = 4

PLOT_W, PLOT_H = 460, 220
MARGIN_L, MARGIN_B, MARGIN_T, MARGIN_R = 58, 30, 14, 12

CSS = """
body { font-family: sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.05em; margin: 0 0 .3em 0; }
.grid { display: flex; flex-wrap: wrap; gap: 1.2em; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: .8em 1em; }
.note { color: #777; font-size: .8em; margin-top: .3em; }
svg text { font-size: 10px; fill: #444; }
"""

SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                 "#17becf", "#8c564b"]


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(title, series, ylabel, logy=False, note=""):
    """series: list of (label, [(x, y), ...])."""
    points = [(x, y) for _, pts in series for x, y in pts
              if not logy or y > 0.0]
    if not points:
        return ""
    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) if logy else p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 <= x0:
        x1 = x0 + 1
    if y1 <= y0:
        y1 = y0 + 1

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (PLOT_W - MARGIN_L - MARGIN_R)

    def sy(y):
        return PLOT_H - MARGIN_B - (y - y0) / (y1 - y0) * (
            PLOT_H - MARGIN_B - MARGIN_T)

    parts = [f'<svg width="{PLOT_W}" height="{PLOT_H}" '
             f'viewBox="0 0 {PLOT_W} {PLOT_H}">']
    # Axes + min/max labels.
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{PLOT_W - MARGIN_L - MARGIN_R}" '
        f'height="{PLOT_H - MARGIN_T - MARGIN_B}" fill="none" '
        f'stroke="#bbb"/>')
    lo_text = f"1e{y0:.1f}" if logy else fmt(y0)
    hi_text = f"1e{y1:.1f}" if logy else fmt(y1)
    parts.append(f'<text x="4" y="{MARGIN_T + 8}">{hi_text}</text>')
    parts.append(f'<text x="4" y="{PLOT_H - MARGIN_B}">{lo_text}</text>')
    parts.append(f'<text x="{MARGIN_L}" y="{PLOT_H - 8}">{fmt(x0)}</text>')
    parts.append(f'<text x="{PLOT_W - 40}" y="{PLOT_H - 8}">{fmt(x1)}</text>')
    for si, (label, pts) in enumerate(series):
        pts = [(x, y) for x, y in pts if not logy or y > 0.0]
        if not pts:
            continue
        color = SERIES_COLORS[si % len(SERIES_COLORS)]
        coords = " ".join(
            f"{sx(x):.1f},{sy(math.log10(y) if logy else y):.1f}"
            for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{MARGIN_L + 6}" y="{MARGIN_T + 12 + 11 * si}" '
                     f'fill="{color}">{html.escape(label)}</text>')
    parts.append("</svg>")
    note_html = f'<div class="note">{html.escape(note)}</div>' if note else ""
    return (f'<div class="card"><h2>{html.escape(title)}</h2>'
            f'{"".join(parts)}<div class="note">{html.escape(ylabel)}'
            f'{" (log scale)" if logy else ""}</div>{note_html}</div>')


def heat_color(v):
    """0 -> green, 0.5 -> yellow, >= 1 -> red (overflow)."""
    v = max(0.0, min(1.5, v)) / 1.5
    r = int(60 + 195 * min(1.0, 2 * v))
    g = int(200 - 170 * max(0.0, 2 * v - 1))
    return f"rgb({r},{g},60)"


def heatmap(title, frame, note=""):
    nx, ny = frame["nx"], frame["ny"]
    values = frame["values"]
    if nx <= 0 or ny <= 0 or len(values) < nx * ny:
        return ""
    cell = max(4, min(12, 480 // max(nx, ny)))
    w, h = nx * cell, ny * cell
    parts = [f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for gy in range(ny):
        for gx in range(nx):
            v = values[gy * nx + gx]
            # SVG y grows downward; flip so row 0 is the bottom of the die.
            parts.append(
                f'<rect x="{gx * cell}" y="{(ny - 1 - gy) * cell}" '
                f'width="{cell}" height="{cell}" fill="{heat_color(v)}"/>')
    parts.append("</svg>")
    legend = ('<div class="note">green = free, yellow = near capacity, '
              'red = overflow</div>')
    note_html = f'<div class="note">{html.escape(note)}</div>' if note else ""
    return (f'<div class="card"><h2>{html.escape(title)}</h2>'
            f'{"".join(parts)}{legend}{note_html}</div>')


def histogram(title, frame, xlabel):
    values = frame["values"]
    if len(values) < 3:
        return ""
    lo, hi, counts = values[0], values[1], values[2:]
    peak = max(counts) if counts else 0.0
    if peak <= 0.0:
        return ""
    w, h = PLOT_W, PLOT_H
    bar_w = (w - MARGIN_L - MARGIN_R) / len(counts)
    parts = [f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for i, c in enumerate(counts):
        bh = (h - MARGIN_T - MARGIN_B) * c / peak
        parts.append(
            f'<rect x="{MARGIN_L + i * bar_w:.1f}" '
            f'y="{h - MARGIN_B - bh:.1f}" width="{max(1.0, bar_w - 1):.1f}" '
            f'height="{bh:.1f}" fill="#1f77b4"/>')
    parts.append(f'<text x="{MARGIN_L}" y="{h - 8}">{fmt(lo)}</text>')
    parts.append(f'<text x="{w - 60}" y="{h - 8}">{fmt(hi)}</text>')
    parts.append(f'<text x="4" y="{MARGIN_T + 8}">{fmt(peak)}</text>')
    parts.append("</svg>")
    return (f'<div class="card"><h2>{html.escape(title)}</h2>'
            f'{"".join(parts)}<div class="note">{html.escape(xlabel)}</div>'
            f'</div>')


def by_stream(doc):
    samples = {}
    for s in doc.get("samples", []):
        samples.setdefault(s["stream"], []).append(s)
    frames = {}
    for f in doc.get("frames", []):
        frames.setdefault(f["stream"], []).append(f)
    return samples, frames


def series_of(samples, value_index, sub=0):
    """Groups stream samples into {series: [(index, value), ...]}."""
    out = {}
    for s in samples:
        if s.get("sub", 0) != sub:
            continue
        if value_index >= len(s.get("values", [])):
            continue
        out.setdefault(s["series"], []).append(
            (s["index"], s["values"][value_index]))
    return out


def labeled(groups, prefix):
    return [(f"{prefix} #{sid}", pts) for sid, pts in sorted(groups.items())]


def build(doc, title):
    samples, frames = by_stream(doc)
    cards = []

    place = samples.get("place.iter", [])
    if place:
        cards.append(line_plot("Placement HPWL",
                               labeled(series_of(place, 0), "placer"),
                               "HPWL (um) per iteration"))
        cards.append(line_plot("Placement density overflow",
                               labeled(series_of(place, 1), "placer"),
                               "overflow ratio per iteration"))
        cards.append(line_plot("Spreading displacement",
                               labeled(series_of(place, 3), "placer"),
                               "mean displacement (um) per iteration"))

    cg = samples.get("place.cg", [])
    if cg:
        # sub == -1 summaries: iterations-to-tolerance per outer iteration.
        cards.append(line_plot("CG iterations to tolerance",
                               labeled(series_of(cg, 0, sub=-1), "solve"),
                               "CG iterations per outer iteration"))
        # Residual trajectory of the last outer iteration of each series.
        resid = []
        for sid in sorted({s["series"] for s in cg}):
            rows = [s for s in cg if s["series"] == sid and s["sub"] >= 0]
            if not rows:
                continue
            last = max(r["index"] for r in rows)
            pts = [(r["sub"], r["values"][0]) for r in rows
                   if r["index"] == last]
            resid.append((f"solve #{sid} iter {last}", pts))
        cards.append(line_plot("CG residual (last outer iteration)", resid,
                               "relative residual per CG iteration",
                               logy=True))

    rounds = samples.get("route.round", [])
    if rounds:
        cards.append(line_plot(
            "Router rip-up rounds",
            [("overflowed edges", sorted(
                (s["index"], s["values"][0]) for s in rounds)),
             ("rerouted nets", sorted(
                 (s["index"], s["values"][1]) for s in rounds))],
            "count per round"))
    batches = samples.get("route.batch", [])
    if batches:
        cards.append(line_plot(
            "Initial routing overflow",
            [("overflowed edges", sorted(
                (s["values"][1], s["values"][2]) for s in batches))],
            "overflowed edges vs nets committed"))

    heat = frames.get("route.heatmap", [])
    if heat:
        cards.append(heatmap("Congestion heatmap (final)", heat[-1],
                             note=f"{len(heat)} snapshot(s) recorded"))

    slack = frames.get("sta.slack", [])
    if slack:
        cards.append(histogram("Endpoint slack distribution", slack[-1],
                               "slack (ps)"))
    levels = samples.get("sta.level", [])
    if levels:
        cards.append(line_plot(
            "STA level widths",
            labeled(series_of(levels, 0), "sweep"),
            "pins per topological level"))

    cl = samples.get("cluster.level", [])
    if cl:
        cards.append(line_plot("Cluster coarsening",
                               labeled(series_of(cl, 0), "clustering"),
                               "vertices per level"))
    sizes = frames.get("cluster.size", [])
    if sizes:
        cards.append(histogram("Cluster sizes", sizes[-1],
                               "cells per cluster"))
    vpr = samples.get("vpr.candidate", [])
    if vpr:
        best = [(s["index"], s["values"][0]) for s in vpr
                if len(s["values"]) >= 4 and s["values"][3] > 0.0]
        if best:
            cards.append(line_plot(
                "V-P&R winning shape cost",
                [("best total cost", sorted(best))],
                "cost vs eligible-cluster index"))

    cards = [c for c in cards if c]
    label = doc.get("label", "")
    head = (f"<h1>{html.escape(title or f'Flow dashboard: {label}')}</h1>"
            f'<div class="note">schema {html.escape(str(doc.get("schema")))}'
            f' · {len(doc.get("samples", []))} samples · '
            f'{len(doc.get("frames", []))} frames · '
            f'{doc.get("dropped", 0)} dropped</div>')
    if not cards:
        cards = ['<div class="card">No streams recorded — run with '
                 '<code>flow_cli --observe</code>.</div>']
    return (f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title or 'Flow dashboard')}</title>"
            f"<style>{CSS}</style></head><body>{head}"
            f'<div class="grid">{"".join(cards)}</div></body></html>')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("events", help="ppacd-observe-v1 JSON event stream")
    parser.add_argument("-o", "--output", default="dashboard.html",
                        help="output HTML path (default: %(default)s)")
    parser.add_argument("--title", default="", help="dashboard title")
    args = parser.parse_args()

    try:
        with open(args.events, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        print(f"flow_dashboard: cannot read events: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except json.JSONDecodeError as err:
        print(f"flow_dashboard: {args.events}: not valid JSON ({err})",
              file=sys.stderr)
        return EXIT_BAD_SCHEMA
    if isinstance(doc, dict) and "observe" in doc and "samples" not in doc:
        doc = doc["observe"]  # accept a full run report too
    if not isinstance(doc, dict) or doc.get("schema") != "ppacd-observe-v1":
        print(f"flow_dashboard: {args.events}: unexpected schema "
              f"{doc.get('schema') if isinstance(doc, dict) else doc!r} "
              "(want 'ppacd-observe-v1')", file=sys.stderr)
        return EXIT_BAD_SCHEMA

    html_text = build(doc, args.title)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(html_text)
    print(f"wrote {args.output}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""REPORT-SCALE: one self-contained HTML dashboard over the bench artifacts.

Renders ``BENCH_scale.json`` (or ``.jsonl``) and ``BENCH_service.json`` into
a single static HTML file with hand-rolled inline SVG — **stdlib only, no
JavaScript, no external fetches** (no ``<script>``, no stylesheet imports,
no remote fonts or images), so the file archives cleanly as a CI artifact
and renders identically offline years later.

Sections:

* **Waiting-time quantiles vs n** per algorithm (p50 solid, p99 dashed,
  log-log) from the telemetry cells' ``quantiles`` blocks.
* **Engine throughput trajectory** — events/s vs n for the open-cube sweep
  cells, the seed-commit baseline points with the ±40% machine-noise band
  the ROADMAP comparison protocol prescribes, and the same-sweep control
  ratio (``pr3-counters-control``) that makes overhead measurable without
  cross-day number comparisons.
* **Fairness heatmap** — Jain index per (algorithm, n) cell.
* **Per-run time series** — events/s and agenda depth over event time for
  the cells that carry a compact ``series`` block.
* **Trace waterfalls** — causal span timelines (wait/cs plus request and
  token hops) for rows that embed sampled ``traces`` blocks
  (``ScenarioSpec(telemetry={"trace_sample": ...})``).
* **Service benchmark** — the clean-vs-chaos cells of ``BENCH_service.json``
  with the reliability-layer counters.

Usage::

    PYTHONPATH=src python benchmarks/report_scale.py \
        --scale BENCH_scale.json --service BENCH_service.json \
        --out report_scale.html
"""

from __future__ import annotations

import argparse
import html
import json
import math
from typing import Any

# ----------------------------------------------------------------------
# Artifact loading
# ----------------------------------------------------------------------


def load_scale(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a bench-scale artifact: a ``.json`` document or ``.jsonl`` rows.

    Returns ``(meta, rows)`` — ``meta`` is empty for bare row streams.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".jsonl"):
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        return {}, rows
    document = json.loads(text)
    if isinstance(document, list):
        return {}, document
    rows = document.get("results", document.get("rows", []))
    meta = {k: v for k, v in document.items() if k not in ("results", "rows")}
    return meta, rows


def load_service(path: str | None) -> dict[str, Any] | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:
        return None


# ----------------------------------------------------------------------
# SVG primitives (hand-rolled; no external renderer)
# ----------------------------------------------------------------------

PALETTE = (
    "#2563eb",  # blue
    "#dc2626",  # red
    "#059669",  # green
    "#d97706",  # amber
    "#7c3aed",  # violet
    "#0891b2",  # cyan
    "#db2777",  # pink
    "#4d7c0f",  # olive
)

_MARGIN = {"left": 64, "right": 16, "top": 12, "bottom": 40}


def _fmt(value: float) -> str:
    """Compact tick/cell label: 16384 -> 16k, 215406.8 -> 215k."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.3g}M"
    if magnitude >= 1e3:
        return f"{value / 1e3:.3g}k"
    if magnitude >= 1:
        return f"{value:.3g}"
    return f"{value:.2g}"


class _Axis:
    """One chart axis: linear or log10 mapping from data to pixels."""

    def __init__(self, lo: float, hi: float, pixel_lo: float, pixel_hi: float, log: bool):
        self.log = log
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.pixel_lo, self.pixel_hi = pixel_lo, pixel_hi

    def __call__(self, value: float) -> float:
        v = math.log10(value) if self.log else value
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + frac * (self.pixel_hi - self.pixel_lo)

    def ticks(self) -> list[float]:
        if self.log:
            return [10.0**e for e in range(math.ceil(self.lo), math.floor(self.hi) + 1)]
        span = self.hi - self.lo
        if span <= 0:
            return [self.lo]
        step = 10 ** math.floor(math.log10(span / 4))
        for mult in (1, 2, 5, 10):
            if span / (step * mult) <= 6:
                step *= mult
                break
        first = math.ceil(self.lo / step) * step
        out = []
        tick = first
        while tick <= self.hi + 1e-9:
            out.append(tick)
            tick += step
        return out


def line_chart(
    series: list[dict[str, Any]],
    *,
    width: int = 680,
    height: int = 320,
    log_x: bool = False,
    log_y: bool = False,
    x_label: str = "",
    y_label: str = "",
    x_ticks: list[float] | None = None,
    bands: list[dict[str, Any]] | None = None,
    markers: list[dict[str, Any]] | None = None,
) -> str:
    """Render line series (plus optional shaded bands and point markers)."""
    xs = [x for s in series for x, _ in s["points"]]
    ys = [y for s in series for _, y in s["points"]]
    for band in bands or ():
        xs += [x for x, _ in band["low"]] + [x for x, _ in band["high"]]
        ys += [y for _, y in band["low"]] + [y for _, y in band["high"]]
    for mark in markers or ():
        xs.append(mark["x"])
        ys.append(mark["y"])
    if log_x:
        xs = [x for x in xs if x > 0]
    if log_y:
        ys = [y for y in ys if y > 0]
    if not xs or not ys:
        return "<p class='empty'>no data</p>"
    x_axis = _Axis(min(xs), max(xs), _MARGIN["left"], width - _MARGIN["right"], log_x)
    pad = 1.15 if not log_y else 1.0
    y_axis = _Axis(
        min(ys) / pad if log_y else min(0.0, min(ys)),
        max(ys) * pad,
        height - _MARGIN["bottom"],
        _MARGIN["top"],
        log_y,
    )
    parts = [f'<svg viewBox="0 0 {width} {height}" class="chart" role="img">']
    # Grid + axis labels.
    for tick in x_ticks if x_ticks is not None else x_axis.ticks():
        px = x_axis(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN["top"]}" x2="{px:.1f}"'
            f' y2="{height - _MARGIN["bottom"]}" class="grid"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - _MARGIN["bottom"] + 16}"'
            f' class="tick" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in y_axis.ticks():
        py = y_axis(tick)
        parts.append(
            f'<line x1="{_MARGIN["left"]}" y1="{py:.1f}" x2="{width - _MARGIN["right"]}"'
            f' y2="{py:.1f}" class="grid"/>'
        )
        parts.append(
            f'<text x="{_MARGIN["left"] - 6}" y="{py + 4:.1f}" class="tick"'
            f' text-anchor="end">{_fmt(tick)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(width + _MARGIN["left"]) / 2:.0f}" y="{height - 6}"'
            f' class="axis" text-anchor="middle">{html.escape(x_label)}</text>'
        )
    if y_label:
        mid_y = (height - _MARGIN["bottom"] + _MARGIN["top"]) / 2
        parts.append(
            f'<text x="14" y="{mid_y:.0f}" class="axis" text-anchor="middle"'
            f' transform="rotate(-90 14 {mid_y:.0f})">{html.escape(y_label)}</text>'
        )
    # Shaded bands (drawn under the lines).
    for band in bands or ():
        low = [(x, y) for x, y in band["low"] if not log_y or y > 0]
        high = [(x, y) for x, y in band["high"] if not log_y or y > 0]
        if len(low) < 2 or len(high) < 2:
            continue
        coords = [f"{x_axis(x):.1f},{y_axis(y):.1f}" for x, y in high]
        coords += [f"{x_axis(x):.1f},{y_axis(y):.1f}" for x, y in reversed(low)]
        parts.append(
            f'<polygon points="{" ".join(coords)}" fill="{band["color"]}"'
            f' opacity="0.18"/>'
        )
    for s in series:
        points = [(x, y) for x, y in s["points"] if not log_y or y > 0]
        if not points:
            continue
        coords = " ".join(f"{x_axis(x):.1f},{y_axis(y):.1f}" for x, y in points)
        dash = ' stroke-dasharray="6 4"' if s.get("dash") else ""
        if len(points) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{s["color"]}"'
                f' stroke-width="2"{dash}/>'
            )
        for x, y in points:
            parts.append(
                f'<circle cx="{x_axis(x):.1f}" cy="{y_axis(y):.1f}" r="3"'
                f' fill="{s["color"]}"><title>{html.escape(s["label"])}:'
                f" ({_fmt(x)}, {_fmt(y)})</title></circle>"
            )
    for mark in markers or ():
        px, py = x_axis(mark["x"]), y_axis(mark["y"])
        parts.append(
            f'<rect x="{px - 4:.1f}" y="{py - 4:.1f}" width="8" height="8"'
            f' fill="{mark["color"]}" transform="rotate(45 {px:.1f} {py:.1f})">'
            f'<title>{html.escape(mark["label"])}</title></rect>'
        )
    parts.append("</svg>")
    return "".join(parts)


def legend(entries: list[tuple[str, str, bool]]) -> str:
    """HTML legend: ``(label, color, dashed)`` swatches."""
    chips = []
    for label, color, dashed in entries:
        style = f"border-top:3px {'dashed' if dashed else 'solid'} {color};"
        chips.append(
            f'<span class="chip"><span class="swatch" style="{style}"></span>'
            f"{html.escape(label)}</span>"
        )
    return f'<div class="legend">{"".join(chips)}</div>'


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------


def _sweep_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The unlabeled poisson telemetry cells — the comparable sweep matrix."""
    return [
        r
        for r in rows
        if r.get("metrics_detail") == "telemetry"
        and not r.get("label")
        and str(r.get("workload", "")).startswith("poisson")
    ]


def section_waiting_quantiles(rows: list[dict[str, Any]]) -> str:
    by_algorithm: dict[str, list[dict[str, Any]]] = {}
    for row in _sweep_rows(rows):
        if row.get("quantiles", {}).get("waiting_time"):
            by_algorithm.setdefault(row["algorithm"], []).append(row)
    if not by_algorithm:
        return ""
    series, legend_entries = [], []
    sizes: set[float] = set()
    for index, (algorithm, cells) in enumerate(sorted(by_algorithm.items())):
        color = PALETTE[index % len(PALETTE)]
        cells.sort(key=lambda r: r["n"])
        sizes.update(float(c["n"]) for c in cells)
        for quantile, dashed in (("p50", False), ("p99", True)):
            points = [
                (float(c["n"]), float(c["quantiles"]["waiting_time"][quantile]))
                for c in cells
                if c["quantiles"]["waiting_time"].get(quantile)
            ]
            if points:
                series.append(
                    {"label": f"{algorithm} {quantile}", "color": color,
                     "points": points, "dash": dashed}
                )
        legend_entries.append((algorithm, color, False))
    chart = line_chart(
        series,
        log_x=True,
        log_y=True,
        x_label="n (nodes)",
        y_label="waiting time (sim s)",
        x_ticks=sorted(sizes),
    )
    return (
        "<section><h2>Waiting-time quantiles vs n</h2>"
        "<p>Per-algorithm p50 (solid) and p99 (dashed) from the telemetry "
        "cells' sketch quantiles; poisson workload, log-log.</p>"
        + chart
        + legend(legend_entries)
        + "</section>"
    )


def section_throughput(meta: dict[str, Any], rows: list[dict[str, Any]]) -> str:
    open_cube = [
        r for r in _sweep_rows(rows)
        if r["algorithm"] == "open-cube" and r.get("events_per_sec")
    ]
    open_cube.sort(key=lambda r: r["n"])
    if not open_cube:
        return ""
    series = [
        {
            "label": "open-cube telemetry",
            "color": PALETTE[0],
            "points": [(float(r["n"]), float(r["events_per_sec"])) for r in open_cube],
        }
    ]
    legend_entries = [("open-cube telemetry", PALETTE[0], False)]
    markers: list[dict[str, Any]] = []
    for row in rows:
        if row.get("label") == "pr3-counters-control" and row.get("events_per_sec"):
            markers.append(
                {
                    "x": float(row["n"]),
                    "y": float(row["events_per_sec"]),
                    "color": "#64748b",
                    "label": f"{row['label']} (n={row['n']})",
                }
            )
    bands = []
    baseline = (meta.get("baseline") or {}).get("remeasured_best_of_5") or (
        meta.get("baseline") or {}
    ).get("events_per_sec")
    if baseline:
        points = sorted((float(n), float(v)) for n, v in baseline.items())
        if len(points) >= 2:
            # The ROADMAP comparison protocol: absolute events/s drifts up to
            # ±40% with machine load, so the band — not the line — is the
            # honest envelope for the seed-commit baseline.
            bands.append(
                {
                    "low": [(x, 0.6 * y) for x, y in points],
                    "high": [(x, 1.4 * y) for x, y in points],
                    "color": "#64748b",
                }
            )
            series.append(
                {"label": "seed baseline", "color": "#64748b", "points": points,
                 "dash": True}
            )
            legend_entries.append(("seed baseline ±40%", "#64748b", True))
    chart = line_chart(
        series,
        log_x=True,
        log_y=True,
        x_label="n (nodes)",
        y_label="events / s",
        x_ticks=sorted({x for s in series for x, _ in s["points"]}),
        bands=bands,
        markers=markers,
    )
    ratio_rows = []
    by_size = {r["n"]: r for r in open_cube}
    for row in rows:
        if row.get("label") == "pr3-counters-control" and row["n"] in by_size:
            telemetry = by_size[row["n"]]
            ratio_rows.append(
                (row["n"], "telemetry / counters-control",
                 telemetry["events_per_sec"] / row["events_per_sec"])
            )
    table = ""
    if ratio_rows:
        body = "".join(
            f"<tr><td>{n}</td><td>{html.escape(name)}</td><td>{ratio:.2f}×</td></tr>"
            for n, name, ratio in ratio_rows
        )
        table = (
            "<p>Same-sweep control ratios (both cells measured in one sweep, "
            "so machine noise cancels):</p>"
            "<table><tr><th>n</th><th>ratio</th><th>value</th></tr>"
            + body
            + "</table>"
        )
    return (
        "<section><h2>Engine throughput trajectory</h2>"
        "<p>Events/s vs n; the shaded band is the seed-commit baseline "
        "±40% (machine-noise envelope), diamonds are control cells.</p>"
        + chart
        + legend(legend_entries)
        + table
        + "</section>"
    )


def _jain_color(value: float) -> str:
    """White→green ramp for the fairness heatmap (1.0 = perfectly fair)."""
    clamped = max(0.0, min(1.0, value))
    hue_green = int(120 + 120 * clamped)
    other = int(235 - 120 * clamped)
    return f"rgb({other},{min(hue_green, 235)},{other})"


def section_fairness(rows: list[dict[str, Any]]) -> str:
    cells: dict[tuple[str, int], float] = {}
    for row in rows:
        jain = row.get("jain_index")
        if jain is None:
            jain = (row.get("fairness") or {}).get("jain_index")
        if jain is None or row.get("label"):
            continue
        cells[(row["algorithm"], int(row["n"]))] = float(jain)
    if not cells:
        return ""
    algorithms = sorted({a for a, _ in cells})
    sizes = sorted({n for _, n in cells})
    header = "".join(f"<th>n={n}</th>" for n in sizes)
    body = []
    for algorithm in algorithms:
        tds = []
        for n in sizes:
            value = cells.get((algorithm, n))
            if value is None:
                tds.append("<td class='empty'>—</td>")
            else:
                tds.append(
                    f'<td style="background:{_jain_color(value)}">{value:.3f}</td>'
                )
        body.append(f"<tr><td>{html.escape(algorithm)}</td>{''.join(tds)}</tr>")
    return (
        "<section><h2>Fairness heatmap (Jain index)</h2>"
        "<p>Jain fairness index over per-node grant counts; 1.0 is perfectly "
        "even, 1/n is one node hogging every grant.  Poisson sweep cells "
        "only (the hotspot cells are <em>designed</em> to be unfair).</p>"
        f"<table class='heatmap'><tr><th>algorithm</th>{header}</tr>"
        + "".join(body)
        + "</table></section>"
    )


def section_series(rows: list[dict[str, Any]]) -> str:
    charts = []
    for row in rows:
        series_block = row.get("series")
        if not series_block or not series_block.get("samples"):
            continue
        columns = series_block["columns"]
        samples = series_block["samples"]
        index = {name: i for i, name in enumerate(columns)}
        t_i = index.get("t")
        if t_i is None:
            continue
        chart_series = []
        for column, color in (("events_per_sec", PALETTE[0]), ("agenda", PALETTE[3])):
            c_i = index.get(column)
            if c_i is None:
                continue
            points = [
                (float(s[t_i]), float(s[c_i]))
                for s in samples
                if s[t_i] is not None and s[c_i] is not None
            ]
            if points:
                chart_series.append({"label": column, "color": color, "points": points})
        if not chart_series:
            continue
        title = f"{row.get('algorithm', '?')} n={row.get('n', '?')}"
        if row.get("label"):
            title += f" [{row['label']}]"
        charts.append(
            f"<h3>{html.escape(title)}</h3>"
            + line_chart(
                chart_series,
                height=220,
                log_y=True,
                x_label="event time (sim s)",
                y_label="events/s · agenda",
            )
            + legend([(s["label"], s["color"], False) for s in chart_series])
        )
    if not charts:
        return ""
    return (
        "<section><h2>Per-run time series</h2>"
        "<p>Engine throughput and agenda depth over event time for the "
        "cells that stream a compact series block.</p>"
        + "".join(charts)
        + "</section>"
    )


_HOP_COLORS = {"request": PALETTE[0], "token": PALETTE[3]}


def trace_waterfall(trace: dict[str, Any], *, width: int = 680) -> str:
    """One trace's span timeline as an SVG waterfall."""
    issued = float(trace["issued_at"])
    granted = trace.get("granted_at")
    exited = trace.get("exited_at")
    times = [issued]
    for key in ("granted_at", "exited_at", "failed_at", "open_at_end"):
        if trace.get(key) is not None:
            times.append(float(trace[key]))
    hops = trace.get("hops", [])
    for hop in hops:
        times.append(float(hop["sent_at"]))
        for key in ("delivered_at", "dropped_at"):
            if hop.get(key) is not None:
                times.append(float(hop[key]))
    t0, t1 = min(times), max(times)
    if t1 <= t0:
        t1 = t0 + 1e-9
    left, right, row_h = 150, 8, 18
    lanes = 2 + len(hops)
    height = lanes * row_h + 24
    x = _Axis(t0, t1, left, width - right, log=False)
    parts = [f'<svg viewBox="0 0 {width} {height}" class="waterfall" role="img">']

    def bar(lane: int, start: float, end: float, color: str, label: str, text: str):
        px0, px1 = x(start), x(end)
        parts.append(
            f'<rect x="{px0:.1f}" y="{lane * row_h + 3}"'
            f' width="{max(px1 - px0, 1.5):.1f}" height="{row_h - 6}"'
            f' fill="{color}" rx="2"><title>{html.escape(label)}</title></rect>'
        )
        parts.append(
            f'<text x="4" y="{lane * row_h + row_h - 6}" class="lane">'
            f"{html.escape(text)}</text>"
        )

    wait_end = float(granted) if granted is not None else t1
    bar(0, issued, wait_end,
        "#93c5fd", f"wait {issued:.3f}–{wait_end:.3f}",
        f"wait (node {trace.get('node', '?')})")
    if granted is not None:
        cs_end = float(exited) if exited is not None else t1
        bar(1, float(granted), cs_end,
            "#86efac", f"cs {granted:.3f}–{cs_end:.3f}", "critical section")
    for lane, hop in enumerate(hops, start=2):
        sent = float(hop["sent_at"])
        landed = hop.get("delivered_at")
        color = _HOP_COLORS.get(hop.get("category", ""), "#94a3b8")
        text = f"{hop.get('kind', '?')} {hop.get('from', '?')}→{hop.get('to', '?')}"
        if landed is not None:
            bar(lane, sent, float(landed), color, f"{text} [{sent:.3f}–{landed:.3f}]", text)
        else:
            fate = hop.get("dropped", "in flight")
            px = x(sent)
            parts.append(
                f'<rect x="{px - 3:.1f}" y="{lane * row_h + 5}" width="6" height="6"'
                f' fill="#dc2626" transform="rotate(45 {px:.1f} {lane * row_h + 8})">'
                f"<title>{html.escape(f'{text} ({fate})')}</title></rect>"
            )
            parts.append(
                f'<text x="4" y="{lane * row_h + row_h - 6}" class="lane">'
                f"{html.escape(f'{text} ✕')}</text>"
            )
    axis_y = lanes * row_h + 14
    parts.append(
        f'<text x="{left}" y="{axis_y}" class="tick">{t0:.3f}s</text>'
        f'<text x="{width - right}" y="{axis_y}" class="tick"'
        f' text-anchor="end">{t1:.3f}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def section_traces(rows: list[dict[str, Any]], *, max_traces: int = 8) -> str:
    blocks = []
    for row in rows:
        traces_block = row.get("traces")
        if not traces_block or not traces_block.get("traces"):
            continue
        title = (
            f"{row.get('algorithm', '?')} n={row.get('n', '?')} "
            f"seed={row.get('seed', '?')} (sample_rate="
            f"{traces_block.get('sample_rate')}, sampled="
            f"{traces_block.get('sampled')}, retained="
            f"{traces_block.get('retained')})"
        )
        rendered = []
        for trace in traces_block["traces"][:max_traces]:
            caption = (
                f"request {trace.get('request_id')} · node {trace.get('node')}"
                f" · trace {trace.get('trace_id', '?')}"
            )
            rendered.append(
                f"<h4>{html.escape(caption)}</h4>" + trace_waterfall(trace)
            )
        dropped = len(traces_block["traces"]) - max_traces
        if dropped > 0:
            rendered.append(f"<p class='empty'>… {dropped} more traces not shown</p>")
        blocks.append(f"<h3>{html.escape(title)}</h3>" + "".join(rendered))
    if not blocks:
        return (
            "<section><h2>Trace waterfalls</h2><p class='empty'>No embedded "
            "traces in this artifact — run a scenario with "
            "<code>telemetry={\"trace_sample\": ...}</code> to sample causal "
            "request journeys into the rows.</p></section>"
        )
    return (
        "<section><h2>Trace waterfalls</h2>"
        "<p>Sampled causal journeys: the wait and critical-section spans of "
        "each traced request, with its REQUEST-forwarding hops (blue) and "
        "token-transfer hops (amber); red diamonds are dropped or in-flight "
        "hops.</p>" + "".join(blocks) + "</section>"
    )


def section_service(document: dict[str, Any] | None) -> str:
    if not document or not document.get("rows"):
        return ""
    columns = (
        ("cell", "cell"), ("n", "n"), ("acquires", "acquires"),
        ("grants", "grants"), ("timeouts", "timeouts"),
        ("grants_per_s", "grants/s"), ("acquire_p50_s", "p50 (s)"),
        ("acquire_p99_s", "p99 (s)"), ("safety_violations", "violations"),
        ("tokens_regenerated", "regens"),
    )
    header = "".join(f"<th>{html.escape(label)}</th>" for _, label in columns)
    body = []
    for row in document["rows"]:
        tds = []
        for key, _label in columns:
            value = row.get(key)
            if isinstance(value, float):
                value = f"{value:.3g}"
            tds.append(f"<td>{html.escape(str(value))}</td>")
        reliability = row.get("reliability") or {}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(reliability.items()))
        body.append(
            f"<tr>{''.join(tds)}</tr>"
            f"<tr><td colspan='{len(columns)}' class='detail'>"
            f"{html.escape(detail)}</td></tr>"
        )
    return (
        "<section><h2>Service benchmark (clean vs chaos)</h2>"
        "<p>Real-TCP lock service cells from <code>BENCH_service.json</code>: "
        "the chaos cell runs the same workload under seeded loss, "
        "duplication, a partition window and a crash/restart.</p>"
        f"<table><tr>{header}</tr>{''.join(body)}</table></section>"
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 760px;
       color: #0f172a; padding: 0 1rem; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.2rem; margin-top: 2.2rem; }
h3 { font-size: 1rem; margin-bottom: 0.2rem; } h4 { font-size: 0.85rem;
     margin: 0.8rem 0 0.2rem; color: #334155; }
section { margin-bottom: 1.5rem; }
svg.chart, svg.waterfall { width: 100%; height: auto; background: #f8fafc;
     border: 1px solid #e2e8f0; border-radius: 4px; }
.grid { stroke: #e2e8f0; stroke-width: 1; }
.tick { font-size: 10px; fill: #64748b; }
.axis { font-size: 11px; fill: #334155; }
.lane { font-size: 9px; fill: #334155; }
.legend { margin: 0.3rem 0 0.8rem; }
.chip { margin-right: 1rem; font-size: 12px; color: #334155; }
.swatch { display: inline-block; width: 22px; margin-right: 4px;
          vertical-align: middle; }
table { border-collapse: collapse; margin: 0.5rem 0; font-size: 13px; }
th, td { border: 1px solid #cbd5e1; padding: 3px 8px; text-align: right; }
th { background: #f1f5f9; } td:first-child { text-align: left; }
td.detail { text-align: left; color: #64748b; font-size: 11px; }
.empty { color: #94a3b8; }
footer { margin-top: 2rem; font-size: 12px; color: #64748b;
         border-top: 1px solid #e2e8f0; padding-top: 0.6rem; }
code { background: #f1f5f9; padding: 0 3px; border-radius: 3px; }
"""


def render(
    meta: dict[str, Any],
    rows: list[dict[str, Any]],
    service: dict[str, Any] | None,
    *,
    scale_path: str,
    service_path: str | None,
) -> str:
    config = meta.get("config", {})
    summary_bits = []
    if meta.get("schema"):
        summary_bits.append(f"schema <code>{html.escape(str(meta['schema']))}</code>")
    if config.get("sizes"):
        summary_bits.append("sizes " + html.escape(str(config["sizes"])))
    if config.get("workload"):
        summary_bits.append("workload <code>" + html.escape(str(config["workload"])) + "</code>")
    summary_bits.append(f"{len(rows)} result rows")
    sections = [
        section_waiting_quantiles(rows),
        section_throughput(meta, rows),
        section_fairness(rows),
        section_series(rows),
        section_traces(rows),
        section_service(service),
    ]
    regen = (
        "PYTHONPATH=src python benchmarks/report_scale.py"
        f" --scale {scale_path}"
        + (f" --service {service_path}" if service_path else "")
        + " --out report_scale.html"
    )
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        "<title>Scale report — open-cube mutual exclusion</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Scale report — open-cube mutual exclusion</h1>"
        f"<p>{' · '.join(summary_bits)}</p>"
        + "".join(s for s in sections if s)
        + "<footer>Self-contained static report (no scripts, no external "
        "fetches).  Regenerate with <code>"
        + html.escape(regen)
        + "</code></footer></body></html>"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="BENCH_scale.json",
        help="bench-scale artifact (.json document or .jsonl row stream)",
    )
    parser.add_argument(
        "--service", default="BENCH_service.json",
        help="bench-service artifact (optional; skipped when missing)",
    )
    parser.add_argument("--out", default="report_scale.html", help="output HTML path")
    args = parser.parse_args(argv)
    meta, rows = load_scale(args.scale)
    service = load_service(args.service)
    document = render(
        meta, rows, service,
        scale_path=args.scale,
        service_path=args.service if service is not None else None,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {args.out}: {len(document)} bytes, {len(rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

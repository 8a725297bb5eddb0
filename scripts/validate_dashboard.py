#!/usr/bin/env python3
"""Validate a single-file run dashboard (report/dashboard.h output).

Structural checks — no browser needed:

  - the file is non-empty UTF-8 HTML with the run header
  - it is fully self-contained: no external stylesheet/script/image
    references (every href/src is either absent or an in-page anchor)
  - every inline <svg> block parses as well-formed XML
  - at least 3 SVG panels (tier timelines, VLRT strip, histogram)
  - the required sections are present: per-tier panels, VLRT windows,
    latency histogram, correlation engine verdict, registry counters
  - the correlation verdict names one of the three propagation classes
  - every <h1>, <h3> and <tr> element closes on the line that opens it
    (the render writes each one whole; a piece cut short leaves it open)
  - incident surface consistency: a dashboard that carries the obs
    incident table must also carry the fire-time markers and a
    machine-readable incident-data island that parses as JSON with the
    documented fields (and vice versa — the three appear together or
    not at all, the conditional-block byte-identity contract)

Usage: scripts/validate_dashboard.py [--expect-incidents] FILE.dashboard.html [...]
  --expect-incidents   additionally fail any file WITHOUT an incident
                       section (CI uses this on a run known to fire)
Exit status: 0 when every file validates, 1 otherwise.
"""

import json
import re
import sys
import xml.etree.ElementTree as ET

REQUIRED = [
    "<h1>ntier-ctqo run:",
    "<h3>VLRT windows",
    "<h3>Latency histogram",
    "<h3>Correlation engine</h3>",
    "queue-depth propagation:",
    "Registry counters",
]

# Elements the render writes whole, one line each.
ONE_LINE_ELEMENTS = ("h1", "h3", "tr")

EXTERNAL_REF = re.compile(r"""(?:href|src)\s*=\s*['"](?!#)[^'"]+['"]""", re.I)

INCIDENT_ISLAND = re.compile(
    r'<script type="application/json" id="incident-data">(.*?)</script>', re.S)
INCIDENT_FIELDS = ("detector", "series", "kind", "severity", "fired_s",
                   "cleared_s", "value_at_fire", "stat_at_fire", "peak_value")


def validate_incidents(path: str, html: str, errors: list,
                       expect_incidents: bool) -> None:
    """The incident table, SVG markers, and JSON island come as one unit."""
    island = INCIDENT_ISLAND.search(html)
    has_table = "<h3>Incidents (" in html
    has_markers = "class='incident'" in html
    if expect_incidents and island is None:
        errors.append(f"{path}: --expect-incidents but no incident-data island")
    if island is None and not has_table and not has_markers:
        return  # incident-free dashboard: the whole section is absent
    if island is None or not has_table or not has_markers:
        errors.append(f"{path}: partial incident section (island={island is not None} "
                      f"table={has_table} markers={has_markers})")
    if island is None:
        return
    try:
        incidents = json.loads(island.group(1))
    except ValueError as e:
        errors.append(f"{path}: incident-data island is not valid JSON: {e}")
        return
    if not isinstance(incidents, list) or not incidents:
        errors.append(f"{path}: incident-data island is not a non-empty list")
        return
    for i, inc in enumerate(incidents):
        missing = [k for k in INCIDENT_FIELDS if k not in inc]
        if missing:
            errors.append(f"{path}: incident[{i}] missing fields {missing}")


def validate(path: str, errors: list, expect_incidents: bool = False) -> None:
    before = len(errors)
    try:
        with open(path, encoding="utf-8") as f:
            html = f.read()
    except (OSError, UnicodeDecodeError) as e:
        errors.append(f"{path}: unreadable: {e}")
        return

    if not html.lstrip().lower().startswith("<!doctype html"):
        errors.append(f"{path}: missing <!doctype html> prologue")
    for token in REQUIRED:
        if token not in html:
            errors.append(f"{path}: missing required section {token!r}")
    if not re.search(r"\b(upstream|downstream|absent)\b", html):
        errors.append(f"{path}: no propagation verdict (upstream/downstream/absent)")
    for lineno, line in enumerate(html.split("\n"), 1):
        for tag in ONE_LINE_ELEMENTS:
            if line.count(f"<{tag}>") != line.count(f"</{tag}>"):
                errors.append(f"{path}:{lineno}: <{tag}> does not close on its line")
    for m in EXTERNAL_REF.finditer(html):
        errors.append(f"{path}: external reference breaks self-containment: {m.group(0)}")
    validate_incidents(path, html, errors, expect_incidents)

    svgs = re.findall(r"<svg\b.*?</svg>", html, re.S)
    if len(svgs) < 3:
        errors.append(f"{path}: only {len(svgs)} <svg> panels (expected >= 3)")
    for i, svg in enumerate(svgs):
        try:
            ET.fromstring(svg)
        except ET.ParseError as e:
            errors.append(f"{path}: svg[{i}] is not well-formed XML: {e}")

    if len(errors) == before:
        print(f"OK: {path}: {len(html)} bytes, {len(svgs)} SVG panels")


def main() -> int:
    argv = sys.argv[1:]
    expect_incidents = "--expect-incidents" in argv
    paths = [a for a in argv if a != "--expect-incidents"]
    if not paths:
        print(__doc__)
        return 2
    errors = []
    for path in paths:
        validate(path, errors, expect_incidents)
    for e in errors:
        print(f"INVALID: {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

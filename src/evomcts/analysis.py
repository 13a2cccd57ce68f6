"""Spatial histograms of where the search expanded nodes.

The raw material is a run's expansion log: one (iteration_index, centre)
pair per node added to the tree.  Iterations are cut into three tertiles
(earlier tertiles get the smaller share when the total is not divisible
by 3), centres fall into equal-width bins over [0, 1], and counts are
averaged across independent runs.  ``peak_mass`` then measures how much
expansion mass landed near a point of interest, e.g. around a known
optimum.

Exports: CSV (one row per tertile/bin), JSON (whole report), and a
3-column gnuplot data file (bin midpoint, tertile, mean count, with a
blank line between tertile blocks so gnuplot sees separate datasets).
The bytes of all three are a contract: ``tests/test_analysis.py``
compares them with the per-cell writers the module first shipped, and
pins the sha256 of every file of a small grid.  The writers read each
report once through ``tolist()``, so no cell goes through numpy, and
build each file as one string with the per-value work done in C: CSV
and gnuplot rows are joined from shared prefixes and ``repr``s, and the
JSON layout is ``json.dump(indent=2, sort_keys=True)``'s, with every
list of scalars sent through json's C encoder (which ``json.dump`` only
uses without ``indent``) by carrying the newline and indent in the item
separator.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "HistogramReport",
    "tertile_split",
    "bin_centres",
    "run_report",
    "aggregate",
    "peak_mass",
    "count_peaks",
    "visit_weighted_counts",
    "write_csv",
    "write_json",
    "write_plotdata",
]

TERTILE_COUNT = 3


@dataclass
class HistogramReport:
    """Per-tertile expansion counts, averaged over ``runs`` runs."""

    bins: int
    tertile_counts: np.ndarray
    runs: int
    config_id: str

    @property
    def edges(self) -> np.ndarray:
        """The ``bins + 1`` equal-width bin edges over [0, 1]."""
        return np.linspace(0.0, 1.0, self.bins + 1)

    def midpoints(self) -> np.ndarray:
        edges = self.edges
        return 0.5 * (edges[:-1] + edges[1:])


def tertile_split(log: list, total_iterations: int):
    """Split an expansion log's centres into three iteration tertiles.

    Boundaries are floor(T/3) and floor(2T/3), so e.g. T = 5000 splits
    1666/1667/1667 and any remainder lands in the later tertiles.
    """
    if total_iterations < 1:
        raise ValueError("total_iterations must be >= 1")
    first = total_iterations // 3
    second = (2 * total_iterations) // 3
    parts: tuple = ([], [], [])
    for iteration, x in log:
        if not 0 <= iteration < total_iterations:
            raise ValueError(f"iteration {iteration} outside [0, {total_iterations})")
        if iteration < first:
            parts[0].append(x)
        elif iteration < second:
            parts[1].append(x)
        else:
            parts[2].append(x)
    return parts


def bin_centres(centres, bins: int) -> np.ndarray:
    """Count centres into ``bins`` equal-width bins over [0, 1].

    A centre maps to floor(x * bins); x = 1.0 goes to the last bin.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arr = np.asarray(list(centres), dtype=float)
    if arr.size == 0:
        return np.zeros(bins, dtype=np.int64)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("centres outside [0, 1]")
    idx = np.minimum((arr * bins).astype(np.int64), bins - 1)
    return np.bincount(idx, minlength=bins)


def run_report(log: list, total_iterations: int, bins: int, config_id: str) -> HistogramReport:
    """Histogram report of a single run (runs = 1)."""
    parts = tertile_split(log, total_iterations)
    counts = np.stack([bin_centres(p, bins) for p in parts]).astype(float)
    return HistogramReport(bins=bins, tertile_counts=counts, runs=1, config_id=config_id)


def aggregate(reports: list) -> HistogramReport:
    """Run-count-weighted mean of reports with identical bin layout."""
    if not reports:
        raise ValueError("no reports to aggregate")
    head = reports[0]
    for r in reports[1:]:
        if r.bins != head.bins or r.config_id != head.config_id:
            raise ValueError("reports have mismatched bin configuration")
    total_runs = sum(r.runs for r in reports)
    summed = sum(r.tertile_counts * r.runs for r in reports)
    return HistogramReport(
        bins=head.bins,
        tertile_counts=summed / total_runs,
        runs=total_runs,
        config_id=head.config_id,
    )


def peak_mass(
    report: HistogramReport,
    centre: float,
    radius: float,
    tertile: int | None = None,
) -> float:
    """Mean count summed over bins whose midpoint lies in [c-r, c+r].

    ``tertile`` selects one tertile (0, 1 or 2); None sums all three.
    """
    mids = report.midpoints()
    mask = (mids >= centre - radius) & (mids <= centre + radius)
    if tertile is None:
        return float(report.tertile_counts[:, mask].sum())
    if not 0 <= tertile < TERTILE_COUNT:
        raise ValueError("tertile must be 0, 1 or 2")
    return float(report.tertile_counts[tertile, mask].sum())


def count_peaks(counts, rel_height: float = 0.1, min_separation: int = 5) -> list:
    """Indices of distinct local maxima above rel_height * max(counts).

    A peak is a bin that clears the height floor and is the maximum of
    its ``min_separation``-bin neighbourhood on both sides; plateaus of
    equal bins within a neighbourhood count once (leftmost).  Returns
    indices in increasing order.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if min_separation < 1:
        raise ValueError("min_separation must be >= 1")
    floor = rel_height * float(arr.max())
    peaks: list = []
    n = arr.size
    for i in range(n):
        v = arr[i]
        if v <= floor or v <= 0.0:
            continue
        lo = max(0, i - min_separation)
        hi = min(n, i + min_separation + 1)
        if v < arr[lo:hi].max():
            continue
        if peaks and i - peaks[-1] < min_separation:
            continue
        peaks.append(i)
    return peaks


def visit_weighted_counts(root, env, bins: int) -> np.ndarray:
    """Alternative view: bin every tree node's centre weighted by visits.

    No tertile structure (visits accumulate over the whole run); offered
    for exploration alongside the expansion-count histograms.
    """
    counts = np.zeros(bins, dtype=float)
    stack = [root]
    while stack:
        node = stack.pop()
        x = env.centre(node.state)
        idx = min(int(x * bins), bins - 1)
        counts[idx] += node.visits
        stack.extend(node.children)
    return counts


_CSV_FIELDS = (
    "config_id",
    "function",
    "policy",
    "c_or_evolved",
    "run_seed",
    "tertile",
    "bin_index",
    "bin_low",
    "bin_high",
    "mean_count",
)
_CSV_HEADER = ",".join(_CSV_FIELDS) + "\r\n"


def _count_rows(report: HistogramReport) -> list:
    # Python floats, one list per tertile, so no cell is read through numpy.
    return np.asarray(report.tertile_counts, dtype=float).tolist()


def write_csv(report: HistogramReport, path, meta: dict) -> None:
    """One row per (tertile, bin); ``meta`` supplies the run columns
    (function, policy, c_or_evolved, run_seed), which are quoted once
    since they repeat on every row.  The numeric columns need no quoting.
    """
    line = io.StringIO()
    csv.writer(line).writerow(
        [report.config_id, meta["function"], meta["policy"], meta["c_or_evolved"], meta["run_seed"]]
    )
    head = line.getvalue()[: -len("\r\n")]
    edges = list(map(repr, report.edges.tolist()))
    spans = [f",{i},{lo},{hi}," for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    text = "".join(
        "".join(map("".join, zip(repeat(f"{head},{t}"), spans, map(repr, counts), repeat("\r\n"))))
        for t, counts in enumerate(_count_rows(report))
    )
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER + text)


_JSON_CONTAINERS = (dict, list, tuple)


def _json_layout(value, pad: str) -> str:
    """``value`` laid out as ``json.dump(indent=2, sort_keys=True)`` lays
    it out when it starts at indent ``pad``.  A list holding no container
    goes through one C-encoder call whose item separator is a comma, a
    newline and the item indent.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(key)}: {_json_layout(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if any(issubclass(kind, _JSON_CONTAINERS) for kind in set(map(type, value))):
            items = [_json_layout(item, inner) for item in value]
        else:
            items = [json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]]
    else:
        return json.dumps(value)
    if not value:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def write_json(report: HistogramReport, path, meta: dict) -> None:
    """The report and ``meta`` as one JSON object, byte for byte as
    ``json.dump(payload, fh, indent=2, sort_keys=True)`` plus a newline
    writes it.  The number arrays go through json's C encoder, with the
    indent carried in the item separator (see ``_json_layout``).
    """
    payload = {
        "config_id": report.config_id,
        "bins": report.bins,
        "runs": report.runs,
        "edges": report.edges.tolist(),
        "tertile_counts": _count_rows(report),
        **meta,
    }
    text = _json_layout(payload, "")
    with open(path, "w") as fh:
        fh.write(f"{text}\n")


def write_plotdata(report: HistogramReport, path) -> None:
    """3 columns (bin_mid, tertile, mean_count), blank line per tertile."""
    prefixes = [f"{mid!r} " for mid in report.midpoints().tolist()]
    blocks = [
        "".join(map("".join, zip(prefixes, repeat(f"{t} "), map(repr, counts), repeat("\n"))))
        for t, counts in enumerate(_count_rows(report))
    ]
    with open(path, "w") as fh:
        fh.write("# bin_mid tertile mean_count\n" + "\n".join(blocks))

"""Spatial histograms of where the search expanded nodes.

The raw material is a run's expansion log: one (iteration_index, centre)
pair per node added to the tree.  Iterations are cut into three tertiles
(earlier tertiles get the smaller share when the total is not divisible
by 3), centres fall into equal-width bins over [0, 1], and counts are
averaged across independent runs.  ``peak_mass`` then measures how much
expansion mass landed near a point of interest, e.g. around a known
optimum.

Everything works on Python lists and dicts, without numpy.  The bin
edges and midpoints are numpy's ``linspace`` ones bit for bit, and
``aggregate`` gives the bits of numpy's ``sum(counts * runs) /
total_runs``.  A report holds its non-zero bins sparsely, so merging the
runs of a 2,500-bin configuration costs in proportion to the bins they
hit, not to the bins.

Exports: CSV (one row per tertile/bin), JSON (whole report), and a
3-column gnuplot data file (bin midpoint, tertile, mean count, with a
blank line between tertile blocks so gnuplot sees separate datasets).
The bytes of all three are a contract: ``tests/test_analysis.py``
compares them with the per-cell writers the module first shipped, and
pins the sha256 of every file of a small grid.  Their cost follows the
non-zero cells, since a short run expands few of many bins: a report
formats its counts once, as ``repr(float(count))`` for each cell and
one shared ``"0.0"`` for every other bin, and all three writers read
those strings.  The text that depends only on the bin count (edge
``repr``s, CSV spans, gnuplot prefixes, the JSON ``edges`` array) is
built once per bin count and cached.  Each tertile's rows are one
``str.join`` in C, with the row prefix carried in the separator.  The
JSON layout is ``json.dump(indent=2, sort_keys=True)``'s: the count
arrays are joined from the same strings, spelling non-finite counts
as json does (``NaN``, ``Infinity``, ``-Infinity``), and the rest of
the payload sends every list of scalars through json's C encoder
(which ``json.dump`` only uses without ``indent``) by carrying the
newline and indent in the item separator.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from collections import Counter
from operator import add

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


@functools.lru_cache(maxsize=4)
def _edges(bins: int) -> tuple:
    # np.linspace(0, 1, bins + 1) bit for bit: i times the step, then 1.0.
    step = 1.0 / bins
    return (*[i * step for i in range(bins)], 1.0)


@functools.lru_cache(maxsize=4)
def _midpoints(bins: int) -> tuple:
    edges = _edges(bins)
    return tuple([0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])])


class HistogramReport:
    """Per-tertile expansion counts, averaged over ``runs`` runs.

    ``cells`` holds the counts sparsely: one {bin index: mean count}
    dict per tertile, holding every non-zero bin, so that ``aggregate``
    costs in proportion to the bins the runs hit; bins outside ``cells``
    count 0.  ``tertile_counts``, three lists of ``bins`` mean counts as
    floats, and ``count_strings``, their ``repr``s as the writers print
    them, are built from the cells when they are first read.
    """

    def __init__(self, bins: int, cells, runs: int, config_id: str):
        self.bins, self.runs, self.config_id = bins, runs, config_id
        self.cells = tuple(cells)

    def _rows(self, fill, convert) -> list:
        rows = []
        for cells in self.cells:
            row = [fill] * self.bins
            for i, count in cells.items():
                row[i] = convert(count)
            rows.append(row)
        return rows

    @functools.cached_property
    def tertile_counts(self) -> list:
        return self._rows(0.0, float)

    @functools.cached_property
    def count_strings(self) -> list:
        """``repr(float(count))`` of every bin, one list per tertile; the
        bins outside ``cells`` share one ``"0.0"``."""
        return self._rows("0.0", lambda count: repr(float(count)))

    @property
    def edges(self) -> list:
        """The ``bins + 1`` equal-width bin edges over [0, 1]."""
        return list(_edges(self.bins))

    def midpoints(self) -> list:
        return list(_midpoints(self.bins))


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


def _bin_indices(centres, bins: int) -> list:
    """The bin of each centre: floor(x * bins), with x = 1.0 in the last."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    last = bins - 1
    indices = []
    for x in centres:
        # Written so that NaN, which fails every comparison, is rejected too.
        if not 0.0 <= x <= 1.0:
            raise ValueError("centres outside [0, 1]")
        i = int(x * bins)
        indices.append(i if i < bins else last)
    return indices


def bin_centres(centres, bins: int) -> list:
    """Count centres into ``bins`` equal-width bins over [0, 1].

    A centre maps to floor(x * bins); x = 1.0 goes to the last bin.
    """
    counts = [0] * bins
    for i in _bin_indices(centres, bins):
        counts[i] += 1
    return counts


def run_report(log: list, total_iterations: int, bins: int, config_id: str) -> HistogramReport:
    """Histogram report of a single run (runs = 1)."""
    cells = [Counter(_bin_indices(part, bins)) for part in tertile_split(log, total_iterations)]
    return HistogramReport(bins, cells, 1, config_id)


def aggregate(reports: list) -> HistogramReport:
    """Run-count-weighted mean of reports with identical bin layout.

    Bit for bit numpy's ``sum(r.tertile_counts * r.runs for r in
    reports) / total_runs``: each bin sums in report order, starting
    from 0, and a zero term would leave its sum unchanged, so only each
    report's cells are added.  A run's counts are integers, and so are
    their sums, which are then exact.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    head = reports[0]
    for r in reports[1:]:
        if r.bins != head.bins or r.config_id != head.config_id:
            raise ValueError("reports have mismatched bin configuration")
    total_runs = sum(r.runs for r in reports)
    sums: tuple = tuple({} for _ in range(TERTILE_COUNT))
    for r in reports:
        runs = r.runs
        for acc, cells in zip(sums, r.cells):
            get = acc.get
            for i, count in cells.items():
                acc[i] = get(i, 0) + count * runs
    means = [{i: total / total_runs for i, total in acc.items()} for acc in sums]
    return HistogramReport(head.bins, means, total_runs, head.config_id)


def peak_mass(
    report: HistogramReport,
    centre: float,
    radius: float,
    tertile: int | None = None,
) -> float:
    """Mean count summed over bins whose midpoint lies in [c-r, c+r].

    ``tertile`` selects one tertile (0, 1 or 2); None sums all three.
    """
    if tertile is None:
        rows = report.tertile_counts
    elif 0 <= tertile < TERTILE_COUNT:
        rows = [report.tertile_counts[tertile]]
    else:
        raise ValueError("tertile must be 0, 1 or 2")
    lo, hi = centre - radius, centre + radius
    window = [i for i, mid in enumerate(report.midpoints()) if lo <= mid <= hi]
    return math.fsum(row[i] for row in rows for i in window)


def count_peaks(counts, rel_height: float = 0.1, min_separation: int = 5) -> list:
    """Indices of distinct local maxima above rel_height * max(counts).

    A peak is a bin that clears the height floor and is the maximum of
    its ``min_separation``-bin neighbourhood on both sides; plateaus of
    equal bins within a neighbourhood count once (leftmost).  Returns
    indices in increasing order.
    """
    try:
        arr = [float(v) for v in counts]
    except TypeError:
        raise ValueError("counts must be a non-empty sequence of numbers") from None
    if not arr:
        raise ValueError("counts must be a non-empty sequence of numbers")
    if min_separation < 1:
        raise ValueError("min_separation must be >= 1")
    floor = rel_height * max(arr)
    peaks: list = []
    n = len(arr)
    for i, v in enumerate(arr):
        if v <= floor or v <= 0.0:
            continue
        lo = max(0, i - min_separation)
        hi = min(n, i + min_separation + 1)
        if v < max(arr[lo:hi]):
            continue
        if peaks and i - peaks[-1] < min_separation:
            continue
        peaks.append(i)
    return peaks


def visit_weighted_counts(root, env, bins: int) -> list:
    """Alternative view: bin every tree node's centre weighted by visits.

    No tertile structure (visits accumulate over the whole run); offered
    for exploration alongside the expansion-count histograms.  The
    counts are integers, so sums of them are exact.
    """
    counts = [0] * bins
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


@functools.lru_cache(maxsize=4)
def _csv_spans(bins: int) -> tuple:
    """Each bin's ``,{index},{low},{high},`` columns of a CSV row."""
    edges = list(map(repr, _edges(bins)))
    return tuple([f",{i},{lo},{hi}," for i, (lo, hi) in enumerate(zip(edges, edges[1:]))])


@functools.lru_cache(maxsize=4)
def _json_edges(bins: int) -> str:
    """The ``edges`` array as ``write_json`` lays it out."""
    return "[\n    " + ",\n    ".join(map(repr, _edges(bins))) + "\n  ]"


@functools.lru_cache(maxsize=4)
def _plot_prefixes(bins: int) -> tuple:
    """Each tertile's ``"{midpoint} {tertile} "`` row prefixes."""
    mids = list(map(repr, _midpoints(bins)))
    return tuple(tuple([f"{mid} {t} " for mid in mids]) for t in range(TERTILE_COUNT))


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
    spans = _csv_spans(report.bins)
    text = "".join(
        f"{head},{t}" + f"\r\n{head},{t}".join(map(add, spans, strings)) + "\r\n"
        for t, strings in enumerate(report.count_strings)
    )
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER + text)


class _Laid(str):
    """JSON text already laid out for its place in the payload."""


# A list holding laid-out text is laid out item by item, like one
# holding containers.
_JSON_CONTAINERS = (dict, list, tuple, _Laid)


def _json_layout(value, pad: str) -> str:
    """``value`` laid out as ``json.dump(indent=2, sort_keys=True)`` lays
    it out when it starts at indent ``pad``.  A list holding no container
    goes through one C-encoder call whose item separator is a comma, a
    newline and the item indent.
    """
    if isinstance(value, _Laid):
        return value
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


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(report: HistogramReport, path, meta: dict) -> None:
    """The report and ``meta`` as one JSON object, byte for byte as
    ``json.dump(payload, fh, indent=2, sort_keys=True)`` plus a newline
    writes it.  The ``edges`` and ``tertile_counts`` arrays are joined
    from the cached edge text and the report's count strings; the rest
    goes through ``_json_layout``.
    """
    rows = []
    for cells, strings in zip(report.cells, report.count_strings):
        if not all(map(math.isfinite, cells.values())):
            strings = [_JSON_NON_FINITE.get(s, s) for s in strings]
        rows.append(_Laid("[\n      " + ",\n      ".join(strings) + "\n    ]"))
    payload = {
        "config_id": report.config_id,
        "bins": report.bins,
        "runs": report.runs,
        "edges": _Laid(_json_edges(report.bins)),
        "tertile_counts": rows,
        **meta,
    }
    text = _json_layout(payload, "")
    with open(path, "w") as fh:
        fh.write(f"{text}\n")


def write_plotdata(report: HistogramReport, path) -> None:
    """3 columns (bin_mid, tertile, mean_count), blank line per tertile."""
    blocks = [
        "\n".join(map(add, prefixes, strings)) + "\n"
        for prefixes, strings in zip(_plot_prefixes(report.bins), report.count_strings)
    ]
    with open(path, "w") as fh:
        fh.write("# bin_mid tertile mean_count\n" + "\n".join(blocks))

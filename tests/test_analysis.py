"""Histogram-analysis tests: tertile splitting, binning, cross-run
aggregation, peak measurements, and the export formats."""

import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import report_from_rows
from evomcts.analysis import (
    HistogramReport,
    aggregate,
    count_peaks,
    peak_mass,
    run_report,
    tertile_split,
    visit_weighted_counts,
    write_csv,
    write_json,
    write_plotdata,
)
from evomcts.bench import FunctionEnv, IntervalState
from evomcts.cli import main
from evomcts.mcts import SearchNode


def _fake_log(indices_and_centres):
    return list(indices_and_centres)


class TestTertileSplit:
    def test_boundaries_for_5000(self):
        log = [(i, 0.5) for i in range(5000)]
        parts = tertile_split(log, 5000)
        assert [len(p) for p in parts] == [1666, 1667, 1667]

    def test_edge_indices_land_where_expected(self):
        log = [(1665, 0.1), (1666, 0.2), (3332, 0.3), (3333, 0.4), (4999, 0.5)]
        parts = tertile_split(log, 5000)
        assert parts[0] == [0.1]
        assert parts[1] == [0.2, 0.3]
        assert parts[2] == [0.4, 0.5]

    def test_empty_log(self):
        assert tertile_split([], 5000) == ([], [], [])

    def test_first_third_only(self):
        log = [(i, 0.9) for i in range(100)]
        parts = tertile_split(log, 5000)
        assert len(parts[0]) == 100 and not parts[1] and not parts[2]

    def test_remainder_goes_to_later_tertiles(self):
        log = [(i, 0.5) for i in range(7)]
        parts = tertile_split(log, 7)
        assert [len(p) for p in parts] == [2, 2, 3]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            tertile_split([(5000, 0.5)], 5000)
        with pytest.raises(ValueError):
            tertile_split([(-1, 0.5)], 5000)
        with pytest.raises(ValueError):
            tertile_split([], 0)


def _binned(centres, bins):
    """The counts ``run_report`` bins ``centres`` into, all logged in the
    first tertile."""
    report = run_report([(0, x) for x in centres], 3, bins, "cfg")
    assert report.tertile_counts[1:] == [[0.0] * bins] * 2
    return report.tertile_counts[0]


class TestBinCentres:
    """How ``run_report`` bins centres: floor(x * bins), x = 1.0 in the
    last bin."""

    def test_single_centre(self):
        counts = _binned([0.5], 100)
        assert counts[50] == 1
        assert sum(counts) == 1

    def test_edge_values(self):
        counts = _binned([0.0, 1.0], 100)
        assert counts[0] == 1 and counts[99] == 1

    def test_uniform_terminal_grid(self):
        ks = np.arange(2**17)
        centres = (2 * ks + 1) / 2.0**18
        counts = _binned(centres.tolist(), 100)
        assert sum(counts) == 2**17
        assert np.all(np.abs(np.asarray(counts) - 2**17 / 100) <= 1.0)

    def test_empty_input(self):
        assert _binned([], 10) == [0] * 10

    def test_single_bin(self):
        assert _binned([0.0, 0.3, 1.0], 1) == [3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _binned([1.2], 10)
        with pytest.raises(ValueError):
            _binned([-0.1], 10)
        with pytest.raises(ValueError, match="centres outside"):
            _binned([0.3, float("nan")], 10)
        for log in ([(0, 0.5)], []):
            with pytest.raises(ValueError, match="bins must be >= 1"):
                run_report(log, 3, 0, "cfg")


class TestRunReportAndAggregate:
    def test_single_run_conservation(self):
        log = [(i, (i % 100) / 100 + 0.005) for i in range(600)]
        report = run_report(log, 600, 100, "cfg")
        assert report.runs == 1
        assert np.asarray(report.tertile_counts).shape == (3, 100)
        parts = tertile_split(log, 600)
        for t in range(3):
            assert sum(report.tertile_counts[t]) == len(parts[t])
        assert report.edges[0] == 0.0 and report.edges[-1] == 1.0
        assert np.all(np.diff(report.edges) > 0)

    def test_mean_of_two_runs(self):
        r1 = run_report([(0, 0.105)] * 4, 30, 10, "cfg")
        r2 = run_report([(0, 0.105)] * 6, 30, 10, "cfg")
        merged = aggregate([r1, r2])
        assert merged.runs == 2
        assert merged.tertile_counts[0][1] == 5.0

    def test_edges_after_aggregate(self):
        reports = [run_report([(i, 0.3)], 30, 7, "cfg") for i in range(3)]
        merged = aggregate([aggregate(reports[:2]), reports[2]])
        assert np.array_equal(merged.edges, np.linspace(0.0, 1.0, 7 + 1))

    def test_aggregate_identity(self):
        r = run_report([(3, 0.42)], 30, 10, "cfg")
        merged = aggregate([r])
        assert np.array_equal(merged.tertile_counts, r.tertile_counts)

    def test_permutation_invariant(self):
        rs = [
            run_report([(i, 0.5 + i / 100)], 30, 10, "cfg")
            for i in range(4)
        ]
        a = aggregate(rs).tertile_counts
        b = aggregate(rs[::-1]).tertile_counts
        assert np.array_equal(a, b)

    def test_weighted_nesting_matches_flat(self):
        rs = [
            run_report([(j, (j % 10) / 10 + 0.05) for j in range(20 + 5 * i)], 30, 10, "cfg")
            for i in range(3)
        ]
        nested = aggregate([aggregate(rs[:2]), rs[2]])
        flat = aggregate(rs)
        assert nested.runs == flat.runs == 3
        assert np.allclose(nested.tertile_counts, flat.tertile_counts)

    def test_total_count_conservation_across_runs(self):
        logs = [[(j, j / 40) for j in range(10 + i)] for i in range(5)]
        reports = [run_report(lg, 30, 10, "cfg") for lg in logs]
        merged = aggregate(reports)
        total = sum(len(lg) for lg in logs)
        assert np.sum(merged.tertile_counts) * merged.runs == pytest.approx(total)

    def test_mismatched_layout_rejected(self):
        r1 = run_report([(0, 0.5)], 30, 10, "cfg")
        r2 = run_report([(0, 0.5)], 30, 20, "cfg")
        r3 = run_report([(0, 0.5)], 30, 10, "other")
        with pytest.raises(ValueError):
            aggregate([r1, r2])
        with pytest.raises(ValueError):
            aggregate([r1, r3])
        with pytest.raises(ValueError):
            aggregate([])


def _numpy_aggregate(reports):
    """The numpy formula ``aggregate`` reproduces bit for bit."""
    total_runs = sum(r.runs for r in reports)
    return sum(np.asarray(r.tertile_counts, dtype=float) * r.runs for r in reports) / total_runs


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def _leaf_reports(draw, bins):
    """A run report from a log, or a mean report built from its
    non-zero cells, given directly or as dense rows."""
    runs = draw(st.integers(1, 30))
    if draw(st.booleans()):
        iterations = draw(st.integers(1, 60))
        centres = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
        log = draw(st.lists(st.tuples(st.integers(0, iterations - 1), centres), max_size=60))
        return run_report(log, iterations, bins, "cfg")
    cells = st.integers(0, 40) | st.sampled_from([0.0, 0.1, 1 / 3, 2.5e-300])
    rows = [[draw(cells) / runs for _ in range(bins)] for _ in range(3)]
    if draw(st.booleans()):
        cells = [{i: v for i, v in enumerate(row) if v} for row in rows]
        return HistogramReport(bins, cells, runs, "cfg")
    return report_from_rows(bins, rows, runs, "cfg")


class TestListHistograms:
    def test_edges_and_midpoints_are_numpys(self):
        for bins in range(1, 5001):
            report = HistogramReport(bins, ({}, {}, {}), 1, "cfg")
            edges = np.linspace(0.0, 1.0, bins + 1)
            assert np.array_equal(_bits(report.edges), edges.view(np.uint64)), bins
            mids = 0.5 * (edges[:-1] + edges[1:])
            assert np.array_equal(_bits(report.midpoints()), mids.view(np.uint64)), bins

    @pytest.mark.parametrize("tertiles", [0, 2, 4])
    def test_other_than_three_tertiles_rejected(self, tertiles):
        with pytest.raises(ValueError, match=f"got {tertiles}"):
            HistogramReport(10, [{0: 1.0}] * tertiles, 1, "cfg")

    def test_reports_hold_lists_of_floats(self):
        reports = [run_report([(0, 0.3), (5, 0.3), (29, 0.9)], 30, 10, "cfg")] * 2
        for report in (reports[0], aggregate(reports)):
            assert type(report.tertile_counts) is list
            for row in report.tertile_counts:
                assert type(row) is list and len(row) == 10
                assert {type(v) for v in row} == {float}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bins=st.integers(1, 40))
    def test_aggregate_is_numpys_weighted_mean(self, data, bins):
        # Nested as the CLI never nests them, with non-integer means and
        # runs > 1: each level equals numpy's sum(counts * runs) / total.
        leaves = data.draw(st.lists(_leaf_reports(bins), min_size=1, max_size=6))
        group = st.lists(st.sampled_from(leaves), min_size=1, max_size=4)
        groups = data.draw(st.lists(group, max_size=3))
        inner = [aggregate(g) for g in groups]
        for g, merged in zip(groups, inner):
            assert np.array_equal(_bits(merged.tertile_counts), _numpy_aggregate(g).view(np.uint64))
        outer = data.draw(st.permutations(inner + leaves))
        merged = aggregate(outer)
        assert merged.runs == sum(r.runs for r in outer)
        assert np.array_equal(_bits(merged.tertile_counts), _numpy_aggregate(outer).view(np.uint64))


class TestPeakMass:
    def _report(self):
        # 10 expansions at x=0.505 in each tertile window of a 30-
        # iteration run, plus 3 far away in the last tertile.
        log = (
            [(i, 0.505) for i in range(10)]
            + [(i, 0.505) for i in range(10, 20)]
            + [(i, 0.505) for i in range(20, 30 - 3)]
            + [(i, 0.905) for i in range(27, 30)]
        )
        return run_report(log, 30, 100, "cfg")

    def test_all_mass_inside_window(self):
        report = self._report()
        assert peak_mass(report, 0.5, 0.05) == pytest.approx(27.0)

    def test_window_outside_mass(self):
        report = self._report()
        assert peak_mass(report, 0.2, 0.05) == 0.0

    def test_full_domain_equals_total(self):
        report = self._report()
        assert peak_mass(report, 0.5, 0.5) == pytest.approx(30.0)

    def test_single_tertile_selection(self):
        report = self._report()
        assert peak_mass(report, 0.5, 0.05, tertile=0) == pytest.approx(10.0)
        assert peak_mass(report, 0.5, 0.05, tertile=2) == pytest.approx(7.0)
        assert peak_mass(report, 0.9, 0.02, tertile=2) == pytest.approx(3.0)

    def test_bad_tertile_rejected(self):
        with pytest.raises(ValueError):
            peak_mass(self._report(), 0.5, 0.05, tertile=3)


class TestCountPeaks:
    def test_separated_peaks(self):
        arr = np.zeros(100)
        arr[10] = 10.0
        arr[9] = 5.0  # flank of the same peak
        arr[40] = 8.0
        arr[41] = 8.0  # plateau neighbour, still one peak
        arr[47] = 7.0
        arr[80] = 0.5  # below the 10% floor
        assert count_peaks(arr) == [10, 40, 47]

    def test_floor_is_relative(self):
        arr = np.zeros(50)
        arr[5] = 100.0
        arr[30] = 15.0
        assert count_peaks(arr, rel_height=0.1) == [5, 30]
        assert count_peaks(arr, rel_height=0.2) == [5]

    def test_single_peak(self):
        arr = np.zeros(20)
        arr[7] = 1.0
        assert count_peaks(arr) == [7]

    def test_all_zero(self):
        assert count_peaks(np.zeros(10)) == []

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            count_peaks(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            count_peaks(np.zeros(10), min_separation=0)


class TestVisitWeighted:
    def test_handcrafted_tree(self):
        env = FunctionEnv("f1")
        root = SearchNode(IntervalState(0.0, 1.0))
        root.visits = 10
        child = SearchNode(IntervalState(0.0, 0.5))
        child.visits = 6
        root.children.append(child)
        counts = visit_weighted_counts(root, env, 2)
        assert counts == [6.0, 10.0]


class TestExports:
    META = {"function": "f1", "policy": "uct", "c_or_evolved": "0.5", "run_seed": 7}

    def _report(self):
        log = [(i, (i % 10) / 10 + 0.05) for i in range(60)]
        return run_report(log, 60, 10, "f1_uct_c0.5")

    def test_csv_layout(self, tmp_path):
        report = self._report()
        path = tmp_path / "out.csv"
        write_csv(report, path, self.META)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
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
        ]
        assert len(rows) == 1 + 3 * 10
        assert rows[1][0] == "f1_uct_c0.5"
        assert rows[1][1] == "f1"
        total = sum(float(r[9]) for r in rows[1:])
        assert total == pytest.approx(60.0)
        tertiles = {int(r[5]) for r in rows[1:]}
        assert tertiles == {0, 1, 2}

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "out.json"
        write_json(report, path, self.META)
        payload = json.loads(path.read_text())
        assert payload["config_id"] == "f1_uct_c0.5"
        assert payload["bins"] == 10
        assert payload["runs"] == 1
        assert payload["function"] == "f1"
        assert len(payload["edges"]) == 11
        counts = np.asarray(payload["tertile_counts"])
        assert counts.shape == (3, 10)
        assert counts.sum() == pytest.approx(60.0)
        # A report without tertiles cannot be built, so no writer sees one.
        with pytest.raises(ValueError, match="3 tertile dicts"):
            HistogramReport(10, (), 1, "cfg")

    def test_plotdata_layout(self, tmp_path):
        report = self._report()
        path = tmp_path / "out.dat"
        write_plotdata(report, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("#")
        data_lines = [ln for ln in lines[1:] if ln.strip()]
        assert len(data_lines) == 3 * 10
        assert text.count("\n\n") == 2  # one separator between tertile blocks
        first = data_lines[0].split()
        assert len(first) == 3
        assert float(first[0]) == pytest.approx(0.05)
        assert first[1] == "0"

    def test_exports_deterministic(self, tmp_path):
        # Each report goes through all three writers twice, so a writer
        # that changed the report's cached strings would show.
        odd = [{0: math.nan, 3: math.inf}, {1: -math.inf, 2: -0.0}, {9: 5e-324}]
        for name, report in (("plain", self._report()), ("odd", HistogramReport(10, odd, 1, "c"))):
            for i in range(2):
                write_csv(report, tmp_path / f"{name}{i}.csv", self.META)
                write_json(report, tmp_path / f"{name}{i}.json", self.META)
                write_plotdata(report, tmp_path / f"{name}{i}.dat")
            for ext in ("csv", "json", "dat"):
                first = (tmp_path / f"{name}0.{ext}").read_bytes()
                assert (tmp_path / f"{name}1.{ext}").read_bytes() == first, (name, ext)


# ----------------------------------------------------------------------
# Export bytes.  The writers' output is a contract: the functions below
# are the per-cell writers the module shipped before it converted each
# report with ``tolist()``, kept as the reference for every byte.
# ----------------------------------------------------------------------


def _reference_write_csv(report, path, meta):
    edges = report.edges
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            (
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
        )
        for t in range(3):
            for i in range(report.bins):
                writer.writerow(
                    [
                        report.config_id,
                        meta["function"],
                        meta["policy"],
                        meta["c_or_evolved"],
                        meta["run_seed"],
                        t,
                        i,
                        repr(float(edges[i])),
                        repr(float(edges[i + 1])),
                        repr(float(report.tertile_counts[t][i])),
                    ]
                )


def _reference_write_json(report, path, meta):
    payload = {
        "config_id": report.config_id,
        "bins": report.bins,
        "runs": report.runs,
        "edges": [float(e) for e in report.edges],
        "tertile_counts": [[float(c) for c in row] for row in report.tertile_counts],
        **meta,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reference_write_plotdata(report, path):
    mids = report.midpoints()
    blocks = []
    for t in range(3):
        rows = [
            f"{float(mids[i])!r} {t} {float(report.tertile_counts[t][i])!r}"
            for i in range(report.bins)
        ]
        blocks.append("\n".join(rows))
    with open(path, "w") as fh:
        fh.write("# bin_mid tertile mean_count\n")
        fh.write("\n\n".join(blocks))
        fh.write("\n")


def _assert_same_bytes(report, meta):
    writers = (
        ("csv", write_csv, _reference_write_csv, (meta,)),
        ("json", write_json, _reference_write_json, (meta,)),
        ("dat", write_plotdata, _reference_write_plotdata, ()),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for name, write, reference, extra in writers:
            got, want = Path(tmp, f"got.{name}"), Path(tmp, f"want.{name}")
            write(report, got, *extra)
            reference(report, want, *extra)
            assert got.read_bytes() == want.read_bytes(), name


# Text that csv.writer must quote (delimiter, quote, line breaks) or that
# sits at its edges (empty, leading space).
_AWKWARD = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " lead", "plain"]


# Counts json spells its own way, the signed zero and the smallest subnormal.
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5]


def _counts(rng, bins, runs, kind):
    raw = rng.integers(0, 40, size=(3, bins))
    raw[rng.random((3, bins)) < 0.4] = 0
    if kind == "int":
        return raw
    if kind == "mean":
        return raw / runs
    if kind == "special":
        return np.where(raw > 0, rng.choice(_SPECIAL, size=(3, bins)), 0.0)
    return raw * rng.random((3, bins)) * 10.0 ** rng.integers(-300, 300, size=(3, bins))


class TestExportBytes:
    @settings(max_examples=60, deadline=None)
    @given(
        bins=st.integers(1, 300),
        runs=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["mean", "int", "wide", "special"]),
        config_id=st.sampled_from(_AWKWARD + ["f1_uct_c0.5"]),
        text=st.text(alphabet=',"\n\r ab\u00e9', max_size=6),
        c_or_evolved=st.one_of(
            st.just("evolved"), st.floats(allow_nan=False, allow_infinity=False), st.integers()
        ),
        run_seed=st.integers(-(2**70), 2**70),
        visit=st.booleans(),
    )
    def test_writers_match_the_per_cell_reference(
        self, bins, runs, seed, kind, config_id, text, c_or_evolved, run_seed, visit
    ):
        rng = np.random.default_rng(seed)
        report = report_from_rows(bins, _counts(rng, bins, runs, kind), runs, config_id)
        meta = {"function": text, "policy": "uct", "c_or_evolved": c_or_evolved}
        meta["run_seed"] = run_seed
        if visit:
            meta["visit_weighted_mean"] = (rng.random(bins) * 50).tolist()
        _assert_same_bytes(report, meta)

    def test_layouts_rebuilt_after_the_cache_evicts_them(self):
        # More bin counts than the per-layout caches hold, some revisited
        # after eviction.
        meta = {"function": "f1", "policy": "uct", "c_or_evolved": 0.5, "run_seed": 7}
        log = [(i, (i % 10) / 10 + 0.05) for i in range(60)]
        for bins in (1, 7, 2500, 3, 7, 11, 1):
            _assert_same_bytes(run_report(log, 60, bins, "cfg"), meta)

    @pytest.mark.parametrize("text", _AWKWARD)
    def test_meta_strings_that_need_quoting(self, text):
        log = [(i, (i % 10) / 10 + 0.05) for i in range(60)]
        report = aggregate([run_report(log, 60, 10, text), run_report(log[:7], 60, 10, text)])
        for meta in (
            {"function": text, "policy": "uct", "c_or_evolved": 0.5, "run_seed": 7},
            {"function": "f2", "policy": text, "c_or_evolved": "evolved", "run_seed": 0},
            {"function": "f2", "policy": "siea", "c_or_evolved": text, "run_seed": 0},
        ):
            _assert_same_bytes(report, meta)

    @pytest.mark.parametrize(
        "extra",
        [
            {"visit_weighted_mean": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308]},
            {"visit_weighted_mean": []},
            {"empty": [], "nested": [[], [1.5, -0.0], [[2, [3]], "x"], [math.nan]]},
            {"mixed": [1, [2.5, None], True, "t\u00e9xt", {"b": [1e-7], "a": {}}]},
            {"text": "caf\u00e9 \u2603 \U0001f600 tab\t nul\x00 bell\x07 del\x7f \"q\" \\"},
            {"caf\u00e9 \u2603 \n\x01": ["\u00e9", "\x1f", "\U0001f600"]},
            {"run_seed": 2**64 + 1, "big": [2**64, -(2**100), 10**40]},
        ],
        ids=["non-finite", "empty-list", "list-of-lists", "mixed", "escapes", "key-escapes", "ints"],
    )
    @pytest.mark.parametrize("bins", [1, 7])
    def test_json_meta_values_the_layout_handles(self, extra, bins):
        # The JSON writer lays out dicts and lists itself and sends scalar
        # lists through the C encoder; json.dump(indent=2) is the reference.
        log = [(i, (i % 10) / 10 + 0.05) for i in range(60)]
        report = aggregate([run_report(log, 60, bins, "cfg"), run_report(log[:7], 60, bins, "cfg")])
        meta = {"function": "f1", "policy": "uct", "c_or_evolved": -0.0, "run_seed": 3, **extra}
        _assert_same_bytes(report, meta)


# sha256 of every file the grid below writes, computed before the writers
# read each report through ``tolist()``.  The log entries were re-pinned
# when the run header gained ``ea`` and ``visit_bins``; without those two
# keys each log equals the one pinned before.
GRID_SHA256 = {
    "f1_siea.csv": "c2267d5692876c717511a087ff3e25007bb7b25c1b526513e8bdd816171e46af",
    "f1_siea.dat": "c88767f6384ea1ff726c1fafd08886b9574ce3690935e77cdd2d6c9674b56f85",
    "f1_siea.json": "d658fd2940e6405b071fbabc4a4fbb3a8b996d015eb0f9eb9dc7a129b6c5419b",
    "f1_uct_c0.5.csv": "98ea49fe34a889b09730cfb138d0b222face588b4822e861dd3870cdbab8437d",
    "f1_uct_c0.5.dat": "d0dff6bee9f7f1dadaee208512ade6c46d38c8a950874c25670927db98ceff8d",
    "f1_uct_c0.5.json": "4aaf79fd30ba18cd6865d414e37ca0ec0aa37d10eac267cb11634a59c820073a",
    "f1_uct_c1.41421.csv": "628a8be921a61bd6a49a057c0aa0b0f7c2d5e039486206cb545362f89892482a",
    "f1_uct_c1.41421.dat": "88fc418d3dcd495fa10a858e8d228d2bf45235aaa9ffda9caf1a7b263d209cfb",
    "f1_uct_c1.41421.json": "2118f4a29cf38a22224bb3425c3c25df637fc698f9f861c9b30a2e75830b4d0c",
    "f4_siea.csv": "059c214dca10a1088f95f9751bacf8a47e0d4f85574a118401f881c4db9a7010",
    "f4_siea.dat": "5f2daaf7deadf8caa65c4bad01e0cc474ab7ab98bb17bcfa65fae43d3ddee2f7",
    "f4_siea.json": "101770f7926493334e0b0f40cb3f811fac1c61f8756d5ad19ff7f15504568854",
    "f4_uct_c0.5.csv": "f743abd3c5f3f3f8ac28c5da93016fd0e53d2965f419ec07b4378948fb013377",
    "f4_uct_c0.5.dat": "10ab98253f46c0d0c2df415f36519f7dfd138fc99fd8aa098eb6671133cfcdbc",
    "f4_uct_c0.5.json": "73da4102e5de40afbcbeaac67cfb2b78323fa8bfdadd22e7b406c2ad9a10ac62",
    "f4_uct_c1.41421.csv": "f454c2e66828e9e645a6116b00f6562e6cf58e20f88cda9e7397e930e2a0bcc5",
    "f4_uct_c1.41421.dat": "db3dce46b6977d1da57d3a4c261b8eb57deb799d32f8cf645060f2d8f939b1df",
    "f4_uct_c1.41421.json": "42d5c30044daf9808191ba65f7f5344efcbdf79a0755cacf019d25ab43d45a09",
    "logs/f1_siea_run000.jsonl": "e5f0fe9df8996d739fe911c8fdb9a6fa58e2003128023f9676add1a26f4a0e94",
    "logs/f1_siea_run001.jsonl": "1a2e1fe6f2145aad4a3f4c309faea79f7d253a6996d74e859c48c23d44b39efa",
    "logs/f1_uct_c0.5_run000.jsonl": "290865c22c13985fe1d14956cdc9aed7f9ece7b7a4ae2c295b5f05a2823d2222",
    "logs/f1_uct_c0.5_run001.jsonl": "22ebe790ccb72dc2f1a4e886c2b7741898be732f4851ecc6a8e9d7f4f10b80fe",
    "logs/f1_uct_c1.41421_run000.jsonl": "2adcc85635a4b85b70135e1cc2f55f3d4549abc90956d4f40f335e70de7d6305",
    "logs/f1_uct_c1.41421_run001.jsonl": "0798cdbe09af840628f01e218703ca278555a51b94d17c2bf9d3e94f0afcac6a",
    "logs/f4_siea_run000.jsonl": "fa4c16e40c83914e7ba7b411927e180c7d8935d7d6792284b4fc8b7c8354d392",
    "logs/f4_siea_run001.jsonl": "0dc7a597a4d86f138f79bba25ad94c28ca9a44392b67b1789f1da02e7ac68f61",
    "logs/f4_uct_c0.5_run000.jsonl": "63b2e32455323d5c7f1df5016d622fa94e07c544be3315416aa57009d7014877",
    "logs/f4_uct_c0.5_run001.jsonl": "1621a253dff4e869692cbd5e922913b15e84766631747eebb48b816e57db330f",
    "logs/f4_uct_c1.41421_run000.jsonl": "2117247a4386487a8fc1dd5abdba0e97ec41e7ad47f99d713151fdbb1133576a",
    "logs/f4_uct_c1.41421_run001.jsonl": "c3aa90f53ed6e02a11ef9546bd8c568da8d32ff26c7756807fb3845007e3df70",
}


def test_grid_files_unchanged(tmp_path):
    argv = ["--functions", "f1,f4", "--agents", "uct:0.5,uct:sqrt2,siea", "--runs", "2"]
    argv += ["--iterations", "150", "--bins", "37", "--seed", "11", "--visit-weighted"]
    argv += ["--ea-generations", "2", "--ea-lambda", "2", "--ea-sims", "5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == GRID_SHA256


# sha256 of every log of a full-length grid: the default 5,000 iterations
# and EA settings on all five functions, so descents reach depth 17 and
# re-select terminal leaves, which the 150-iteration grid above never does.
# Re-pinned with the grid above when the run header gained two keys.
FULL_LENGTH_LOG_SHA256 = {
    "f1_siea_run000.jsonl": "8d67b1b39db55aae4a03a9cde11926bd0c9ffb4b3418fb4baa94891f97710df2",
    "f1_uct_c0.5_run000.jsonl": "ff317b123538c02c654f7f2c0ea6612320b3b5664be5e54a4426b6d4079481b1",
    "f2_siea_run000.jsonl": "48afffb23b2711ba67beffad7ca6baa6e579e03646156bacc015ea7565bde2a7",
    "f2_uct_c0.5_run000.jsonl": "9bda95eae62a1c40885eaab5e2ae3a13531ef8e7ad4565368d6fa41811f95ebe",
    "f3_siea_run000.jsonl": "a6ee5db5b54192be4d4c9758bae77d9f91b962955aac13c77b55a1a7cf423949",
    "f3_uct_c0.5_run000.jsonl": "6a0df333e7d6c24d643ce2feb73c52cbcf08876f683db3759931990f8641e8ee",
    "f4_siea_run000.jsonl": "fa8ac36b8d51f5f0482eb0ec6ec56c290adb06e8d4ea12e1671fb1dfcbcf6a15",
    "f4_uct_c0.5_run000.jsonl": "36e4fe94474865119a4ed3c4914edd590f826322194496cdb16bce24645ccc80",
    "f5_siea_run000.jsonl": "5c2659c1950780fb0dc5623106f7a8e42042de9ccf54b61c36a10dd8deb651b2",
    "f5_uct_c0.5_run000.jsonl": "7bded7624d1f7e906717822978fb1a30371789f9139a122491e406f36b000027",
}


def test_full_length_logs_unchanged(tmp_path):
    argv = ["--agents", "uct:0.5,siea", "--runs", "1", "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "logs").iterdir())
    }
    assert digests == FULL_LENGTH_LOG_SHA256

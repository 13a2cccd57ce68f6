"""Histogram-analysis tests: tertile splitting, binning, cross-run
aggregation, peak measurements, and the export formats."""

import csv
import json

import numpy as np
import pytest

from evomcts.analysis import (
    HistogramReport,
    aggregate,
    bin_centres,
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


class TestBinCentres:
    def test_single_centre(self):
        counts = bin_centres([0.5], 100)
        assert counts[50] == 1
        assert counts.sum() == 1

    def test_edge_values(self):
        counts = bin_centres([0.0, 1.0], 100)
        assert counts[0] == 1 and counts[99] == 1

    def test_uniform_terminal_grid(self):
        ks = np.arange(2**17)
        centres = (2 * ks + 1) / 2.0**18
        counts = bin_centres(centres, 100)
        assert counts.sum() == 2**17
        assert np.all(np.abs(counts - 2**17 / 100) <= 1.0)

    def test_empty_input(self):
        assert bin_centres([], 10).tolist() == [0] * 10

    def test_single_bin(self):
        assert bin_centres([0.0, 0.3, 1.0], 1).tolist() == [3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bin_centres([1.2], 10)
        with pytest.raises(ValueError):
            bin_centres([-0.1], 10)
        with pytest.raises(ValueError):
            bin_centres([0.5], 0)


class TestRunReportAndAggregate:
    def test_single_run_conservation(self):
        log = [(i, (i % 100) / 100 + 0.005) for i in range(600)]
        report = run_report(log, 600, 100, "cfg")
        assert report.runs == 1
        assert report.tertile_counts.shape == (3, 100)
        parts = tertile_split(log, 600)
        for t in range(3):
            assert report.tertile_counts[t].sum() == len(parts[t])
        assert report.edges[0] == 0.0 and report.edges[-1] == 1.0
        assert np.all(np.diff(report.edges) > 0)

    def test_mean_of_two_runs(self):
        r1 = run_report([(0, 0.105)] * 4, 30, 10, "cfg")
        r2 = run_report([(0, 0.105)] * 6, 30, 10, "cfg")
        merged = aggregate([r1, r2])
        assert merged.runs == 2
        assert merged.tertile_counts[0, 1] == 5.0

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
        assert merged.tertile_counts.sum() * merged.runs == pytest.approx(total)

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
        child = SearchNode(IntervalState(0.0, 0.5), parent=root)
        child.visits = 6
        root.children.append(child)
        counts = visit_weighted_counts(root, env, 2)
        assert counts.tolist() == [6.0, 10.0]


class TestExports:
    META = {"function": "f1", "policy": "uct", "c_or_evolved": "0.5", "run_seed": 7}

    def _report(self):
        log = [(i, (i % 10) / 10 + 0.05) for i in range(60)]
        return run_report(log, 60, 10, "f1_uct_c0.5")

    def test_csv_layout(self, tmp_path):
        report = self._report()
        path = tmp_path / "out.csv"
        write_csv(report, path, self.META)
        rows = list(csv.reader(path.open()))
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
        report = self._report()
        paths = [tmp_path / f"{i}.csv" for i in range(2)]
        for p in paths:
            write_csv(report, p, self.META)
        assert paths[0].read_bytes() == paths[1].read_bytes()

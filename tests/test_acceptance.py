"""End-to-end acceptance suite.

Each test covers one published behavioural guarantee of the package and
prints a single ``[acceptance] criterion N (...): PASS|FAIL`` line with
the measured numbers (run with ``-s`` to see the lines for passing
tests; pytest shows them automatically for failing ones).

The histogram criteria drive the real experiment grid: 30 seeded runs
of 5,000 iterations per agent, seeds derived exactly as the command
line tool derives them, so these tests double as a reproduction of the
shipped results.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import closed_form_uct, eval_clipped, eval_raw
from evomcts.analysis import aggregate, count_peaks, peak_mass, run_report
from evomcts.bench import FUNCTION_IDS, FunctionEnv, eval_function
from evomcts.cli import AgentSpec, derive_run_seed
from evomcts.expr import NodeContext, evaluate, uct_seed
from evomcts.mcts import UctPolicy, run_search
from evomcts.siea import (
    EvolutionConfig,
    Individual,
    run_siea_search,
    select_parent,
    ssd,
)

C_VALUES = (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0)
RUNS = 30
ITERATIONS = 5000
BINS = 100


def _verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")
    return ok


def _uct_run(function_id: str, c: float, run_index: int):
    """One seeded search exactly as the experiment runner performs it."""
    label = AgentSpec("uct", c).label
    rng = random.Random(derive_run_seed(0, function_id, label, run_index))
    env = FunctionEnv(function_id)
    root, log = run_search(env, UctPolicy(c), ITERATIONS, rng)
    return env, root, log


@pytest.fixture(scope="module")
def f1_grid():
    """Full f1 grid: 30 runs x 5,000 iterations for each C value."""
    start = time.perf_counter()
    per_run: dict = {}
    draws: dict = {}
    run0_logs: dict = {}
    for c in C_VALUES:
        label = AgentSpec("uct", c).label
        reports = []
        run_draws = set()
        for r in range(RUNS):
            env, _, log = _uct_run("f1", c, r)
            reports.append(run_report(log, ITERATIONS, BINS, f"f1_{label}"))
            run_draws.add(env.reward_draws)
            if r == 0:
                run0_logs[c] = log
        per_run[c] = reports
        draws[c] = run_draws
    elapsed = time.perf_counter() - start
    return {
        "per_run": per_run,
        "aggregates": {c: aggregate(per_run[c]) for c in C_VALUES},
        "draws": draws,
        "run0_logs": run0_logs,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def siea_runs():
    """30 seeded evolved-formula searches on f1 (full 5,000 budget)."""
    out = []
    for r in range(RUNS):
        rng = random.Random(derive_run_seed(0, "f1", "siea", r))
        env = FunctionEnv("f1")
        _, log, best, _ = run_siea_search(
            env, EvolutionConfig(), post_iterations=2600, rng=rng
        )
        out.append(
            {
                "log": log,
                "best": best,
                "draws": env.reward_draws,
                "report": run_report(log, 2600, BINS, "f1_siea"),
            }
        )
    return out


@pytest.fixture(scope="module")
def f2_aggregates():
    """Aggregated f2 histograms for the exploration extremes."""
    aggs = {}
    for c in (0.5, 3.0):
        label = AgentSpec("uct", c).label
        reports = []
        for r in range(RUNS):
            _, _, log = _uct_run("f2", c, r)
            reports.append(run_report(log, ITERATIONS, BINS, f"f2_{label}"))
        aggs[c] = aggregate(reports)
    return aggs


def _oracle_trace(reward_fn, c: float, threshold: float, iterations: int, rng):
    """Independent flat-list search used as a trace oracle.

    Reimplements selection (closed-form score, creation-order tie scan,
    randrange only on real ties), uniform expansion, uniform playout and
    backup over plain dicts, mirroring the documented RNG protocol and
    the halving arithmetic bit for bit.  Returns the expansion log and a
    {interval: (visits, total)} table.
    """
    nodes = [
        dict(lo=0.0, hi=1.0, parent=None, children=[], untried=[0, 1], visits=0, total=0.0)
    ]
    expansions = []
    for i in range(iterations):
        idx = 0
        while not nodes[idx]["untried"] and nodes[idx]["children"]:
            n_parent = nodes[idx]["visits"]
            best_score = -math.inf
            ties: list = []
            for ch in nodes[idx]["children"]:
                child = nodes[ch]
                score = child["total"] / child["visits"] + c * math.sqrt(
                    2.0 * math.log(n_parent) / child["visits"]
                )
                if score > best_score:
                    best_score = score
                    ties = [ch]
                elif score == best_score:
                    ties.append(ch)
            idx = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
        node = nodes[idx]
        if node["untried"]:
            action = node["untried"].pop(rng.randrange(len(node["untried"])))
            lo, hi = node["lo"], node["hi"]
            step = (hi - lo) / 2
            child_lo = lo + action * step
            child_hi = hi if action == 1 else child_lo + step
            child = dict(
                lo=child_lo,
                hi=child_hi,
                parent=idx,
                children=[],
                untried=[] if (child_hi - child_lo) < threshold else [0, 1],
                visits=0,
                total=0.0,
            )
            nodes.append(child)
            node["children"].append(len(nodes) - 1)
            idx = len(nodes) - 1
            node = child
            expansions.append((i, 0.5 * (child_lo + child_hi)))
        lo, hi = node["lo"], node["hi"]
        while not ((hi - lo) < threshold):
            step = (hi - lo) / 2
            branch = rng.randrange(2)
            new_lo = lo + branch * step
            new_hi = hi if branch == 1 else new_lo + step
            lo, hi = new_lo, new_hi
        reward = min(max(float(reward_fn(0.5 * (lo + hi))), 0.0), 1.0)
        walk = idx
        while walk is not None:
            nodes[walk]["visits"] += 1
            nodes[walk]["total"] += reward
            walk = nodes[walk]["parent"]
    stats = {(n["lo"], n["hi"]): (n["visits"], n["total"]) for n in nodes}
    return expansions, stats


def _engine_stats(root) -> dict:
    out = {}
    stack = [root]
    while stack:
        node = stack.pop()
        out[(node.state.a, node.state.b)] = (node.visits, node.total_reward)
        stack.extend(node.children)
    return out


class TestAcceptance:
    def test_criterion_1_exploration_ordering_on_f1(self, f1_grid):
        """More exploitation piles more expansions onto the optimum.

        The mass in the 0.10-wide window around x = 0.5 must be at
        least 1.8x larger for C = 0.5 than for C = 3, must fall as the
        exploration constant rises (one adjacent inversion tolerated),
        and the extremes must land inside coarse absolute windows.  The
        windows describe a single tertile curve, while peak_mass sums
        all three tertiles, so they are checked against the per-tertile
        average (summed mass / 3).  The whole grid must also have been
        generated in under two minutes.
        """
        masses = [peak_mass(f1_grid["aggregates"][c], 0.5, 0.05) for c in C_VALUES]
        ratio = masses[0] / masses[-1]
        inversions = sum(1 for i in range(len(masses) - 1) if masses[i] <= masses[i + 1])
        low_ok = 600.0 <= masses[0] / 3.0 <= 1400.0
        high_ok = 200.0 <= masses[-1] / 3.0 <= 700.0
        elapsed = f1_grid["elapsed"]
        detail = (
            f"masses={[round(m, 1) for m in masses]} ratio={ratio:.2f} "
            f"inversions={inversions} per-tertile extremes="
            f"({masses[0] / 3.0:.0f}, {masses[-1] / 3.0:.0f}) grid={elapsed:.1f}s"
        )
        ok = ratio >= 1.8 and inversions <= 1 and low_ok and high_ok and elapsed < 120.0
        assert _verdict(1, "exploration ordering on f1", ok, detail), detail

    def test_criterion_2_multimodality_on_f2(self, f2_aggregates):
        """Exploration keeps several modes alive; exploitation keeps two.

        On the mildly multimodal benchmark the C = 3 histogram must show
        at least three local maxima above 10% of its global maximum,
        and the C = 0.5 histogram exactly two, one of them within 0.05
        of the function's true argmax found by a dense grid scan.
        """
        grid = np.linspace(0.0, 1.0, 1_000_001)
        x_star = float(grid[int(np.argmax(eval_clipped("f2", grid)))])

        explore = f2_aggregates[3.0]
        exploit = f2_aggregates[0.5]
        explore_peaks = count_peaks(
            np.sum(explore.tertile_counts, axis=0), rel_height=0.1, min_separation=5
        )
        exploit_peaks = count_peaks(
            np.sum(exploit.tertile_counts, axis=0), rel_height=0.1, min_separation=5
        )
        mids = exploit.midpoints()
        nearest = min(abs(float(mids[p]) - x_star) for p in exploit_peaks)
        detail = (
            f"C=3 peaks={explore_peaks} C=0.5 peaks={exploit_peaks} "
            f"argmax={x_star:.4f} nearest-peak-gap={nearest:.4f}"
        )
        ok = len(explore_peaks) >= 3 and len(exploit_peaks) == 2 and nearest <= 0.05
        assert _verdict(2, "f2 multimodality", ok, detail), detail

    def test_criterion_3_shallow_trace_matches_oracle(self):
        """Twenty engine iterations replay exactly on a brute-force oracle.

        Depth-3 tree (threshold 0.2, eight leaves), C = 1, deterministic
        reward equal to the smooth unimodal benchmark's formula.  The
        reward map is passed to both sides as one shared callable so the
        engine and the oracle see bitwise-identical rewards (the
        vectorised reward route and math.sin differ by low-order ulps,
        which would make an exact trace comparison meaningless).  The
        expansion sequence, every node's visit count and reward total,
        and the draw counter must all match the independent dict-based
        reimplementation exactly.
        """
        reward_fn = lambda x: math.sin(math.pi * x)  # noqa: E731
        ok = True
        details = []
        for seed in (1, 7, 20260819, 424242, 8675309):
            env = FunctionEnv(reward_fn, threshold=0.2, bernoulli=False)
            root, log = run_search(env, UctPolicy(1.0), 20, random.Random(seed))
            expansions, stats = _oracle_trace(
                reward_fn, 1.0, 0.2, 20, random.Random(seed)
            )
            same = (
                log == expansions
                and _engine_stats(root) == stats
                and env.reward_draws == 20
                and root.visits == 20
            )
            ok = ok and same
            details.append(f"seed {seed}: {'match' if same else 'MISMATCH'} ({len(log)} expansions)")
        detail = "; ".join(details)
        assert _verdict(3, "shallow trace vs oracle", ok, detail), detail

    def test_criterion_4_budget_conservation(self, f1_grid, siea_runs):
        """Every full run consumes exactly 5,000 reward draws.

        For the fixed-formula agents each of the 5,000 iterations draws
        one reward; for the evolved agent the 2,400 evolution draws plus
        the 2,600 deployment iterations add up to the same total.
        """
        uct_draws = set().union(*f1_grid["draws"].values())
        siea_draws = {run["draws"] for run in siea_runs}
        detail = f"uct draws={sorted(uct_draws)} siea draws={sorted(siea_draws)}"
        ok = uct_draws == {5000} and siea_draws == {5000}
        assert _verdict(4, "budget conservation", ok, detail), detail

    def test_criterion_5_seed_formula_equivalence(self):
        """The serialisable seed formula reproduces the closed form.

        10^5 random contexts (visit counts up to 10^6, child visits no
        larger than the parent's), evaluated through the expression
        interpreter for every canonical exploration constant, must stay
        within 1e-9 of the directly computed score.
        """
        rng = random.Random(97)
        contexts = []
        for _ in range(100_000):
            n_parent = rng.randrange(1, 1_000_000)
            n_child = rng.randrange(1, n_parent + 1)
            contexts.append(NodeContext(rng.random(), float(n_parent), float(n_child)))
        worst = 0.0
        for c in C_VALUES:
            tree = uct_seed(c)
            for ctx in contexts:
                err = abs(evaluate(tree, ctx) - closed_form_uct(*ctx, c))
                if err > worst:
                    worst = err
        detail = f"worst abs error={worst:.3e} over {len(contexts)} contexts x {len(C_VALUES)} constants"
        ok = worst <= 1e-9
        assert _verdict(5, "seed formula equivalence", ok, detail), detail

    def test_criterion_6_evolved_variability_exceeds_uct(self, f1_grid, siea_runs):
        """Run-to-run spread of optimum mass: evolved formulas vs fixed.

        Across 30 seeds on f1 the standard deviation of the mass within
        0.05 of the optimum must be larger for the evolved agent than
        for every fixed-constant agent.
        """
        siea_masses = [peak_mass(run["report"], 0.5, 0.05) for run in siea_runs]
        siea_std = float(np.std(siea_masses))
        uct_stds = {}
        for c in C_VALUES:
            masses = [peak_mass(rep, 0.5, 0.05) for rep in f1_grid["per_run"][c]]
            uct_stds[c] = float(np.std(masses))
        detail = (
            f"siea std={siea_std:.2f} vs uct stds="
            + ", ".join(f"C={c:g}: {s:.2f}" for c, s in uct_stds.items())
        )
        ok = all(siea_std > s for s in uct_stds.values())
        assert _verdict(6, "evolved variability exceeds uct", ok, detail), detail

    def test_criterion_7_function_range(self):
        """All five benchmarks map a 10^6-point grid into [0, 1].

        The clamped values must be in range everywhere, and for the four
        functions whose raw formulas are exact the defensive clamp must
        never fire (raw values already inside the unit interval).
        """
        grid = np.linspace(0.0, 1.0, 1_000_000)
        points = grid.tolist()
        in_range = {}
        clamp_counts = {}
        for fid in FUNCTION_IDS:
            # The library's own values: one x at a time, as the search draws.
            in_range[fid] = all(0.0 <= eval_function(fid, x) <= 1.0 for x in points)
        for fid in ("f1", "f2", "f4", "f5"):
            raw = eval_raw(fid, grid)
            clamp_counts[fid] = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
        detail = f"in_range={in_range} clamp_counts={clamp_counts}"
        ok = all(in_range.values()) and all(v == 0 for v in clamp_counts.values())
        assert _verdict(7, "function range", ok, detail), detail

    def test_criterion_8_semantic_metric_and_selection(self):
        """Distance axioms on 10^4 random triples plus all select branches.

        The mean-absolute-difference semantic distance must be
        non-negative, symmetric, zero on identical vectors and obey the
        triangle inequality; the survivor-selection ladder must be
        exercised through all three branches (unique best, semantic
        closest-to-alpha inside the (0.05, 0.2) band, and uniform random
        fallback when the band is empty).
        """
        rng = random.Random(404)
        triangle_slack = 0.0
        axioms_ok = True
        for _ in range(10_000):
            p = [rng.random() for _ in range(30)]
            q = [rng.random() for _ in range(30)]
            r = [rng.random() for _ in range(30)]
            d_pq = ssd(p, q)
            axioms_ok = axioms_ok and d_pq >= 0.0 and d_pq == ssd(q, p) and ssd(p, p) == 0.0
            triangle_slack = max(triangle_slack, ssd(p, r) - (d_pq + ssd(q, r)))

        alpha, beta = 0.05, 0.2
        parent = Individual(uct_seed(1.0), 0.5, [0.0, 0.0, 0.0, 0.0])

        def child(tag, fitness, semantics):
            return Individual(uct_seed(tag), fitness, semantics)

        # Distinct fitness maximum: chosen without consulting the RNG.
        brood = [child(0.5, 0.4, None), child(1.0, 0.9, None), child(2.0, 0.6, None)]
        unique_ok = select_parent(brood, parent, alpha, beta, random.Random(0)) == (1, "unique_best")

        # Fitness tie: the tied child inside the band wins, preferring
        # the distance closest to alpha.
        near = child(0.5, 0.9, [0.24, 0.0, 0.0, 0.0])  # distance 0.06
        far = child(1.0, 0.9, [0.5, 0.0, 0.0, 0.0])  # distance 0.125
        below = child(2.0, 0.9, [0.02, 0.0, 0.0, 0.0])  # distance 0.005
        picked = select_parent([far, below, near], parent, alpha, beta, random.Random(0))
        semantic_ok = picked == (2, "semantic")

        # Fitness tie with an empty band: uniform over the tied maxima.
        outside = [child(0.5, 0.9, [0.02, 0.0, 0.0, 0.0]), child(1.0, 0.9, [1.0, 1.0, 0.0, 0.0])]
        picks = set()
        branches = set()
        for seed in range(200):
            idx, branch = select_parent(outside, parent, alpha, beta, random.Random(seed))
            picks.add(idx)
            branches.add(branch)
        random_ok = branches == {"random"} and picks == {0, 1}

        detail = (
            f"triangle slack={triangle_slack:.3e} axioms={axioms_ok} "
            f"unique={unique_ok} semantic={semantic_ok} random={random_ok}"
        )
        ok = (
            axioms_ok
            and triangle_slack <= 1e-12
            and unique_ok
            and semantic_ok
            and random_ok
        )
        assert _verdict(8, "semantic metric and selection", ok, detail), detail

    def test_criterion_9_determinism(self, f1_grid, siea_runs):
        """Replaying a derived seed reproduces a run byte for byte.

        One fixed-formula run and one evolved run are repeated with the
        same derived seeds as the grid fixtures; the expansion logs must
        serialise identically and the evolved best formula must print
        identically.
        """
        c = math.sqrt(2.0)
        label = AgentSpec("uct", c).label
        rng = random.Random(derive_run_seed(0, "f1", label, 0))
        _, log = run_search(FunctionEnv("f1"), UctPolicy(c), ITERATIONS, rng)
        uct_ok = log == f1_grid["run0_logs"][c] and json.dumps(log) == json.dumps(
            f1_grid["run0_logs"][c]
        )

        rng = random.Random(derive_run_seed(0, "f1", "siea", 0))
        _, log2, best2, _ = run_siea_search(
            FunctionEnv("f1"), EvolutionConfig(), post_iterations=2600, rng=rng
        )
        siea_ok = (
            json.dumps(log2) == json.dumps(siea_runs[0]["log"])
            and str(best2.expression) == str(siea_runs[0]["best"].expression)
        )
        detail = (
            f"uct log replay identical={uct_ok}; siea log replay identical="
            f"{json.dumps(log2) == json.dumps(siea_runs[0]['log'])}, "
            f"best formula '{best2.expression}' stable={siea_ok}"
        )
        ok = uct_ok and siea_ok
        assert _verdict(9, "determinism", ok, detail), detail

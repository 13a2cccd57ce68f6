"""Shows that the output checks catch corrupted outputs.

    python3 perfbench/selftest.py

Runs a small grid (one UCB1 and one evolved agent on f1, two runs
each), checks that it passes clean, then corrupts one run's reward-draw
count and one histogram cell in turn and checks that each corruption
fails exactly the runs it touches.  Exits 0 when all three hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import Grid, import_evomcts  # noqa: E402

ROOT = HERE.parent
GRID = Grid(
    ("f1",), ("uct:0.5", "siea"), iterations=300, runs=2, bins=20,
    ea_generations=3, ea_lambda=2, ea_sims=10,
)


@contextlib.contextmanager
def corrupted(path: Path, edit):
    """Temporarily replace the JSON document(s) in ``path`` by ``edit``'s output."""
    original = path.read_text()
    path.write_text(edit(original))
    try:
        yield
    finally:
        path.write_text(original)


def bump_draws(text: str) -> str:
    lines = [json.loads(line) for line in text.splitlines()]
    lines[-1]["reward_draws"] += 1
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def bump_cell(text: str) -> str:
    data = json.loads(text)
    data["tertile_counts"][1][7] += 0.5
    return json.dumps(data)


def main() -> int:
    cli = import_evomcts(ROOT / "src")
    from evomcts.expr import parse

    out = ROOT / ".perfbench-out" / f"selftest-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(GRID.argv(0, out))
        if rc != 0:
            print(f"selftest: grid exited {rc}")
            return 1
        cases = [
            ("clean outputs", None, None, set()),
            (
                "reward_draws + 1 in f1_uct_c0.5 run 1",
                out / "logs" / "f1_uct_c0.5_run001.jsonl",
                bump_draws,
                {"f1_uct_c0.5_run001"},
            ),
            (
                "tertile 1, bin 7 + 0.5 in f1_siea.json",
                out / "f1_siea.json",
                bump_cell,
                {"f1_siea_run000", "f1_siea_run001"},
            ),
        ]
        ok = True
        for title, path, edit, expected in cases:
            with corrupted(path, edit) if path else contextlib.nullcontext():
                failures = checks.check_round(GRID, 0, out, parse).failures
            passed = set(failures) == expected
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {title}: flagged {sorted(failures) or 'nothing'}")
            for name, reasons in failures.items():
                print(f"     {name}: {'; '.join(reasons)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

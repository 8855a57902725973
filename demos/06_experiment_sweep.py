"""Grid experiment: convergence step across robot counts and drop rates.

Writes the dataset and the median/min/max summary CSV next to it, like
the `swarmlang sweep` subcommand, into a temporary directory that it
removes again.
Run:  python3 demos/06_experiment_sweep.py
"""

import tempfile
from pathlib import Path

from swarmlang.sim import experiment_sweep, write_outputs

rows, summary = experiment_sweep(
    "consensus", n_grid=[10, 25], p_grid=[0.0, 0.5, 0.75], reps=5,
    master_seed=2025, max_steps=60)

print(f"{'N':>4} {'P':>5} {'median':>7} {'min':>4} {'max':>4}")
for s in summary:
    print(f"{s['N']:>4} {s['P']:>5} {s['median']:>7} {s['min']:>4} "
          f"{s['max']:>4}")

with tempfile.TemporaryDirectory() as tmp:
    paths = write_outputs(rows, summary, str(Path(tmp) / "consensus.csv"),
                          gnuplot=True)
    print("\nwrote (into a temporary directory, removed on exit):")
    for p in paths:
        print(f"  {Path(p).name}: {len(Path(p).read_text().splitlines())} "
              "lines")

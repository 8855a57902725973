"""Experiment grid driver: (N, P) x repetitions -> CSV dataset + summary.

Every cell derives its own seed from the master seed and the cell
coordinates, so cells are independent and the output is byte-identical
for any worker count.  Workers default to 1; the SWARMLANG_THREADS
environment variable (or the `workers` argument) raises the cap.
Non-converged runs are recorded with steps = max_steps and converged=0.
"""

import csv
import io
import os
import statistics
from concurrent.futures import ProcessPoolExecutor

from .config import SimulationConfig, derive_seed
from .experiments import experiment_for
from .runner import run

DATA_FIELDS = ["experiment", "N", "P", "rep", "seed", "converged", "steps"]
SUMMARY_FIELDS = ["experiment", "N", "P", "median", "min", "max"]


def worker_count(workers=None):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SWARMLANG_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_cell(task):
    """One grid cell; module-level so process pools can pickle the call."""
    script, readout, convergence, cfg, rep = task
    experiment = experiment_for(script, readout, convergence)
    result = run(cfg, experiment)
    return {
        "experiment": experiment.name,
        "N": cfg.n_robots,
        "P": cfg.drop_prob,
        "rep": rep,
        "seed": cfg.seed,
        "converged": 1 if result.converged else 0,
        "steps": result.steps_used(cfg.max_steps),
    }


def experiment_sweep(script, n_grid, p_grid, reps, master_seed=0,
                     max_steps=100, density=0.1, comm_range=1.0,
                     workers=None, readout=None, convergence="none"):
    """Run the (N, P) x reps grid; returns (rows, summary_rows), both sorted.

    `script`, `readout` and `convergence` name the experiment as
    `experiment_for` reads them: a built-in name, or a script path whose
    rows are labelled with that path as given.  Each cell runs a fresh
    experiment under its own seed, derived from `master_seed` and the
    cell's (N, P, rep).
    """
    tasks = []
    for n in n_grid:
        for p in p_grid:
            for rep in range(reps):
                cfg = SimulationConfig(
                    n_robots=n, drop_prob=p,
                    seed=derive_seed(master_seed, n, p, rep),
                    max_steps=max_steps, density=density,
                    comm_range=comm_range)
                tasks.append((script, readout, convergence, cfg, rep))
    nworkers = worker_count(workers)
    if nworkers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            rows = list(pool.map(run_cell, tasks))
    else:
        rows = [run_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r["N"], r["P"], r["rep"]))
    return rows, summarize(rows)


def summarize(rows):
    """Per-(experiment, N, P) median/min/max of the convergence steps."""
    groups = {}
    for row in rows:
        groups.setdefault((row["experiment"], row["N"], row["P"]),
                          []).append(row["steps"])
    out = []
    for (experiment, n, p) in sorted(groups, key=lambda k: (k[0], k[1], k[2])):
        steps = groups[(experiment, n, p)]
        out.append({
            "experiment": experiment,
            "N": n,
            "P": p,
            "median": _fmt_stat(statistics.median(steps)),
            "min": min(steps),
            "max": max(steps),
        })
    return out


def _fmt_stat(x):
    return int(x) if float(x).is_integer() else x


def rows_to_csv(rows, fields):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_outputs(rows, summary, out_path, gnuplot=False):
    """Write dataset CSV to out_path and the summary next to it."""
    base, ext = os.path.splitext(out_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows, DATA_FIELDS))
    summary_path = f"{base}_summary{ext or '.csv'}"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(summary, SUMMARY_FIELDS))
    paths = [out_path, summary_path]
    if gnuplot:
        dat_path = f"{base}_summary.dat"
        with open(dat_path, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(SUMMARY_FIELDS) + "\n")
            for row in summary:
                fh.write(" ".join(str(row[f]) for f in SUMMARY_FIELDS) + "\n")
        paths.append(dat_path)
    return paths

"""Benchmark of starwpn's three engines through its public CLI entry point.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0

Each operation is one call of `starwpn.cli.main` (the `starwpn` console
command) in a fresh interpreter started by `worker.py`.  Operations repeat
until `--seconds` have passed (at least MIN_OPS of them), then the outputs
are checked (`checks.py`) and one JSON line closes standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: the median wall time
of `cli.main`, the median set-up time of a fresh interpreter, and the
highest peak resident memory of an operation's process.  With `--trace 1` plain and
traced operations alternate, and the metrics are the per-layer ones from the
traced operations plus the tracing overhead.  Every run writes a record of
its environment, samples and checks, with the first operation's CSV, under
`.perfbench/`.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 2  # operations per run at the least, however long they take
SETUP_SAMPLES = 9  # fresh interpreters timed per run, topped up by set-up-only ones
OP_TIMEOUT_S = 150
THREADS_CHECK_TRIALS = 3 * 2**16 + 123  # crosses chunk edges, cheap to draw
ORACLE_ROWS = 6
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(mode, argv, trace=False):
    """Run worker.py once; returns its records with the set-up time, or None."""
    spec = json.dumps({"src": str(SRC), "mode": mode, "argv": argv, "trace": trace})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), spec], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    try:
        record = json.loads(ready)
        if mode == "op":
            record.update(json.loads(rest.strip().splitlines()[-1]))
    except (json.JSONDecodeError, IndexError):
        return None
    if code != 0 or (mode == "op" and record.get("rc") != 0):
        return None
    record["setup_s"] = ready_at - start
    return record


def only_csv(out_dir):
    found = sorted(Path(out_dir).glob("*.csv"))
    return found[0] if len(found) == 1 else None


def check_outputs(workload, seed, ops, run_dir):
    """All output checks of one run; returns the failure messages.

    Operations that share a CLI seed must write byte-identical CSVs; when no
    seed was used twice, the first operation is repeated for that check.
    """
    import checks

    by_seed = {}
    for op in ops:
        by_seed.setdefault(op["cli_seed"], []).append(op["csv"].read_bytes())
    if all(len(blobs) < 2 for blobs in by_seed.values()):
        first = ops[0]["cli_seed"]
        out_dir = run_dir / "repeat"
        if spawn("op", workload.argv(first, out_dir)) and only_csv(out_dir):
            by_seed[first].append(only_csv(out_dir).read_bytes())
        else:
            return ["the repeated operation failed"]
    fails = [f"--seed {s}: {len(set(b))} different CSVs from {len(b)} runs" for s, b in by_seed.items() if len(set(b)) > 1]
    if workload.command == "optimize":
        grid_best = {}
        for blobs in by_seed.values():
            fails += checks.check_ga(checks.read_rows(blobs[0]), workload, grid_best)
        return fails
    rows = checks.read_rows(by_seed[seed][0])
    fails += checks.check_shape(rows, workload)
    if fails:
        return fails
    fails += checks.check_identities(rows, workload, workload.trials)
    fails += checks.check_tdma(rows, workload)
    if workload.trials:
        fails += checks.check_mc_intervals(rows, workload, workload.trials)
        small = dataclasses.replace(workload, trials=THREADS_CHECK_TRIALS)
        outs = []
        for threads in (1, 2):
            out_dir = run_dir / f"threads{threads}"
            ok = spawn("op", small.argv(seed, out_dir, threads=threads))
            outs.append(only_csv(out_dir).read_bytes() if ok and only_csv(out_dir) else None)
        if None in outs or outs[0] != outs[1]:
            fails.append(f"CSV at {THREADS_CHECK_TRIALS} trials differs between --threads 1 and 2")
    else:
        fails += checks.check_oracle(checks.oracle_rows(rows, seed, ORACLE_ROWS), workload)
    return fails


def environment(seed, cli_seeds):
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():  # not an enclosing repository's revision
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
        "src_py_lines": lines,
        "src_sha256": digest.hexdigest(),
        "seeds": {"benchmark": seed, "cli": cli_seeds},
    }


def median(values):
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starwpn" / "cli.py").is_file():
        print(f"no starwpn sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir.mkdir(parents=True)

    plain, traced, attempted, rounds = [], [], 0, 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        cli_seed = workload.cli_seed(args.seed, rounds)
        for trace in (False, True) if args.trace else (False,):
            out_dir = run_dir / f"op{attempted}"
            record = spawn("op", workload.argv(cli_seed, out_dir), trace)
            attempted += 1
            if record is not None and only_csv(out_dir):
                record.update(csv=only_csv(out_dir), cli_seed=cli_seed)
                (traced if trace else plain).append(record)
        rounds += 1
    failed = attempted - len(plain) - len(traced)
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        record = spawn("setup", workload.argv(args.seed, run_dir / "setup"))
        if record is None:
            break
        setups.append(record["setup_s"])

    sys.path.insert(0, str(SRC))
    ops = plain + traced
    try:
        fails = check_outputs(workload, args.seed, ops, run_dir) if ops else ["no operation succeeded"]
    except Exception:  # an output the checks cannot read is a failed check, not a crash
        fails = ["a check raised:\n" + traceback.format_exc()]

    if args.trace:
        from checks import read_rows
        from tracer import LAYER_METRICS, layer_metrics

        per_op = []
        for r in traced:
            mc_rows = sum(row.get("engine") == "montecarlo" for row in read_rows(r["csv"].read_bytes()))
            per_op.append(layer_metrics(r["raw"], mc_rows))
        values = {k: median([m[k] for m in per_op if k in m]) for k in LAYER_METRICS}
        if plain and traced:
            values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items() if v is not None}
    else:
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median(setups),
            # the peak over the run: it lands on one of two levels, as the
            # decode threads happen to overlap their temporaries or not
            "peak_rss_mb": max([r["peak_rss_mb"] for r in plain], default=None),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items() if v is not None}

    result = {"correct": not fails and bool(ops), "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, sorted({r["cli_seed"] for r in ops})),
        "argv": workload.argv(args.seed, "<out>"),
        "operations": [{k: v for k, v in r.items() if k not in ("csv",)} for r in ops],
        "setup_samples_s": setups,
        "check_failures": fails,
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if ops:
        shutil.copy(ops[0]["csv"], run_dir / "output.csv")
    for path in run_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if ops else 1


if __name__ == "__main__":
    sys.exit(main())

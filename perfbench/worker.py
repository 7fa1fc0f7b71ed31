"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the package source directory, a mode ("setup" or "op"), the
argument list for `starwpn.cli.main` and whether to trace.  The worker
imports the package, resolves the configuration and builds the quadrature
rule the way the CLI does, then prints a "ready" line; the parent times
set-up from process start to that line.  In "op" mode it then calls
`cli.main` once and prints one JSON line with the wall time of that call,
its exit code, the peak resident memory of this process and, when traced,
the raw per-layer figures.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _emit(record):
    print(json.dumps(record), flush=True)


def setup(src, argv):
    """Import the package and resolve the configuration; returns (cli, split)."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import starwpn
    from starwpn import channel, cli

    t1 = time.perf_counter()
    if Path(starwpn.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"starwpn imported from {starwpn.__file__}, not from {src}")
    config_s = None
    # resolve the preset and --set overrides and build the rule as cmd_* does;
    # skipped when the package no longer offers these names
    names = (getattr(cli, "build_parser", None), getattr(cli, "load_config", None),
             getattr(channel, "gauss_hermite_rule", None))
    if None not in names:
        build_parser, load_config, rule = names
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, args.preset, args.set)
        rule(int(cfg["quadrature"]["gh_order"]))
        config_s = time.perf_counter() - t1
    return cli, {"import_s": t1 - t0, "config_s": config_s}


def run_op(cli, argv, trace):
    """Call `cli.main(argv)` once; returns the operation's record."""
    tracer = stats = clamp_before = None
    if trace:
        from starwpn import analytics
        from tracer import CLI_COMMANDS, Tracer

        stats = getattr(analytics, "clamp_stats", None)
        if stats is not None:
            clamp_before = (stats.events, stats.checked)
        tracer = Tracer()
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    record = {"rc": rc, "wall_s": wall}
    if tracer is not None:
        commands = set(CLI_COMMANDS) & tracer.present
        record["raw"] = {
            "totals": tracer.totals(),
            "clamp": None
            if stats is None
            else (stats.events - clamp_before[0], stats.checked - clamp_before[1]),
            "cli_self_s": tracer.self_time(commands, ("analytics.", "montecarlo.", "optimizer."))
            if commands
            else None,
            "optimizer_self_s": tracer.self_time({"optimizer.ga_run"}, ("optimizer.evaluate_batch",)),
        }
    return record


def peak_rss_mb():
    """Peak resident memory of this process image, in MiB.

    VmHWM restarts at exec; ru_maxrss does not, and would report the parent's
    size at fork when the parent is the larger of the two.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    cli, split = setup(spec["src"], spec["argv"])
    _emit({"ready": True, **split})
    if spec["mode"] == "setup":
        return 0
    record = run_op(cli, spec["argv"], spec["trace"])
    record["peak_rss_mb"] = peak_rss_mb()
    if "raw" in record:
        record["raw"].update(split)
    _emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

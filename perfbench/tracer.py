"""Per-layer call tracing of `starwpn`, installed from outside the package.

`Tracer` replaces module functions with timing wrappers for the length of a
`with` block: every public function defined in `analytics`, `montecarlo` and
`optimizer`, plus `channel.gamma_fit`, `system.sic_outcome` and the CLI's
command functions.  Each replaced name is rebound in every `starwpn` module
that holds it, so calls through `from .x import f` bindings are seen too.  A
function that does not exist is skipped, and the metrics built on it are
left out rather than failing the run.

Spans (name, start, end, counters) are kept in memory; `layer_metrics` turns
them into the per-layer figures.  A layer's self time is its span's length
minus the part of that interval covered by its callees' spans, so the figure
stays a wall-clock share when callees run on worker threads.
"""

import importlib
import inspect
import time

import numpy as np

MODULES = ("channel", "system", "analytics", "montecarlo", "optimizer", "cli")
WHOLE_MODULES = ("analytics", "montecarlo", "optimizer")
CLI_COMMANDS = ("cli.cmd_run", "cli.cmd_optimize")
EXTRA_TARGETS = ("channel.gamma_fit", "system.sic_outcome", *CLI_COMMANDS, "cli._write_outputs")


def _gen_counts(a):
    ga = a["ga"]
    return {"generations": ga.generations, "slots": ga.population * ga.generations}


# counters taken from a call's bound arguments, keyed by "module.function"
COUNTERS = {
    "system.sic_outcome": lambda a: {"elements": int(np.size(a["gamma_t"]))},
    "analytics.noma_metrics_batch": lambda a: {"rows": int(np.size(np.atleast_1d(a["c_t"])))},
    "montecarlo.mc_gains": lambda a: {"trials": int(a["mc"].trials)},
    "optimizer.ga_run": _gen_counts,
    "optimizer.evaluate_batch": lambda a: {"rows": int(np.atleast_2d(a["values"]).shape[0])},
}
# every per-layer metric with its unit and the direction that is better
LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "setup.config_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "channel.gamma_fit.calls": ("count", "lower"),
    "channel.gamma_fit.s": ("s", "lower"),
    "system.sic_outcome.calls": ("count", "lower"),
    "system.sic_outcome.elements": ("count", "lower"),
    "system.sic_outcome.s": ("s", "lower"),
    "analytics.perf_report.calls": ("count", "lower"),
    "analytics.perf_report.s": ("s", "lower"),
    "analytics.perf_report.ms_per_call": ("ms", "lower"),
    "analytics.noma_metrics_batch.calls": ("count", "lower"),
    "analytics.noma_metrics_batch.rows": ("count", "lower"),
    "analytics.noma_metrics_batch.rows_per_call": ("rows/call", "higher"),
    "analytics.noma_metrics_batch.s": ("s", "lower"),
    "analytics.noma_metrics_batch.us_per_row": ("us", "lower"),
    "analytics.clamp_events": ("count", "lower"),
    "analytics.clamp_checked": ("count", "lower"),
    "montecarlo.mc_gains.calls": ("count", "lower"),
    "montecarlo.mc_gains.trials": ("count", "lower"),
    "montecarlo.mc_gains.s": ("s", "lower"),
    "montecarlo.mc_gains.s_per_1e6_trials": ("s", "lower"),
    "montecarlo.gain_mb": ("MB", "lower"),
    "montecarlo.decode.calls": ("count", "lower"),
    "montecarlo.decode.s": ("s", "lower"),
    "montecarlo.decode_per_cell": ("calls/cell", "lower"),
    "optimizer.ga_run.calls": ("count", "lower"),
    "optimizer.ga_run.s": ("s", "lower"),
    "optimizer.generation_ms": ("ms", "lower"),
    "optimizer.evaluate_batch.calls": ("count", "lower"),
    "optimizer.evaluate_batch.rows": ("count", "lower"),
    "optimizer.evaluate_batch.s": ("s", "lower"),
    "optimizer.fresh_row_share": ("ratio", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Context manager that records a span for each call into a traced function."""

    def __init__(self):
        self.spans = []
        self.present = set()
        self._mods = {name: importlib.import_module(f"starwpn.{name}") for name in MODULES}
        self._restore = []

    def _targets(self):
        names = list(EXTRA_TARGETS)
        for modname in WHOLE_MODULES:
            mod = self._mods[modname]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    names.append(f"{modname}.{attr}")
        return names

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn)
        spans = self.spans

        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                try:
                    counts = counter(sig.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError):
                    counts = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((key, start, time.perf_counter(), counts))

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for key in self._targets():
            modname, attr = key.split(".", 1)
            fn = getattr(self._mods[modname], attr, None)
            if not inspect.isfunction(fn):
                continue
            self.present.add(key)
            wrapper = self._wrap(key, fn)
            for mod in self._mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._restore):
            setattr(mod, name, fn)
        self._restore.clear()
        return False

    def totals(self):
        """{function: {"calls", "s", counters...}} for every present function."""
        out = {key: {"calls": 0, "s": 0.0} for key in self.present}
        for key, start, end, counts in self.spans:
            entry = out[key]
            entry["calls"] += 1
            entry["s"] += end - start
            for name, value in (counts or {}).items():
                entry[name] = entry.get(name, 0) + value
        return out

    def self_time(self, parents, children_prefixes):
        """Summed length of `parents` spans not covered by any child span."""
        kids = [(s, e) for key, s, e, _ in self.spans if key.startswith(children_prefixes)]
        total = 0.0
        for key, start, end, _ in self.spans:
            if key in parents:
                total += (end - start) - covered(kids, start, end)
        return total


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(raw, mc_rows):
    """Per-layer metrics from one traced operation.

    `raw` is what the worker reports: "totals" from `Tracer.totals`, the
    self times, the clamp deltas and the setup split.  `mc_rows` is the
    number of Monte Carlo rows in the operation's CSV, the (point, scheme)
    cells that the decode counts are judged per.  A metric whose function
    was not found is left out.
    """
    t = raw["totals"]
    m = {}

    def has(*keys):
        return all(k in t for k in keys)

    m["setup.import_s"] = raw["import_s"]
    if raw.get("config_s") is not None:
        m["setup.config_s"] = raw["config_s"]
    if raw.get("cli_self_s") is not None:
        m["cli.self_s"] = raw["cli_self_s"]
    if has("cli._write_outputs"):
        m["cli.write_s"] = t["cli._write_outputs"]["s"]
    if has("channel.gamma_fit"):
        m["channel.gamma_fit.calls"] = t["channel.gamma_fit"]["calls"]
        m["channel.gamma_fit.s"] = t["channel.gamma_fit"]["s"]
    if has("system.sic_outcome"):
        e = t["system.sic_outcome"]
        m["system.sic_outcome.calls"] = e["calls"]
        m["system.sic_outcome.elements"] = e.get("elements", 0)
        m["system.sic_outcome.s"] = e["s"]
    if has("analytics.perf_report"):
        e = t["analytics.perf_report"]
        m["analytics.perf_report.calls"] = e["calls"]
        m["analytics.perf_report.s"] = e["s"]
        m["analytics.perf_report.ms_per_call"] = _ratio(e["s"], e["calls"], 1e3)
    if has("analytics.noma_metrics_batch"):
        e = t["analytics.noma_metrics_batch"]
        rows = e.get("rows", 0)
        m["analytics.noma_metrics_batch.calls"] = e["calls"]
        m["analytics.noma_metrics_batch.rows"] = rows
        m["analytics.noma_metrics_batch.rows_per_call"] = _ratio(rows, e["calls"])
        m["analytics.noma_metrics_batch.s"] = e["s"]
        m["analytics.noma_metrics_batch.us_per_row"] = _ratio(e["s"], rows, 1e6)
    if raw.get("clamp") is not None:
        m["analytics.clamp_events"], m["analytics.clamp_checked"] = raw["clamp"]
    if has("montecarlo.mc_gains"):
        e = t["montecarlo.mc_gains"]
        trials = e.get("trials", 0)
        m["montecarlo.mc_gains.calls"] = e["calls"]
        m["montecarlo.mc_gains.trials"] = trials
        m["montecarlo.mc_gains.s"] = e["s"]
        m["montecarlo.mc_gains.s_per_1e6_trials"] = _ratio(e["s"], trials, 1e6)
        # two float64 arrays per ensemble, all alive until the sweep ends
        m["montecarlo.gain_mb"] = 16.0 * trials / 2**20
    if has("montecarlo.mc_outage", "montecarlo.mc_success"):
        calls = t["montecarlo.mc_outage"]["calls"] + t["montecarlo.mc_success"]["calls"]
        m["montecarlo.decode.calls"] = calls
        m["montecarlo.decode.s"] = t["montecarlo.mc_outage"]["s"] + t["montecarlo.mc_success"]["s"]
        m["montecarlo.decode_per_cell"] = _ratio(calls, mc_rows)
    if has("optimizer.ga_run"):
        e = t["optimizer.ga_run"]
        m["optimizer.ga_run.calls"] = e["calls"]
        m["optimizer.ga_run.s"] = e["s"]
        m["optimizer.generation_ms"] = _ratio(e["s"], e.get("generations", 0), 1e3)
    if has("optimizer.evaluate_batch"):
        e = t["optimizer.evaluate_batch"]
        m["optimizer.evaluate_batch.calls"] = e["calls"]
        m["optimizer.evaluate_batch.rows"] = e.get("rows", 0)
        m["optimizer.evaluate_batch.s"] = e["s"]
        if has("optimizer.ga_run"):
            m["optimizer.fresh_row_share"] = _ratio(e.get("rows", 0), t["optimizer.ga_run"].get("slots", 0))
            m["optimizer.self_s"] = raw["optimizer_self_s"]
    return m

"""Experiment runner: config-driven sweeps and GA optimization to CSV.

Configuration is INI-style with one section per module.  Every value can be
overridden on the command line with --set section.key=value; bundled presets
reproduce the reference operating points (see presets/*.ini).  Output is one
CSV per command plus a JSON manifest embedding the fully resolved config, so
any run can be reproduced byte-for-byte from its manifest.

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence,
4 I/O error.
"""

import argparse
import configparser
import ctypes
import dataclasses
import hashlib
import io
import json
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analytics, channel, montecarlo, optimizer, system
from .channel import NakagamiParams, gauss_hermite_rule


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


# every key the config accepts, with units in the comment column of presets
DEFAULTS = {
    "system": {
        "p_ap_watts": "1.0",
        "snr_db": "40.0",
        "d0_m": "30.0",
        "d_t_m": "2.0",
        "d_r_m": "4.0",
        "exp0": "2.0",
        "exp_t": "2.0",
        "exp_r": "2.0",
        "n_elements": "30",
        "rate_bps_hz": "1.0",
        "m_ris": "2.0",
        "omega_ris": "1.0",
        "m_t": "2.0",
        "omega_t": "1.0",
        "m_r": "2.0",
        "omega_r": "1.0",
    },
    "policy": {
        "tep_alpha_t": "0.25",
        "tep_alpha_r": "0.25",
        "tep_alpha_ap": "0.5",
        "tep_beta_t": "0.6",
        "tep_beta_r": "0.4",
        "eep_alpha_et": "0.5",
        "eep_alpha_it": "0.5",
        "eep_beta_t": "0.6",
        "eep_beta_r": "0.4",
        "tdma_alpha_t": "0.25",
        "tdma_alpha_r": "0.25",
        "tdma_alpha_ap_t": "0.25",
        "tdma_alpha_ap_r": "0.25",
    },
    # read by no engine; validated by _quad_rule and kept for perfbench/worker.py (ROADMAP item 8)
    "quadrature": {"gh_order": "30"},
    "mc": {
        "trials": "1000000",
        "seed": "20240811",
        "gain_mode": "independent_gains",
    },
    "ga": {
        **{f.name: str(f.default) for f in dataclasses.fields(optimizer.GaConfig)},
        "problems": "p1,p2",
        "n_grid": "10,20,30,40,50",
    },
    "experiment": {
        "name": "sweep",
        "schemes": "tep,eep,tdma",
        "sweep": "snr_db",
        "grid": "20:50:5",
        "metrics": "outage_t,outage_r,sum_throughput,phi,aoi",
        "engine": "analytic",
        "threads": "1",
        "out_dir": "results",
    },
}

# keys that are legal but have no default (must be set where needed)
EXTRA_KEYS = {"ga": {"delta_th"}}

SWEEP_VARS = ("snr_db", "n_elements", "rate", "alpha", "beta_r")
ENGINES = ("analytic", "montecarlo", "both")
MAX_GRID_POINTS = 10**6  # of a start:stop:step grid; the largest preset has 20


def _known_presets():
    root = resources.files("starwpn") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_config(path: str = None, preset: str = None, sets=()) -> dict:
    """Resolve defaults, optional preset, optional file, and overrides."""
    if path and preset:
        raise ConfigError("pass either a config file or --preset, not both")
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if preset:
            try:
                text = (resources.files("starwpn") / "presets" / f"{preset}.ini").read_text()
            except FileNotFoundError:
                raise ConfigError(f"unknown preset {preset!r}; available: {', '.join(_known_presets())}")
            parser.read_string(text)
        elif path:
            if not Path(path).is_file():
                raise ConfigError(f"config file not found: {path}")
            parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}")
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            _check_key(section, key)
            cfg[section][key] = value
    for item in sets:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        _check_key(section, key)
        cfg[section][key] = value
    return cfg


def _check_key(section: str, key: str) -> None:
    if key not in DEFAULTS[section] and key not in EXTRA_KEYS.get(section, ()):
        raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _get(cfg, section, key, conv, desc):
    raw = cfg[section].get(key)
    if raw is None:
        raise ConfigError(f"missing required key {section}.{key} ({desc})")
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key} must be {desc}, got {raw!r}")


def _get_float(cfg, section, key):
    return _get(cfg, section, key, float, "a number")


def _get_int(cfg, section, key):
    return _get(cfg, section, key, int, "an integer")


def _noise_power(p_ap: float, snr_db: float) -> float:
    """The noise power p_ap / 10^(snr_db/10) at a transmit SNR of snr_db dB."""
    try:
        return p_ap / 10.0 ** (snr_db / 10.0)
    except ArithmeticError:  # 10^(snr_db/10) overflows, or underflows to a zero divisor
        raise ConfigError(f"system.snr_db = {snr_db} gives no finite positive noise power") from None


def build_system(cfg: dict) -> system.SystemConfig:
    """The system of cfg's [system] section."""
    p_ap = _get_float(cfg, "system", "p_ap_watts")
    n0 = _noise_power(p_ap, _get_float(cfg, "system", "snr_db"))
    try:
        return system.SystemConfig(
            p_ap=p_ap,
            n0=n0,
            d0=_get_float(cfg, "system", "d0_m"),
            d_t=_get_float(cfg, "system", "d_t_m"),
            d_r=_get_float(cfg, "system", "d_r_m"),
            exp0=_get_float(cfg, "system", "exp0"),
            exp_t=_get_float(cfg, "system", "exp_t"),
            exp_r=_get_float(cfg, "system", "exp_r"),
            n_elements=_get_int(cfg, "system", "n_elements"),
            fading_ris=NakagamiParams(_get_float(cfg, "system", "m_ris"), _get_float(cfg, "system", "omega_ris")),
            fading_t=NakagamiParams(_get_float(cfg, "system", "m_t"), _get_float(cfg, "system", "omega_t")),
            fading_r=NakagamiParams(_get_float(cfg, "system", "m_r"), _get_float(cfg, "system", "omega_r")),
            rate=_get_float(cfg, "system", "rate_bps_hz"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _replace(obj, context: str = "", **changes):
    """dataclasses.replace(obj, **changes); a ValueError of the new object's checks is a config error."""
    try:
        return dataclasses.replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}")


def build_policy(cfg: dict, scheme: str):
    """The scheme's policy from the [policy] keys {scheme}_{field}."""
    spec = system.SCHEMES.get(scheme)
    if spec is None:
        raise ConfigError(f"unknown scheme {scheme!r}")
    p = cfg["policy"]
    try:
        return spec.policy(**{f.name: float(p[f"{scheme}_{f.name}"]) for f in dataclasses.fields(spec.policy)})
    except ValueError as exc:
        raise ConfigError(f"invalid {scheme} policy: {exc}")


def _quad_rule(cfg: dict):
    """Validate [quadrature] gh_order by building its rule, as perfbench/worker.py does (ROADMAP item 8)."""
    try:
        return gauss_hermite_rule(_get_int(cfg, "quadrature", "gh_order"))
    except ValueError as exc:
        raise ConfigError(f"quadrature.gh_order: {exc}")


def parse_grid(text: str, as_int: bool = False):
    """Grid syntax: 'a,b,c' explicit list or 'start:stop:step' inclusive."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError:
            raise ConfigError(f"range grid values must be numbers, got {text!r}")
        if not np.isfinite([start, stop, step]).all() or step <= 0 or stop < start:
            raise ConfigError(f"bad grid range {text!r}")
        count = (stop - start) / step
        if not count + 1.0 <= MAX_GRID_POINTS:  # the quotient may overflow to inf
            raise ConfigError(f"grid range {text!r} has more than {MAX_GRID_POINTS} points")
        values = [start + i * step for i in range(int(round(count)) + 1) if start + i * step <= stop + 1e-9]
    else:
        try:
            values = [float(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"grid values must be numbers, got {text!r}")
        if not np.isfinite(values).all():
            raise ConfigError(f"grid values must be finite, got {text!r}")
    if not values:
        raise ConfigError("sweep grid is empty")
    if as_int:
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise ConfigError(f"grid for an integer sweep contains non-integer {v}")
        return [int(round(v)) for v in values]
    return values


def _sweep_cells(var: str, grid: list, config: system.SystemConfig, policies: dict) -> list:
    """The (grid values, (scheme, config, policy)) blocks of a sweep over var, one cell each.

    An n_elements sweep gives one config per N (N changes the channel law)
    and a one-row cell per N and scheme.  Any other sweep gives one batch
    cell per scheme for the whole grid: snr_db sets the config's n0, formed
    in Python floats, and rate its rate; alpha sets the policies' shared
    NOMA uplink share, and beta_r their surface split.
    """
    if var == "n_elements":
        configs = [(n, _replace(config, n_elements=n)) for n in grid]
        return [([n], (scheme, swept, policy)) for n, swept in configs for scheme, policy in policies.items()]
    if var == "snr_db":
        config = _replace(config, n0=np.array([_noise_power(config.p_ap, value) for value in grid]))
    elif var == "rate":
        config = _replace(config, rate=np.array(grid))
    else:
        value = np.array(grid)
        if var == "alpha":
            remainder = (1.0 - value) / 2.0
            changes = {"tep": dict(alpha_ap=value, alpha_t=remainder, alpha_r=remainder),
                       "eep": dict(alpha_it=value, alpha_et=1.0 - value)}
        else:  # beta_r
            changes = dict.fromkeys(("tep", "eep"), dict(beta_r=value, beta_t=1.0 - value))
        policies = {s: _replace(p, f"invalid {s} policy: ", **changes[s]) for s, p in policies.items()}
    return [(grid, (scheme, config, policy)) for scheme, policy in policies.items()]


def _csv_num(value) -> str:
    return format(float(value), ".17g")


def _output_name(cfg: dict, default: str) -> str:
    """experiment.name, or default when blank; a plain file name, never a path."""
    name = cfg["experiment"]["name"].strip() or default
    if name in (".", "..") or "/" in name or "\\" in name or "\0" in name:
        raise ConfigError(f"experiment.name must be a plain file name, got {name!r}")
    return name


def _get_list(cfg, section, key, conv=str.strip) -> list:
    """The comma-separated entries of section.key, each passed through conv; blanks dropped, one entry at least."""
    items = [conv(item) for item in cfg[section][key].split(",") if item.strip()]
    if not items:
        raise ConfigError(f"{section}.{key} list is empty")
    if len(set(items)) < len(items):  # a repeat would write its rows, columns or GA runs twice
        raise ConfigError(f"{section}.{key} repeats an entry, got {cfg[section][key]!r}")
    return items


def cmd_run(cfg: dict) -> dict:
    exp = cfg["experiment"]
    name = _output_name(cfg, "sweep")
    schemes = _get_list(cfg, "experiment", "schemes")
    for s in schemes:
        if s not in system.SCHEMES:
            raise ConfigError(f"experiment.schemes has unknown scheme {s!r}; choose from {tuple(system.SCHEMES)}")
    metrics = _get_list(cfg, "experiment", "metrics")
    for m in metrics:
        if m not in analytics.METRICS:
            raise ConfigError(f"unknown metric {m!r}; choose from {analytics.METRICS}")
    engine = exp["engine"]
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}")
    sweep = exp["sweep"]
    if sweep not in SWEEP_VARS:
        raise ConfigError(f"unknown sweep variable {sweep!r}; choose from {SWEEP_VARS}")
    grid = parse_grid(exp["grid"], as_int=sweep == "n_elements")
    threads = _get_int(cfg, "experiment", "threads")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    _quad_rule(cfg)

    mc_cfg = None
    if engine in ("montecarlo", "both"):
        try:
            mc_cfg = montecarlo.McConfig(
                trials=_get_int(cfg, "mc", "trials"),
                seed=_get_int(cfg, "mc", "seed"),
                gain_mode=cfg["mc"]["gain_mode"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid mc configuration: {exc}")

    if sweep in ("alpha", "beta_r"):  # NOMA's shared uplink share and surface split
        for scheme in schemes:
            if not system.SCHEMES[scheme].noma:
                raise ConfigError(f"the {sweep} sweep does not apply to scheme {scheme!r}")
    policies = {scheme: build_policy(cfg, scheme) for scheme in schemes}
    blocks = _sweep_cells(sweep, grid, build_system(cfg), policies)
    cells = [cell for _, cell in blocks]
    runs = []  # (engine, (rows, 3) probabilities in cell order, their standard errors or None)
    if engine in ("analytic", "both"):
        runs.append(("analytic", analytics.closed_forms(cells), None))
    if engine in ("montecarlo", "both"):
        runs.append(("montecarlo", *montecarlo.estimates(montecarlo.mc_counts(cells, mc_cfg, threads), mc_cfg.trials)))

    header = [sweep, "scheme", "engine", *(m + se for m in metrics for se in ("", "_se"))]
    bounds = np.cumsum([0] + [len(values) for values, _ in blocks]).tolist()
    rows = []  # (grid value, scheme, engine, CSV line)
    for eng, probs, ses in runs:
        for (values, (scheme, config, policy)), lo, hi in zip(blocks, bounds, bounds[1:]):
            cols = analytics.metrics(scheme, config.rate, policy, probs[lo:hi].T, None if ses is None else ses[lo:hi].T)
            n = len(values)
            fields = [[str(v) if sweep == "n_elements" else _csv_num(v) for v in values], [scheme] * n, [eng] * n]
            for col in (col for m in metrics for col in cols[m]):
                fields.append([""] * n if col is None else [_csv_num(x) for x in col.tolist()])
            rows += zip(values, [scheme] * n, [eng] * n, map(",".join, zip(*fields)))
    rows.sort(key=lambda r: r[:3])
    return {f"{name}.csv": "\n".join([",".join(header), *(r[3] for r in rows)]) + "\n"}


def cmd_optimize(cfg: dict) -> dict:
    name = _output_name(cfg, "optimize")
    ga_sec = cfg["ga"]
    if "delta_th" not in ga_sec:
        raise ConfigError("ga.delta_th is required for optimize (age threshold, slots)")
    delta_th = _get_float(cfg, "ga", "delta_th")
    if not delta_th > 1.0:
        raise ConfigError(f"ga.delta_th must exceed 1 (an average age in slots), got {delta_th}")
    problems = _get_list(cfg, "ga", "problems", lambda p: p.strip().lower())
    for p in problems:
        if p not in optimizer.PROBLEM_SCHEME:
            raise ConfigError(f"unknown problem {p!r}; choose from p1,p2")
    n_grid = parse_grid(ga_sec["n_grid"], as_int=True)
    try:
        ga = optimizer.GaConfig(
            **{
                f.name: (_get_int if f.type is int else _get_float)(cfg, "ga", f.name)
                for f in dataclasses.fields(optimizer.GaConfig)
            }
        )
    except ValueError as exc:
        raise ConfigError(f"invalid GA configuration: {exc}")
    _quad_rule(cfg)

    lines = ["n_elements,problem,scheme,alpha,beta_r,sum_throughput,aoi,feasible,generations_to_best,best_fitness"]
    base = build_system(cfg)
    for n in n_grid:
        config = _replace(base, n_elements=n)
        for problem in problems:
            result = optimizer.ga_run(problem, config, delta_th, ga)
            nums = (result.alpha, result.beta_r, result.best_throughput, result.aoi_at_best)
            lines.append(",".join([str(n), problem, result.scheme, *map(_csv_num, nums),
                                   "true" if result.feasible else "false", str(result.generations_to_best),
                                   _csv_num(result.best_fitness)]))
    return {f"{name}_optimize.csv": "\n".join(lines) + "\n"}


def _resolved_ini(cfg: dict) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in cfg.items():
        parser[section] = dict(sorted(keys.items()))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _write_outputs(files: dict, cfg: dict, command: str, out_dir: Path, elapsed: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        digests[name] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": text.count("\n") - 1}
    manifest = {
        "tool": "starwpn",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_clock_s": round(elapsed, 3),
        "seeds": {"mc": cfg["mc"]["seed"], "ga": cfg["ga"]["seed"]},
        "outputs": digests,
        "config_ini": _resolved_ini(cfg),
    }
    (out_dir / f"{command}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starwpn",
        description="Closed-form and Monte Carlo performance sweeps for a "
        "surface-assisted wireless-powered two-user uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, helptext in (
        ("run", "evaluate metric sweeps and write CSV"),
        ("optimize", "run the GA allocator over an element-count grid"),
    ):
        p = sub.add_parser(command, help=helptext)
        p.add_argument("config", nargs="?", help="INI config file (or use --preset)")
        p.add_argument("--preset", help="bundled preset name, e.g. fig4")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override any config value")
        p.add_argument("--out", help="output directory (default: experiment.out_dir)")
        p.add_argument("--seed", type=int, help="override mc.seed and ga.seed")
        p.add_argument("--trials", type=int, help="override mc.trials")
        p.add_argument("--threads", type=int, help="override experiment.threads")
    return parser


def _tune_allocator() -> None:
    """Keep the kernel's temporaries on the heap: glibc's malloc thresholds set as the command's process wants them.

    glibc starts with a 128 KB mmap threshold and trims the heap top above
    128 KB of free memory, so the closed-form kernel's 0.1-0.3 MB
    temporaries were mapped, faulted in and unmapped again on every call.
    That made fig11's GA about 20 % slower end to end (importing scipy used
    to raise both thresholds as a side effect).  Elsewhere than glibc this
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: the heap keeps up to 64 MB free at its top


def main(argv=None) -> int:
    _tune_allocator()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset, args.set)
        if args.seed is not None:
            cfg["mc"]["seed"] = str(args.seed)
            cfg["ga"]["seed"] = str(args.seed)
        if args.trials is not None:
            cfg["mc"]["trials"] = str(args.trials)
        if args.threads is not None:
            cfg["experiment"]["threads"] = str(args.threads)
        out_dir = Path(args.out or cfg["experiment"]["out_dir"])
        if "\0" in str(out_dir):
            raise ConfigError(f"experiment.out_dir must not contain a NUL byte, got {cfg['experiment']['out_dir']!r}")
        start = time.perf_counter()
        if args.command == "run":
            files = cmd_run(cfg)
        else:
            files = cmd_optimize(cfg)
        _write_outputs(files, cfg, args.command, out_dir, time.perf_counter() - start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (analytics.QuadratureError, channel.ConvergenceError) as exc:
        print(f"numerical convergence failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for name in files:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

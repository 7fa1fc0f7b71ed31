"""Config loading, sweep execution, CSV/manifest output, and exit codes."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import starwpn
from starwpn import analytics, channel, cli, system
from starwpn.channel import NakagamiParams, gauss_hermite_rule
from starwpn.cli import (
    ConfigError,
    build_policy,
    build_system,
    cmd_optimize,
    cmd_run,
    load_config,
    main,
    parse_grid,
)

TINY_INI = """\
[system]
n_elements = 8
snr_db = 35.0

[experiment]
name = tiny
schemes = tep,tdma
sweep = snr_db
grid = 30,35
metrics = outage_t,phi
engine = analytic
"""


def write_ini(tmp_path, text=TINY_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_resolve():
    cfg = load_config()
    assert cfg["system"]["snr_db"] == "40.0"
    assert cfg["experiment"]["engine"] == "analytic"
    assert "delta_th" not in cfg["ga"]


def test_unknown_key_and_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_ini(tmp_path, "[system]\nbogus = 1\n"))
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write_ini(tmp_path, "[plotting]\nstyle = dark\n"))


def test_set_override_forms():
    cfg = load_config(sets=["system.snr_db=25.0", "experiment.engine=both"])
    assert cfg["system"]["snr_db"] == "25.0"
    assert cfg["experiment"]["engine"] == "both"
    with pytest.raises(ConfigError, match="--set expects"):
        load_config(sets=["system.snr_db"])
    with pytest.raises(ConfigError, match="--set expects"):
        load_config(sets=["snr_db=25"])
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(sets=["system.power=25"])


def test_path_and_preset_exclusive(tmp_path):
    path = write_ini(tmp_path)
    with pytest.raises(ConfigError, match="not both"):
        load_config(path, preset="fig4")
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(preset="fig99")


def test_all_bundled_presets_are_well_formed():
    names = cli._known_presets()
    assert {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} <= set(names)
    for name in names:
        cfg = load_config(preset=name)
        exp = cfg["experiment"]
        assert exp["sweep"] in cli.SWEEP_VARS
        schemes = [s for s in exp["schemes"].split(",") if s.strip()]
        assert schemes and all(s in system.SCHEMES for s in schemes)
        for metric in exp["metrics"].split(","):
            assert metric.strip() in cli.METRICS
        assert exp["engine"] in cli.ENGINES
        grid = parse_grid(exp["grid"], as_int=exp["sweep"] == "n_elements")
        assert grid
        build_system(cfg)
        # every grid point gives a valid system and policy for every scheme
        for value in grid:
            swept = cli._apply_sweep(cfg, exp["sweep"], value, schemes)
            build_system(swept)
            for scheme in schemes:
                assert isinstance(build_policy(swept, scheme), system.SCHEMES[scheme].policy)


def test_parse_grid_forms():
    assert parse_grid("20:50:5") == [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
    assert parse_grid("1,2.5,3") == [1.0, 2.5, 3.0]
    assert parse_grid("10,20", as_int=True) == [10, 20]
    with pytest.raises(ConfigError):
        parse_grid("1:2")
    with pytest.raises(ConfigError):
        parse_grid("5:1:1")
    with pytest.raises(ConfigError):
        parse_grid("1:5:0")
    with pytest.raises(ConfigError):
        parse_grid("a,b")
    with pytest.raises(ConfigError):
        parse_grid(" ")
    with pytest.raises(ConfigError):
        parse_grid("1.5,2", as_int=True)
    for bad in ("a:b:c", "1:nan:1", "0:inf:1", "nan"):
        with pytest.raises(ConfigError):
            parse_grid(bad, as_int=True)


def test_build_system_snr_conversion_and_validation():
    cfg = load_config(sets=["system.snr_db=30.0", "system.p_ap_watts=2.0"])
    sysc = build_system(cfg)
    assert sysc.p_ap == 2.0
    assert sysc.n0 == pytest.approx(2.0 / 1000.0, rel=1e-12)
    with pytest.raises(ConfigError):
        build_system(load_config(sets=["system.exp0=0.5"]))
    with pytest.raises(ConfigError, match="must be a number"):
        build_system(load_config(sets=["system.snr_db=fast"]))


def test_build_policy_validation():
    cfg = load_config()
    assert isinstance(build_policy(cfg, "tep"), system.TepPolicy)
    assert isinstance(build_policy(cfg, "eep"), system.EepPolicy)
    assert isinstance(build_policy(cfg, "tdma"), system.TdmaPolicy)
    bad = load_config(sets=["policy.tep_alpha_ap=0.9"])
    with pytest.raises(ConfigError, match="invalid tep policy"):
        build_policy(bad, "tep")
    with pytest.raises(ConfigError, match="unknown scheme"):
        build_policy(cfg, "fdma")


def test_cmd_run_validation_errors():
    base = ["system.n_elements=8"]
    with pytest.raises(ConfigError, match="metrics list is empty"):
        cmd_run(load_config(sets=base + ["experiment.metrics="]))
    with pytest.raises(ConfigError, match="unknown metric"):
        cmd_run(load_config(sets=base + ["experiment.metrics=latency"]))
    with pytest.raises(ConfigError, match="engine"):
        cmd_run(load_config(sets=base + ["experiment.engine=exact"]))
    with pytest.raises(ConfigError, match="unknown sweep"):
        cmd_run(load_config(sets=base + ["experiment.sweep=power"]))
    with pytest.raises(ConfigError, match="schemes"):
        cmd_run(load_config(sets=base + ["experiment.schemes=ofdma"]))
    with pytest.raises(ConfigError, match="alpha sweep"):
        cmd_run(load_config(sets=base + ["experiment.sweep=alpha"]))
    with pytest.raises(ConfigError, match="threads"):
        cmd_run(load_config(sets=base + ["experiment.threads=0"]))


def test_cmd_run_analytic_csv_shape(tmp_path):
    cfg = load_config(write_ini(tmp_path))
    files = cmd_run(cfg)
    assert list(files) == ["tiny.csv"]
    lines = files["tiny.csv"].strip().split("\n")
    assert lines[0] == "snr_db,scheme,engine,outage_t,outage_t_se,phi,phi_se"
    assert len(lines) == 1 + 2 * 2  # two grid points x two schemes, analytic only
    cells = [line.split(",") for line in lines[1:]]
    # sorted by (value, scheme, engine)
    assert [(c[0], c[1]) for c in cells] == [
        ("30", "tdma"), ("30", "tep"), ("35", "tdma"), ("35", "tep"),
    ]
    assert all(c[2] == "analytic" for c in cells)
    assert all(c[4] == "" and c[6] == "" for c in cells), "analytic rows carry no se"

    # spot-check one cell against a direct evaluation
    cfg35 = build_system(cli._apply_sweep(cfg, "snr_db", 35.0, ("tep",)))
    pol = build_policy(cfg, "tep")
    want = analytics.outage("tep", cfg35, pol, gauss_hermite_rule(30))[0]
    got = float([c for c in cells if c[0] == "35" and c[1] == "tep"][0][3])
    assert got == pytest.approx(want, rel=1e-15)


def test_cmd_run_thread_count_does_not_change_output(tmp_path):
    cfg1 = load_config(write_ini(tmp_path), sets=["experiment.threads=1"])
    cfg2 = load_config(write_ini(tmp_path), sets=["experiment.threads=3"])
    assert cmd_run(cfg1) == cmd_run(cfg2)
    # both engines, with Monte Carlo chunks split across the workers and a
    # partial last chunk
    both = ["experiment.engine=both", f"mc.trials={3 * 2**16 + 123}"]
    outs = [cmd_run(load_config(write_ini(tmp_path), sets=both + [f"experiment.threads={t}"])) for t in (1, 2, 3)]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["tiny.csv"].count(",montecarlo,") == 4


def test_cmd_run_both_engines_emit_se(tmp_path):
    ini = """\
[system]
n_elements = 6
snr_db = 62.0

[mc]
trials = 4000
seed = 11

[experiment]
name = duo
schemes = tep
sweep = snr_db
grid = 62
metrics = outage_r,phi,aoi
engine = both
"""
    files = cmd_run(load_config(write_ini(tmp_path, ini)))
    lines = files["duo.csv"].strip().split("\n")
    assert len(lines) == 3
    analytic = dict(zip(lines[0].split(","), lines[1].split(",")))
    mc = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert analytic["engine"] == "analytic" and mc["engine"] == "montecarlo"
    assert analytic["outage_r_se"] == ""
    assert float(mc["outage_r_se"]) > 0.0
    assert 0.0 <= float(mc["outage_r"]) <= 1.0
    assert float(mc["aoi"]) >= 1.0


def test_cmd_optimize_rows_and_missing_threshold(tmp_path):
    sets = [
        "system.snr_db=58.0",
        "ga.population=8",
        "ga.generations=3",
        "ga.problems=p1",
        "ga.n_grid=8,10",
        "ga.delta_th=10",
        "experiment.name=opt",
    ]
    files = cmd_optimize(load_config(sets=sets))
    lines = files["opt_optimize.csv"].strip().split("\n")
    assert lines[0].startswith("n_elements,problem,scheme,alpha,beta_r,sum_throughput")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "p1" and first[2] == "tep"
    assert first[7] in ("true", "false")

    with pytest.raises(ConfigError, match="delta_th"):
        cmd_optimize(load_config(sets=[s for s in sets if "delta_th" not in s]))
    with pytest.raises(ConfigError, match="unknown problem"):
        cmd_optimize(load_config(sets=sets + ["ga.problems=p9"]))
    with pytest.raises(ConfigError, match="invalid GA configuration"):
        cmd_optimize(load_config(sets=sets + ["ga.population=1"]))


def test_cmd_optimize_single_generation_runs():
    sets = [
        "system.snr_db=58.0",
        "ga.population=6",
        "ga.generations=1",
        "ga.problems=p2",
        "ga.n_grid=8",
        "ga.delta_th=10",
    ]
    files = cmd_optimize(load_config(sets=sets))
    assert len(files["sweep_optimize.csv"].strip().split("\n")) == 2


def test_main_writes_csv_and_manifest(tmp_path):
    ini = write_ini(tmp_path)
    out = tmp_path / "results"
    assert main(["run", ini, "--out", str(out)]) == 0
    csv_path = out / "tiny.csv"
    manifest_path = out / "run_manifest.json"
    assert csv_path.is_file() and manifest_path.is_file()
    manifest = json.loads(manifest_path.read_text())
    import hashlib

    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest["outputs"]["tiny.csv"]["sha256"] == digest
    assert manifest["outputs"]["tiny.csv"]["rows"] == 4
    assert manifest["version"]
    assert "[experiment]" in manifest["config_ini"]


def test_rerun_is_byte_identical(tmp_path):
    ini = """\
[system]
n_elements = 6
snr_db = 38.0

[mc]
trials = 3000
seed = 5

[experiment]
name = repro
schemes = eep
sweep = snr_db
grid = 38
metrics = outage_t,outage_r,phi
engine = both
"""
    path = write_ini(tmp_path, ini)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(a)]) == 0
    assert main(["run", path, "--out", str(b)]) == 0
    assert (a / "repro.csv").read_bytes() == (b / "repro.csv").read_bytes()

    # reproducing from the manifest's embedded config gives the same bytes
    manifest = json.loads((a / "run_manifest.json").read_text())
    replay = tmp_path / "replay.ini"
    replay.write_text(manifest["config_ini"])
    c = tmp_path / "c"
    assert main(["run", str(replay), "--out", str(c)]) == 0
    assert (c / "repro.csv").read_bytes() == (a / "repro.csv").read_bytes()


# CSV bytes of the analytic-only presets; a change that moves closed-form
# numbers on purpose re-pins these and says why
ANALYTIC_PRESET_SHA256 = {
    "fig7": "c5ba533fb3de35336f9244eb6e77c48defd9c02e9c5ac950bb0227f0a54dbe43",
    "fig8": "ef507fd0a7d5a9410f4614857b2ed7ff43afe3e81c6e17cc1984c4732f860535",
    "fig10": "740beb3bfb69160db9a812e37fecdba85adbc309f488b4b31fb39fa9b6d467dc",
}


@pytest.mark.parametrize("preset", ANALYTIC_PRESET_SHA256)
def test_analytic_preset_bytes_are_pinned(tmp_path, preset):
    assert main(["run", "--preset", preset, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest()
    assert digest == ANALYTIC_PRESET_SHA256[preset]


# CSV bytes of a preset with Monte Carlo rows; the Monte Carlo stream is part
# of the package version, so its rows move only with a version change.  fig4's
# analytic rows moved when the SIC windows began to read the CDF and survival
# tables: 14 outage fields, by at most 1.2e-13 relative, no Monte Carlo field
MC_PRESET_SHA256 = {
    "fig4": "b5d955945e39c9822d5e9175df8491ecb30a2c78980ea9c21c56f4c94896978b",
}


@pytest.mark.parametrize("preset", MC_PRESET_SHA256)
def test_mc_preset_bytes_are_pinned(tmp_path, preset):
    argv = ["run", "--preset", preset, "--trials", "200000", "--threads", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest()
    assert digest == MC_PRESET_SHA256[preset]


def test_package_version_matches_pyproject():
    # the manifest records __version__ as the key of Monte Carlo byte
    # stability, so the installed metadata must agree with it
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == starwpn.__version__


def test_main_seed_and_set_overrides(tmp_path):
    ini = write_ini(tmp_path)
    out = tmp_path / "o1"
    code = main(["run", ini, "--out", str(out), "--seed", "123",
                 "--set", "system.n_elements=6"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seeds"] == {"mc": "123", "ga": "123"}
    assert "n_elements = 6" in manifest["config_ini"]


def test_main_exit_codes(tmp_path, capsys):
    ini = write_ini(tmp_path)
    assert main(["run", ini, "--set", "system.bogus=1", "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["optimize", ini, "--out", str(tmp_path / "y")]) == 2
    assert "delta_th" in capsys.readouterr().err

    for command, preset, override in (
        ("run", "fig4", "experiment.grid=a:b:c"),
        ("run", "fig4", "quadrature.gh_order=0"),
        ("optimize", "fig11", "ga.delta_th=0.5"),
    ):
        assert main([command, "--preset", preset, "--set", override, "--out", str(tmp_path / "w")]) == 2
        assert "config error" in capsys.readouterr().err

    for override, text in (("ga.elitism=x", "must be an integer"), ("ga.mutation_p=x", "must be a number")):
        assert main(["optimize", "--preset", "fig11", "--set", override, "--out", str(tmp_path / "v")]) == 2
        assert text in capsys.readouterr().err

    # negative seeds and chromosome widths whose levels collide as doubles
    for command, preset, extra in (
        ("run", "fig4", ["--trials", "1000", "--seed", "-1"]),
        ("run", "fig4", ["--trials", "1000", "--set", "mc.seed=-3"]),
        ("optimize", "fig11", ["--seed", "-5"]),
        ("optimize", "fig11", ["--set", "ga.bits_per_var=1100"]),
    ):
        assert main([command, "--preset", preset, *extra, "--out", str(tmp_path / "s")]) == 2
        assert "config error" in capsys.readouterr().err

    # experiment.name names a file inside --out, never a path
    for command, preset in (("run", "fig7"), ("optimize", "fig11")):
        for bad in ("../../x", "a/x", ".", ".."):
            argv = [command, "--preset", preset, "--set", "experiment.grid=1", "--set", f"experiment.name={bad}",
                    "--out", str(tmp_path / "n" / "a" / "b")]
            assert main(argv) == 2
            assert "plain file name" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()

    # non-finite physical inputs are rejected when the system is built
    for override in ("system.m_ris=inf", "system.omega_t=inf", "system.d0_m=inf", "system.rate_bps_hz=inf"):
        assert main(["run", "--preset", "fig4", "--set", override, "--out", str(tmp_path / "u")]) == 2
        assert "must be finite" in capsys.readouterr().err

    # no section header, a repeated section, bytes that are not UTF-8
    for name, data in (
        ("bare.ini", b"snr_db = 30\n"),
        ("twice.ini", b"[system]\nsnr_db = 30\n[system]\nd0_m = 3\n"),
        ("latin1.ini", b"[experiment]\nname = r\xe9sultat\n"),
    ):
        (tmp_path / name).write_bytes(data)
        assert main(["run", str(tmp_path / name), "--out", str(tmp_path / "t")]) == 2
        assert "malformed config" in capsys.readouterr().err

    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert main(["run", ini, "--out", str(blocker / "sub")]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    ["system.snr_db=-inf", "system.snr_db=-4000", "system.snr_db=4000", "system.d0_m=1e-200",
     "system.d0_m=1e200", "system.exp0=1000", "system.d_t_m=1e-150"],
)
def test_main_rejects_unusable_noise_power_and_path_loss(tmp_path, capsys, override):
    # each gives a noise power, path loss or received power that is 0 or overflows
    for command, preset in (("run", "fig7"), ("optimize", "fig11")):
        assert main([command, "--preset", preset, "--set", override, "--out", str(tmp_path / command)]) == 2
        assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", ["system.omega_t=1e-300", "system.m_t=1e300", "system.omega_r=1e300",
                                      "system.omega_ris=1e-300"])
def test_main_rejects_fading_without_finite_support(tmp_path, capsys, override):
    # each fits a quartic gain whose tail quantiles underflow to 0 or overflow,
    # which leaves the closed forms no range to integrate over
    for command, preset in (("run", "fig7"), ("optimize", "fig11")):
        argv = [command, "--preset", preset, "--set", "experiment.grid=1", "--set", override,
                "--out", str(tmp_path / command)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "support of the quartic gain" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", ["system.rate_bps_hz=2000", "system.rate_bps_hz=1e-300",
                                      "ga.penalty_coef=inf", "ga.penalty_coef=nan"])
def test_main_rejects_rate_without_threshold_and_unusable_penalty(tmp_path, capsys, override):
    # 2^R - 1 overflows at R = 2000 and is 0 below R = 1.6e-16; an infinite or
    # NaN penalty turns every fitness into NaN.  Each exits 2 naming its key,
    # with no warning
    runs = [("optimize", "fig11", ["--set", "ga.n_grid=30", "--set", "ga.generations=5"])]
    if override.startswith("system."):
        runs.append(("run", "fig4", ["--set", "experiment.grid=40", "--set", "experiment.engine=analytic"]))
    for command, preset, extra in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--preset", preset, *extra, "--set", override, "--out", str(tmp_path / command)])
        assert code == 2
        err = capsys.readouterr().err
        key = override.split("=")[0]
        assert "config error" in err and (key if key.startswith("system.") else key.split(".")[-1]) in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("preset, sets, fits, policies", [
    ("fig7", (), 1, 2),
    ("fig7", ("system.m_r=3.0",), 2, 2),
    ("fig7", ("experiment.sweep=n_elements", "experiment.grid=5,10,15"), 3, 2),
    ("fig8", (), 1, 19 * 2),
    ("fig10", (), 1, 19 * 2),
])
def test_run_fits_each_law_and_builds_each_policy_once(tmp_path, monkeypatch, preset, sets, fits, policies):
    # a sweep fits each distinct channel law once and builds each scheme's
    # policy once per distinct [policy] section: fig7 sweeps the rate, fig8
    # alpha and fig10 beta_r, which change the policy at every point
    calls = {"fit": 0, "policy": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    fit = counted("fit", channel.gamma_fit)
    for module in (channel, system):  # every module that binds the fit
        if hasattr(module, "gamma_fit"):
            monkeypatch.setattr(module, "gamma_fit", fit)
    monkeypatch.setattr(cli, "build_policy", counted("policy", cli.build_policy))
    argv = ["run", "--preset", preset, *(arg for kv in sets for arg in ("--set", kv)), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert calls == {"fit": fits, "policy": policies}
    if not sets:
        assert hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest() == ANALYTIC_PRESET_SHA256[preset]


def test_main_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def explode(cfg):
        raise analytics.QuadratureError("panel refinement stalled")

    monkeypatch.setattr(cli, "cmd_run", explode)
    assert main(["run", write_ini(tmp_path), "--out", str(tmp_path / "z")]) == 3
    assert "numerical convergence failure" in capsys.readouterr().err

    # the real raise: with zero tolerances no NOMA row converges, and the GA
    # runs on checked values
    monkeypatch.setattr(analytics, "_CHECK_ABS", 0.0)
    monkeypatch.setattr(analytics, "_CHECK_REL", 0.0)
    argv = ["optimize", "--preset", "fig11", "--set", "ga.n_grid=10", "--set", "ga.generations=1",
            "--out", str(tmp_path / "ga")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical convergence failure" in err and "after panel doubling" in err


def test_csv_numbers_round_trip():
    assert cli._csv_num(0.1) == "0.10000000000000001"
    assert float(cli._csv_num(np.pi)) == np.pi
    value = 1.522192953189e-01
    assert float(cli._csv_num(value)) == value

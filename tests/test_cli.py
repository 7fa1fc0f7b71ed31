"""Config loading, sweep execution, CSV/manifest output, and exit codes."""

import hashlib
import json
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import starwpn
from starwpn import analytics, channel, cli, system
from starwpn.channel import NakagamiParams
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
        base = build_system(cfg)
        policies = {scheme: build_policy(cfg, scheme) for scheme in schemes}
        # the sweep's cells are valid and hold every grid point once per
        # scheme: a batch cell per scheme, or a one-row cell per N and scheme
        blocks = cli._sweep_cells(exp["sweep"], grid, base, policies)
        per_n = exp["sweep"] == "n_elements"
        assert [scheme for _, (scheme, _, _) in blocks] == schemes * (len(grid) if per_n else 1)
        assert [v for values, _ in blocks[:: len(schemes)] for v in values] == grid
        for values, (scheme, config, policy) in blocks:
            assert isinstance(config, system.SystemConfig) and (per_n or config.law == base.law)
            assert isinstance(policy, system.SCHEMES[scheme].policy)
            (_, rows, *_), = system.cell_groups([(scheme, config, policy)])
            assert rows.tolist() == list(range(len(values)))


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


def test_parse_grid_caps_the_point_count(tmp_path, capsys):
    # a range whose point count overflows or is huge is a config error, not
    # an OverflowError or a list of 10^300 values
    assert len(parse_grid(f"1:{cli.MAX_GRID_POINTS}:1", as_int=True)) == cli.MAX_GRID_POINTS
    for bad in ("0:1e300:1e-300", "0:1:1e-300", f"0:{cli.MAX_GRID_POINTS}:1"):
        with pytest.raises(ConfigError, match="more than"):
            parse_grid(bad)
    for command, preset, override in (("run", "fig7", "experiment.grid=0:1e300:1e-300"),
                                      ("run", "fig7", "experiment.grid=0:1:1e-300"),
                                      ("optimize", "fig11", "ga.n_grid=1:1e300:1e-300"),
                                      ("optimize", "fig11", "ga.n_grid=1:2:1e-300")):
        assert main([command, "--preset", preset, "--set", override, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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

    # spot-check one cell against a direct evaluation; the ini's snr_db is 35
    cfg35 = build_system(cfg)
    pol = build_policy(cfg, "tep")
    want = analytics.outage("tep", cfg35, pol)[0]
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


# CSV bytes of the other presets' analytic rows, of an element-count sweep
# and of the GA preset, each as (argv, output file, sha256)
OTHER_PRESET_SHA256 = {
    "fig5": (("run", "--preset", "fig5", "--set", "experiment.engine=analytic"), "fig5.csv",
             "ff2c43ce047e1bbdf4e2b6ed4d70a51212c5817cfa1fe845fc949fd20709f307"),
    "fig6": (("run", "--preset", "fig6", "--set", "experiment.engine=analytic"), "fig6.csv",
             "d3cf1f0a9e356e65d6b742e5766ce6631575d3906958bcf8a6a274968ecd08d1"),
    "fig9": (("run", "--preset", "fig9", "--set", "experiment.engine=analytic"), "fig9.csv",
             "8e40066af6ba5786093b161e5a250545a0b92ce18d76882319b1cd971c23ce11"),
    "fig7-n_elements": (("run", "--preset", "fig7", "--set", "experiment.sweep=n_elements",
                         "--set", "experiment.grid=5,10,15"), "fig7.csv",
                        "2008c2c43088b64c4ef5e61ccb10d5c70ec54f48ea80c0a429a13341e17b2cf2"),
    "fig11": (("optimize", "--preset", "fig11"), "fig11_optimize.csv",
              "91fe6f6fe78be7305896bcb46e1982a22554e0e0faebc26f6e730e6338fd8a81"),
}


@pytest.mark.parametrize("case", OTHER_PRESET_SHA256)
def test_other_preset_bytes_are_pinned(tmp_path, case):
    argv, name, want = OTHER_PRESET_SHA256[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


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


def test_main_names_n_elements_when_the_swept_n_leaves_no_support(tmp_path, capsys):
    argv = ["run", "--preset", "fig7", "--set", "experiment.sweep=n_elements", "--set", "experiment.grid=1e300",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "support of the quartic gain" in err and "n_elements" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, preset, override", [
    ("run", "fig4", "system.snr_db=fast"),  # fig4 sweeps snr_db
    ("run", "fig7", "system.rate_bps_hz=2000"),  # fig7 sweeps the rate
    ("run", "fig8", "policy.tep_alpha_ap=0.9"),  # fig8 sweeps alpha
    ("run", "fig10", "policy.eep_beta_r=x"),  # fig10 sweeps beta_r
    ("optimize", "fig11", "system.n_elements=0"),  # optimize sweeps ga.n_grid
])
def test_main_validates_the_keys_a_sweep_overrides(tmp_path, capsys, command, preset, override):
    # run and optimize build the config and the policies from every key once,
    # then set the swept field at each grid point
    assert main([command, "--preset", preset, "--set", override, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", ["system.rate_bps_hz=2000", "system.rate_bps_hz=1e-300",
                                      "ga.penalty_coef=inf", "ga.penalty_coef=nan", "ga.penalty_coef=1e300"])
def test_main_rejects_rate_without_threshold_and_unusable_penalty(tmp_path, capsys, override):
    # 2^R - 1 overflows at R = 2000 and is 0 below R = 1.6e-16; an infinite or
    # NaN penalty turns every fitness into NaN, and 1e300 times the age cap
    # overflows to a fitness of -inf.  Each exits 2 naming its key, with no
    # warning
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
        assert "config error" in err and key in err
    assert not any(tmp_path.iterdir())


FUZZ_VALUES = ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "4.9e-324", "", "x")
# keys that size a run's work take only small values; their extremes are left to validation
FUZZ_SIZES = {"mc.trials", "ga.population", "ga.generations", "ga.n_grid", "system.n_elements", "experiment.threads"}
FUZZ_SIZE_VALUES = ("0", "-1", "1", "2", "nan", "", "x")
FUZZ_RUN = ("run", "--preset", "fig4", "--set", "experiment.grid=40", "--set", "experiment.engine=both",
            "--set", "mc.trials=3000", "--set", "experiment.metrics=" + ",".join(cli.METRICS))
FUZZ_OPTIMIZE = ("optimize", "--preset", "fig11", "--set", "ga.n_grid=5", "--set", "ga.generations=2",
                 "--set", "ga.population=4")


def _fuzz_cases(seed=20251020, pairs=200):
    """(command, overrides): every config key at every edge value, then seeded pairs of such overrides.

    A [ga] key runs optimize, an [mc] or [policy] key run, and any other key
    both, as does a pair.
    """
    keys = [f"{section}.{key}" for section, names in cli.DEFAULTS.items() for key in names]
    keys += [f"{section}.{key}" for section, names in cli.EXTRA_KEYS.items() for key in sorted(names)]

    def values(key):
        return FUZZ_SIZE_VALUES if key in FUZZ_SIZES else FUZZ_VALUES

    overrides = [(f"{key}={value}",) for key in keys for value in values(key)]
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        overrides.append(tuple(f"{key}={rng.choice(values(key))}" for key in rng.choice(keys, size=2, replace=False)))
    cases = []
    for sets in overrides:
        sections = {kv.split(".")[0] for kv in sets}
        cases += [(base, sets) for base, skip in ((FUZZ_RUN, {"ga"}), (FUZZ_OPTIMIZE, {"mc", "policy"}))
                  if not sections & skip]
    return cases


def test_config_fuzz_exits_cleanly(tmp_path, monkeypatch, capsys):
    # every key of the config at 0, -1, tiny, huge, NaN, infinite, subnormal,
    # empty and non-numeric values, one at a time and in seeded pairs: each
    # run exits 0, 2 or 3 with no traceback and no warning, and writes only
    # finite numbers, except the age (and its standard error) where phi is 0
    monkeypatch.chdir(tmp_path)
    cases = _fuzz_cases()
    assert len(cases) > 700
    faults = []
    for i, (base, sets) in enumerate(cases):
        case = f"{base[0]} {' '.join(sets)}"
        argv = [*base, "--set", f"experiment.out_dir=case{i}", *(arg for kv in sets for arg in ("--set", kv))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        except Exception as exc:  # an escape is the finding; keep going to report them all
            where = traceback.extract_tb(exc.__traceback__)[-1]
            faults.append(f"{case}: {type(exc).__name__} at {where.filename}:{where.lineno}: {exc}")
            continue
        out, err = capsys.readouterr()
        if code not in (0, 2, 3) or "Traceback" in err:
            faults.append(f"{case}: exit {code}: {err.strip()}")
            continue
        for path in out.split():
            if not path.endswith(".csv"):
                continue
            header, *rows = (line.split(",") for line in Path(path).read_text().splitlines())
            for row in rows:
                cols = dict(zip(header, row))
                for name, text in cols.items():
                    try:
                        value = float(text)
                    except ValueError:
                        continue  # a scheme, an engine, a problem, a flag or an empty se
                    aoi_inf = name in ("aoi", "aoi_se") and value == np.inf and float(cols["aoi"]) == np.inf
                    if not (np.isfinite(value) or aoi_inf):
                        faults.append(f"{case}: {name} = {text} in {row}")
    assert not faults, "\n".join(faults[:20])


# SystemConfig and policy constructions of each case below: one config, plus
# one batch config for an snr_db or rate sweep or one config per N, and one
# policy per scheme, plus one batch policy per scheme for alpha or beta_r
RUN_CONSTRUCTIONS = {
    ("fig7", ()): (2, 2),
    ("fig7", ("system.m_r=3.0",)): (2, 2),
    ("fig7", ("experiment.sweep=n_elements", "experiment.grid=5,10,15")): (4, 2),
    ("fig8", ()): (1, 4),
    ("fig10", ()): (1, 4),
}


@pytest.mark.parametrize("preset, sets, fits, policies", [
    ("fig7", (), 1, 2),
    ("fig7", ("system.m_r=3.0",), 2, 2),
    ("fig7", ("experiment.sweep=n_elements", "experiment.grid=5,10,15"), 4, 2),
    ("fig8", (), 1, 2),
    ("fig10", (), 1, 2),
])
def test_run_fits_each_law_and_builds_each_policy_once(tmp_path, monkeypatch, preset, sets, fits, policies):
    # a sweep fits each distinct channel law once, the [system] section's
    # (N = 30) included, and builds each scheme's policy from the config
    # once; it builds no config or policy per grid point: fig7 sweeps the
    # rate, one batch config, and fig8 alpha and fig10 beta_r, one batch
    # policy per scheme
    calls = {"fit": 0, "policy": 0, "configs": 0, "policies": 0}

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
    monkeypatch.setattr(system.SystemConfig, "__post_init__", counted("configs", system.SystemConfig.__post_init__))
    monkeypatch.setattr(system, "_check_policy", counted("policies", system._check_policy))  # every policy's check
    argv = ["run", "--preset", preset, *(arg for kv in sets for arg in ("--set", kv)), "--out", str(tmp_path)]
    assert main(argv) == 0
    configs, built = RUN_CONSTRUCTIONS[preset, sets]
    assert calls == {"fit": fits, "policy": policies, "configs": configs, "policies": built}
    if not sets:
        assert hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest() == ANALYTIC_PRESET_SHA256[preset]


@pytest.mark.parametrize("command, preset, override, key", [
    ("run", "fig4", "experiment.schemes=tep,tep", "experiment.schemes"),
    ("run", "fig4", "experiment.metrics=aoi,outage_t,aoi", "experiment.metrics"),
    ("optimize", "fig11", "ga.problems=p1,p1", "ga.problems"),
    ("optimize", "fig11", "ga.problems=p2, P2", "ga.problems"),
])
def test_main_rejects_a_repeated_list_entry(tmp_path, capsys, command, preset, override, key):
    # a repeated scheme, metric or problem would write its rows or columns
    # twice; it is a config error that names the key
    argv = [command, "--preset", preset, "--set", override, "--set", "ga.generations=1", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "repeats" in err
    assert not any(tmp_path.iterdir())


def test_run_keeps_repeated_grid_values(tmp_path):
    # a repeated grid value stays legal: each of its rows appears once per
    # repeat, with the bytes of a run without the repeat
    files = {}
    for grid in ("20,25", "25,20,25"):
        argv = ["run", "--preset", "fig4", "--set", f"experiment.grid={grid}", "--trials", "3000",
                "--set", "experiment.engine=both", "--out", str(tmp_path / grid)]
        assert main(argv) == 0
        files[grid] = (tmp_path / grid / "fig4.csv").read_text().splitlines()
    header, *rows = files["20,25"]
    assert files["25,20,25"] == [header, *(row for row in rows for _ in range(1 + row.startswith("25,")))]


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

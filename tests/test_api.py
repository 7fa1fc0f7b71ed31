"""The API that code outside the package reads: the README example and the benchmark's names."""

import ast
import inspect
import math
import re
from pathlib import Path

from starwpn import analytics, channel, cli, montecarlo, optimizer, system

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Python API in one minute\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len(printed) == 3 and printed[-1] == ""


# Every name that perfbench/worker.py and perfbench/tracer.py resolve, with the
# parameter names the tracer's counters bind.  A missing name does not fail
# the benchmark: it drops the metrics built on it, as deleting
# channel.gauss_hermite_rule once dropped setup.config_s.  This list changes
# with the benchmark's hooks (ROADMAP item 8).
BENCHMARK_NAMES = {
    (cli, "build_parser"): (),
    (cli, "load_config"): (),
    (channel, "gauss_hermite_rule"): (),
    (channel, "gamma_fit"): (),
    (system, "sic_outcome"): ("gamma_t",),
    (cli, "cmd_run"): (),
    (cli, "cmd_optimize"): (),
    (cli, "_write_outputs"): (),
    (analytics, "perf_report"): (),
    (analytics, "noma_metrics_batch"): ("c_t",),
    (montecarlo, "mc_gains"): ("mc",),
    (montecarlo, "mc_outage"): (),
    (montecarlo, "mc_success"): (),
    (optimizer, "ga_run"): ("ga",),
    (optimizer, "evaluate_batch"): ("values",),
}


def test_benchmark_names_resolve():
    for (module, name), params in BENCHMARK_NAMES.items():
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{module.__name__}.{name}"
        assert set(params) <= set(inspect.signature(fn).parameters), f"{module.__name__}.{name}"
    # the worker's set-up step: resolve the preset and build the rule from its key
    cfg = cli.load_config(None, "fig4", [])
    nodes, weights = channel.gauss_hermite_rule(int(cfg["quadrature"]["gh_order"]))
    assert nodes.shape == weights.shape == (30,)
    # the traced clamp counters
    assert isinstance(analytics.clamp_stats.events, int) and isinstance(analytics.clamp_stats.checked, int)


# independent oracles that only tests call, kept on purpose: the age
# simulator, the GA's grid search, the exact mass the law tables are checked
# against, and the exact cascade sampler
ORACLES = {
    (montecarlo, "aoi_simulate"),
    (optimizer, "grid_search"),
    (channel.GammaApprox, "mass"),
    (channel, "combined_gain_sample"),
}


def test_oracles_resolve():
    # a renamed or deleted oracle must not linger here as a stale exemption
    for owner, name in ORACLES:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_public_functions_have_a_caller_in_the_package():
    # code that only tests call is deleted unless it is an oracle: every
    # public function and class of the package's modules is named somewhere
    # in src/, and every public method of channel's classes (the law's
    # interface) is read as an attribute (x.name) there, or is a benchmark
    # name or an oracle
    package = Path(analytics.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    loads = [node for tree in trees for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    attrs = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    named = attrs | {node.id for node in loads if isinstance(node, ast.Name)}
    exempt = {name for _, name in ORACLES | BENCHMARK_NAMES.keys()}
    for module in (analytics, channel, cli, montecarlo, optimizer, system):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        public = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        uncalled = [name for name in public if not name.startswith("_") and name not in named | exempt]
        assert not uncalled, f"{module.__name__}: {uncalled} have no caller in src/"
    tree = ast.parse(Path(channel.__file__).read_text(encoding="utf-8"))
    methods = [(getattr(channel, cls.name), node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert (channel.GammaApprox, "cdf") in methods
    unread = [f"{cls.__name__}.{name}" for cls, name in methods if name not in attrs and (cls, name) not in ORACLES]
    assert not unread, f"channel: {unread} are never read as an attribute in src/"


def test_only_channel_reads_the_fit_and_no_module_imports_scipy():
    # the law of G^4 is GammaApprox's methods: no other module of the package
    # reads the fit's parameters, so a second law can stand in for the Gamma
    # fit without touching its callers; and no module imports scipy, channel
    # included, so that run and optimize never load it (tests and oracles may)
    package = Path(channel.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not {name for name in imported if name.split(".")[0] == "scipy"}, f"{path.name} imports scipy"
        if path.stem != "channel":
            reads = {node.attr for node in nodes if isinstance(node, ast.Attribute)} & {"k", "theta", "sum_shape"}
            assert not reads, f"{path.name} reads {sorted(reads)} of the Gamma fit"


def test_analytics_all_names_resolve():
    # a stale entry breaks `from starwpn.analytics import *`
    assert all(hasattr(analytics, name) for name in analytics.__all__)
    exec("from starwpn.analytics import *", {})


def test_benchmark_builds_systems_and_policies_by_keyword():
    # perfbench/checks.py prices GA allocations this way: a SystemConfig and
    # a TepPolicy or EepPolicy built by keyword, then perf_report(scheme,
    # config, policy) with positional arguments
    snr_db, rate, n_elements, alpha, beta_r = 35.0, 2.0, 30, 0.3, 0.6
    config = system.SystemConfig(
        p_ap=1.0,
        n0=1.0 / 10.0 ** (snr_db / 10.0),
        d0=30.0,
        d_t=2.0,
        d_r=4.0,
        exp0=2.0,
        exp_t=2.0,
        exp_r=2.0,
        n_elements=n_elements,
        fading_ris=channel.NakagamiParams(2.0, 1.0),
        fading_t=channel.NakagamiParams(2.0, 1.0),
        fading_r=channel.NakagamiParams(2.0, 1.0),
        rate=rate,
    )
    policies = {
        "tep": system.TepPolicy(alpha_t=(1 - alpha) / 2, alpha_r=(1 - alpha) / 2, alpha_ap=alpha,
                                beta_t=1 - beta_r, beta_r=beta_r),
        "eep": system.EepPolicy(alpha_et=alpha, alpha_it=1 - alpha, beta_t=1 - beta_r, beta_r=beta_r),
    }
    for scheme, policy in policies.items():
        rep = analytics.perf_report(scheme, config, policy)
        assert 0.0 < rep.sum_throughput <= rate and 1.0 <= rep.avg_aoi < math.inf

"""The three workloads: their inputs, their shape and the CLI arguments.

Every input the checks rely on is passed explicitly, so the checks never
read the program's defaults: the model parameters (`model.PARAMS`), the
sweep grid, the schemes, the metrics and the sizes.  The benchmark seed is
handed to the CLI as `--seed`, which sets both the Monte Carlo and the GA
seed; on `analytic-sweep`, where the output does not depend on it, the seed
picks the rows that are checked against the quadrature oracle.

On `ga-optimize` the work itself depends on the seed: the GA evaluates only
the chromosomes it has not met before, and that share moves by several per
cent from seed to seed.  So each of its operations takes its own seed
(`cli_seed`), and a run's median averages over them.
"""

from dataclasses import dataclass, field

import model

ALL_METRICS = ("outage_t", "outage_r", "throughput_t", "throughput_r", "sum_throughput", "phi", "aoi")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "optimize"
    preset: str
    sets: dict = field(default_factory=dict)
    threads: int = 1
    trials: int = 0  # Monte Carlo trials, 0 for no Monte Carlo
    # shape, restated from `sets` so the checks need not parse them
    sweep_values: tuple = ()
    schemes: tuple = ()
    n_grid: tuple = ()
    problems: tuple = ()
    population: int = 0
    generations: int = 0
    seed_per_op: bool = False

    def cli_seed(self, seed, op):
        """The CLI seed of the run's `op`-th operation."""
        return seed * 1000 + op if self.seed_per_op else seed

    def argv(self, seed, out_dir, threads=None):
        args = [self.command, "--preset", self.preset, *model.set_args()]
        for key, value in self.sets.items():
            args += ["--set", f"{key}={value}"]
        args += ["--seed", str(seed), "--threads", str(threads or self.threads), "--out", str(out_dir)]
        if self.trials:
            args += ["--trials", str(self.trials)]
        return args


def _rate_grid(count, step):
    return tuple(round(step * i, 10) for i in range(1, count + 1))


def _mc_sweep(snr_db=(20, 25, 30, 35, 40, 45, 50), trials=1_000_000):
    return Workload(
        name="mc-sweep",
        command="run",
        preset="fig4",
        sets={
            "system.n_elements": 30,
            "system.rate_bps_hz": 1.0,
            "experiment.schemes": "tep,eep,tdma",
            "experiment.sweep": "snr_db",
            "experiment.grid": ",".join(str(v) for v in snr_db),
            "experiment.metrics": ",".join(ALL_METRICS),
            "experiment.engine": "both",
        },
        threads=2,
        trials=trials,
        sweep_values=tuple(float(v) for v in snr_db),
        schemes=("tep", "eep", "tdma"),
    )


def _analytic_sweep(points=248, step=0.02):
    return Workload(
        name="analytic-sweep",
        command="run",
        preset="fig7",
        sets={
            "system.snr_db": 40.0,
            "system.n_elements": 30,
            "experiment.schemes": "tep,eep",
            "experiment.sweep": "rate",
            "experiment.grid": f"{step}:{round(step * points, 10)}:{step}",
            "experiment.metrics": ",".join(ALL_METRICS),
            "experiment.engine": "analytic",
        },
        threads=1,
        sweep_values=_rate_grid(points, step),
        schemes=("tep", "eep"),
    )


def _ga_optimize(n_grid=(30,), population=50, generations=100):
    return Workload(
        name="ga-optimize",
        command="optimize",
        preset="fig11",
        sets={
            "system.snr_db": 35.0,
            "system.rate_bps_hz": 2.0,
            "ga.delta_th": 10.0,
            "ga.problems": "p1,p2",
            "ga.n_grid": ",".join(str(n) for n in n_grid),
            "ga.population": population,
            "ga.generations": generations,
        },
        n_grid=tuple(n_grid),
        problems=("p1", "p2"),
        population=population,
        generations=generations,
        seed_per_op=True,
    )


WORKLOADS = {w.name: w for w in (_mc_sweep(), _analytic_sweep(), _ga_optimize())}

# small versions of each workload for the benchmark's own tests
SMALL = {
    "mc-sweep": _mc_sweep(snr_db=(20, 35), trials=3 * 2**16 + 123),
    "analytic-sweep": _analytic_sweep(points=8, step=0.25),
    "ga-optimize": _ga_optimize(n_grid=(30,), population=8, generations=4),
}


"""A process that only simulates never imports the LP stack or networkx,
and neither does importing the experiments layer.

Every latency-vs-load point runs in a fresh process or a forked pool
worker, so whatever the simulator's import closure drags in is paid per
point: scipy (the LP's ``linprog``) and networkx (graph export) together
cost about half a second and half the process's memory.  The LP
(``repro.model``) and graph export load them on first use instead.
Static verification (the CDG and every lint rule) reads the route
table and never loads networkx.

Each case runs in a fresh interpreter, because this pytest process has
long since imported both.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HEAVY = """
import sys
heavy = sorted(
    k for k in sys.modules
    if k.split(".")[0] in ("scipy", "networkx")
)
print("HEAVY", len(heavy), heavy[:5])
"""

_SIMULATE = """
from repro.sim.engine import simulate
from repro.sim.params import SimParams
from repro.topology import Dragonfly
from repro.traffic import UniformRandom

topo = Dragonfly(2, 4, 2, 3)
result = simulate(topo, UniformRandom(topo), 0.2, routing="ugal-l",
                  params=SimParams(window_cycles=20), seed=1)
assert result.packets_measured > 0
"""

_EXECUTOR = """
import sys
from repro.perf import SimCache, SimTask, SweepExecutor
from repro.sim.params import SimParams
from repro.topology import Dragonfly
from repro.traffic import UniformRandom

topo = Dragonfly(2, 4, 2, 3)
tasks = [
    SimTask(topo, UniformRandom(topo), load, routing="min",
            params=SimParams(window_cycles=20), seed=1)
    for load in (0.1, 0.2)
]
cache = SimCache(sys.argv[1])
with SweepExecutor(jobs=1, cache=cache) as ex:
    cold = ex.run(tasks)
with SweepExecutor(jobs=1, cache=cache) as ex:
    warm = ex.run(tasks)
    assert ex.cache_hits == len(tasks), ex.cache_hits
assert [r.avg_latency for r in cold] == [r.avg_latency for r in warm]
"""

_CLI = """
from repro.cli import main
assert main(["sim", "-t", "2,4,2,3", "--window", "20"]) in (0, None)
"""

_MODEL = """
import sys
from repro.model.sweep import step1_sweep
from repro.core.datapoints import table1_datapoints
from repro.topology import Dragonfly
from repro.traffic import Shift

topo = Dragonfly(2, 4, 2, 3)
(point,) = step1_sweep(topo, [Shift(topo, 1, 0)],
                       table1_datapoints(step=0.5)[:1])
assert 0.0 < point.mean_throughput <= 1.0, point
assert "scipy.optimize" in sys.modules
"""


_EXPERIMENTS = """
import repro.experiments
"""

_DATAPOINTS = """
from repro.core.datapoints import table1_datapoints

assert table1_datapoints(step=0.5)
"""


_NETWORKX = """
import sys
print("NETWORKX", sorted(k for k in sys.modules if k.split(".")[0] == "networkx"))
"""

_VERIFY = """
from repro.topology import Dragonfly
from repro.verify import verify_config

report = verify_config(Dragonfly(2, 4, 2, 3))
assert report.passed and report.cdg.certified, report.to_text()
"""


def _heavy_modules(code: str, *args: str, probe: str = _HEAVY) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-c", code + probe, *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[-1]
    assert line.startswith(("HEAVY ", "NETWORKX ")), proc.stdout
    return line


@pytest.mark.parametrize(
    "code", [_SIMULATE, _CLI], ids=["simulate", "cli-sim"]
)
def test_simulation_loads_no_lp_stack(code):
    assert _heavy_modules(code) == "HEAVY 0 []"


def test_executor_sim_batches_load_no_lp_stack(tmp_path):
    assert _heavy_modules(_EXECUTOR, str(tmp_path)) == "HEAVY 0 []"


@pytest.mark.parametrize(
    "code", [_EXPERIMENTS, _DATAPOINTS], ids=["experiments", "datapoints"]
)
def test_importing_the_experiments_layer_loads_no_lp_stack(code):
    """The package inits of ``repro.core`` and ``repro.model`` import
    their modules on first use, so the figure registry and the Table-1
    grid do not pay for the LP stack."""
    assert _heavy_modules(code) == "HEAVY 0 []"


def test_model_solve_loads_lp_stack_on_first_use():
    assert _heavy_modules(_MODEL) != "HEAVY 0 []"


def test_verification_loads_no_networkx():
    assert _heavy_modules(_VERIFY, probe=_NETWORKX) == "NETWORKX []"

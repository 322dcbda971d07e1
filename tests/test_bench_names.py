"""The benchmark's tracer must find every name its declared metrics need.

`perfbench/tracer.py` wraps trisol functions by module and attribute name.
A renamed or removed function drops the metrics that need it from every
traced result, so the result no longer carries the per-layer names that
BENCHMARK.json declares.  A function the tracer does not wrap runs outside
every span, and its time counts only as `trace.unaccounted_s`.  `install()`
patches modules, so it runs in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
t = tracer.Tracer()
t.install()
print(json.dumps({"missing": t.missing, "metrics": {
    name: needs for name, (_, _, needs) in tracer.METRICS.items()}}))
"""

# per-layer names that run.py adds outside tracer.METRICS
EXTRA = {"cli.bytes_written", "trace.overhead_s", "trace.unaccounted_s"}


def test_tracer_finds_every_name_the_declared_metrics_need():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    probe = json.loads(out.splitlines()[-1])
    absent = sorted(name for name, needs in probe["metrics"].items()
                    if set(needs) & set(probe["missing"]))
    assert absent == [], f"absent {absent}: missing {probe['missing']}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(probe["metrics"]) | EXTRA == {m["name"] for m in declared}


ORACLE_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from trisol import cli, oracle
t = tracer.Tracer()
t.install()
inside, integrate = [], oracle._integrate

def recorded(*args):
    inside.append(sum(t.active.values()) > 0)
    return integrate(*args)

oracle._integrate = recorded
rc = cli.main(["oracle", "--config", sys.argv[3]])
print(json.dumps({"rc": rc, "inside": inside, "missing": t.missing}))
"""

# wrapped by the tracer, but no longer defined in trisol
DEAD = {"mountainpass.morse_index"}


def test_traced_oracle_runs_every_rk4_pass_inside_a_span(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\noracle.slope_min = 30\noracle.slope_max = 40\n"
                   "oracle.slope_step = 0.05\noracle.steps = 1024\n")
    out = subprocess.run(
        [sys.executable, "-c", ORACLE_PROBE, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(cfg)], capture_output=True, text=True, check=True, cwd=ROOT).stdout
    probe = json.loads(out.splitlines()[-1])
    assert probe["rc"] == 0
    assert len(probe["inside"]) >= 3 and all(probe["inside"]), probe["inside"]
    assert set(probe["missing"]) <= DEAD, probe["missing"]

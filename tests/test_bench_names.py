"""The benchmark's tracer must find every name its declared metrics need.

`perfbench/tracer.py` wraps trisol functions by module and attribute name.
A renamed or removed function drops the metrics that need it from every
traced result, so the result no longer carries the per-layer names that
BENCHMARK.json declares.  `install()` patches modules, so it runs in a
subprocess.
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

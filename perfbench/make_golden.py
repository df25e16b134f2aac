"""Regenerate the golden verdicts of every workload at the default seed.

    python3 perfbench/make_golden.py

Run it only on a commit whose verdicts are known to be right: the
benchmark counts every later difference from these files as an error.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

for name, cls in WORKLOADS.items():
    wl = cls()
    outcomes = [wl.run(op) for op in wl.prepare(DEFAULT_SEED)]
    doc = {"seed": DEFAULT_SEED, "seed_independent": cls.seed_independent,
           "ops": {o.key: o.skeleton for o in outcomes}}
    path = HERE / "golden" / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    codes = [o.exit_code for o in outcomes]
    print(f"{path.name}: {len(outcomes)} operations, exit codes {codes}")

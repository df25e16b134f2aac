"""Print the sha256 of the reports a refactor must leave byte-identical.

    python3 scripts/report_digest.py > digests.txt

One line per report: json and csv of ``reduce`` and ``deform`` for every
catalog case at seeds 7 and 8 (12 samples), then the json of ``sweep`` at
seed 7, then the json of ``catalog`` without its header, so that the last
line follows only what the catalog builders produce.  Run it on two commits
and compare the outputs with ``diff``.
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkw.catalog import catalog_names  # noqa: E402
from gkw.report import RunConfig, emit, run, run_sweep  # noqa: E402

SEEDS = (7, 8)
SAMPLES = 12


def _line(label, payload):
    print(f"{hashlib.sha256(payload).hexdigest()}  {label}", flush=True)


def main():
    for name in catalog_names():
        for command in ("reduce", "deform"):
            for seed in SEEDS:
                rep = run(RunConfig(command, case=name, samples=SAMPLES, seed=seed))
                for fmt in ("json", "csv"):
                    _line(f"{command} {name} seed={seed} {fmt}", emit(rep, fmt))
    _line("sweep seed=7 json", emit(run_sweep(RunConfig("sweep", seed=7)), "json"))
    catalog = run(RunConfig("catalog"))
    _line("catalog json (no header)", emit({"sections": catalog["sections"]}, "json"))


if __name__ == "__main__":
    main()

"""Print the sha256 of the reports a refactor must leave byte-identical.

    python3 scripts/report_digest.py > digests.txt
    python3 scripts/report_digest.py --against digests.txt

One line per report: json and csv of ``reduce`` and ``deform`` for every
catalog case at seeds 7 and 8 (12 samples), then the same of the README's
example scenario file (its header's ``scenario_file`` read as the file's
base name, so the line does not depend on where the file was written),
then the json of ``sweep`` at seed 7, then the json of ``catalog`` without
its header, so that the last line follows only what the catalog builders
produce.  Each json line is followed by a ``verdict`` line: the digest of
the same report with every float value removed
(``perfbench.workloads.strip_floats``), so a change that moves only float
diagnostics shows that its verdicts did not move.
Save the output on one commit; on another, ``--against FILE`` prints only
the labels whose digest differs from FILE (or that either side lacks) and
exits 1 if there is any, 0 if every report is byte-identical.
"""
import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from gkw.catalog import catalog_names  # noqa: E402
from gkw.report import RunConfig, emit, run, run_sweep  # noqa: E402
from perfbench.workloads import strip_floats  # noqa: E402

SEEDS = (7, 8)
SAMPLES = 12
SCENARIO_FILE = "example.json"


def verdict(doc):
    """The bytes a verdict line digests: the report ``doc`` without its
    float values."""
    return json.dumps(strip_floats(doc), sort_keys=True).encode()


def with_verdict(label, payload):
    """The json line (label, payload), then its verdict line: the label with
    ``json`` read as ``verdict``, and the report without its float values."""
    yield label, payload
    yield label.replace("json", "verdict", 1), verdict(json.loads(payload))


def readme_scenario():
    """The text of the example document in the README's "Scenario files"
    section: its first json block."""
    section = (ROOT / "README.md").read_text().split("## Scenario files", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def json_and_csv(label, rep):
    """The json lines of report ``rep`` (``with_verdict``), then its csv line."""
    yield from with_verdict(f"{label} json", emit(rep, "json"))
    yield f"{label} csv", emit(rep, "csv")


def reports():
    """(label, report bytes) in the fixed order of the digest lines."""
    for name in catalog_names():
        for command in ("reduce", "deform"):
            for seed in SEEDS:
                rep = run(RunConfig(command, case=name, samples=SAMPLES, seed=seed))
                yield from json_and_csv(f"{command} {name} seed={seed}", rep)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / SCENARIO_FILE
        path.write_text(readme_scenario())
        for command in ("reduce", "deform"):
            for seed in SEEDS:
                rep = run(RunConfig(command, scenario_file=str(path), samples=SAMPLES,
                                    seed=seed))
                rep["header"]["scenario_file"] = SCENARIO_FILE
                yield from json_and_csv(f"{command} readme-scenario seed={seed}", rep)
    yield from with_verdict("sweep seed=7 json", emit(run_sweep(RunConfig("sweep", seed=7)), "json"))
    catalog = run(RunConfig("catalog"))
    yield from with_verdict("catalog json (no header)",
                            emit({"sections": catalog["sections"]}, "json"))


def read_digests(path):
    """label -> digest of a saved run."""
    saved = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            digest, label = line.split("  ", 1)
            saved[label] = digest
    return saved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="a saved run; print the labels whose digest differs, exit 1 if any")
    args = parser.parse_args(argv)
    saved = read_digests(args.against) if args.against is not None else None
    differs = 0
    for label, payload in reports():
        digest = hashlib.sha256(payload).hexdigest()
        if saved is None:
            print(f"{digest}  {label}", flush=True)
        elif saved.pop(label, None) != digest:
            print(label, flush=True)
            differs += 1
    for label in saved or ():
        print(f"{label} (only in {args.against})")
        differs += 1
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

"""``scripts/seed_scan.py`` reports every run's ``gkw`` exit code: its
histogram and its list of runs that did not exit 0 agree with ``gkw reduce``
run by run."""
import os
import sys
from pathlib import Path

from gkw import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import seed_scan  # noqa: E402


def test_scan_of_two_cases_by_two_seeds_matches_gkw_reduce(capsys):
    cases, seeds = ["cpn-2", "hirzebruch-2"], (31, 32)
    status = seed_scan.main(["--cases", *cases, "--seeds", "31", "32"])
    out = capsys.readouterr().out.splitlines()
    want = {(name, seed): cli.main(["reduce", "--case", name, "--samples", "16",
                                    "--seed", str(seed), "--format", "json", "--out", os.devnull])
            for name in cases for seed in seeds}
    assert out[0].startswith("reduce: 2 cases x seeds 31-32, 16 samples: 4 runs in ")
    codes = sorted(set(want.values()))
    assert out[1:1 + len(codes)] == [f"exit {c}: {list(want.values()).count(c)}" for c in codes]
    assert out[1 + len(codes):] == [f"not 0: {name} seed={seed} exit {code}"
                                    for (name, seed), code in want.items() if code != 0]
    assert status == (1 if any(want.values()) else 0)

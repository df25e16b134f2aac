"""The report contract in the suite: the csv and the float-free verdict of
every report that ``scripts/report_digest.py`` digests (``reduce`` and
``deform`` for every catalog case at seeds 7 and 8, ``sweep`` at seed 7 and
``catalog``) are pinned by their sha256 in ``report_digests.txt``.  The
verdicts are digested without the header's ``numpy`` and ``version`` keys,
which name the software that ran the report, so the file holds on any
machine.  A change that moves a verdict rewrites the file with

    python3 tests/test_report_digests.py > tests/report_digests.txt

and names each moved line in ``CHANGES.md``."""
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import report_digest  # noqa: E402

GOLDEN = Path(__file__).with_name("report_digests.txt")
ENVIRONMENT_KEYS = ("numpy", "version")


def portable_digests():
    """(label, sha256) of each csv line of ``report_digest`` and of each
    verdict line, recomputed without the header's environment keys."""
    for label, payload in report_digest.reports():
        if label.endswith(" csv"):
            yield label, hashlib.sha256(payload).hexdigest()
        elif " json" in label:
            doc = json.loads(payload)
            for key in ENVIRONMENT_KEYS:
                doc.get("header", {}).pop(key, None)
            yield (label.replace("json", "verdict", 1),
                   hashlib.sha256(report_digest.verdict(doc)).hexdigest())


def test_every_csv_and_verdict_digest_is_the_pinned_one():
    pinned = report_digest.read_digests(GOLDEN)
    digests = dict(portable_digests())
    assert len(digests) == 90
    assert sorted(label for label in pinned.keys() | digests.keys()
                  if pinned.get(label) != digests.get(label)) == []


if __name__ == "__main__":
    for label, digest in portable_digests():
        print(f"{digest}  {label}")

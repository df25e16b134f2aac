"""Time one set-up in this fresh process: ``import gkw`` plus ``build_case``
for each case named on the command line.  Prints the seconds taken.

    python3 perfbench/setup_probe.py cpn-2 grassmann-2-3 kahler-c3
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import gkw  # noqa: E402

for name in sys.argv[1:]:
    gkw.build_case(name)
print(repr(time.perf_counter() - t0))

"""Put the benchmark's modules and the program's sources on the path.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

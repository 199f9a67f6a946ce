import sys
from pathlib import Path

# run.py imports the harness modules beside it as top-level modules, and the
# benchmark measures the package under the checkout's src/.
_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]

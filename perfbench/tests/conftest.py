import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

# The benchmark's modules import each other as top-level modules, the way
# ``python3 perfbench/run.py`` puts its own directory on sys.path, and
# import amptree from the checkout's src.
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

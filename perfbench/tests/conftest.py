import sys
from pathlib import Path

# the benchmark's modules sit flat in perfbench/, as run.py imports them
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

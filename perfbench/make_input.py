"""Write a benchmark input CSV with the program's own synthesizer.

Run as a script it is the benchmark's set-up step, timed in a fresh
interpreter: import embgep, generate ``--rows`` surrogate case histories
from ``--seed`` and save them.

    python3 perfbench/make_input.py --rows 85 --seed 1 --out input.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def make_input(rows: int, seed: int, out: Path) -> None:
    import numpy as np

    from embgep import data

    records = data.synthesize(data.EMBANKMENT_SUMMARY, rows, np.random.default_rng(seed))
    data.save(records, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    make_input(args.rows, args.seed, args.out)


if __name__ == "__main__":
    main()

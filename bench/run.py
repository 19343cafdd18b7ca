"""Benchmark entry point; see bench/README.md.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs against the pbsgame sources in ``src/`` of the same checkout and refuses
to run without them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "pbsgame" / "__init__.py").is_file():
        print(f"error: no pbsgame sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import pbsgame

    if Path(pbsgame.__file__).resolve().parent != SRC / "pbsgame":
        print(f"error: imported pbsgame from {pbsgame.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    from pbsbench.harness import main

    sys.exit(main())

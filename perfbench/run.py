"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  The program is imported from the
checkout's own ``src/``; without it the benchmark exits with code 2 and
prints no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> bool:
    """Put ``<checkout>/src`` first on the path; True if repro is there."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(source))
    import repro

    return Path(repro.__file__).resolve().parent == source / "repro"


def main() -> int:
    if not use_checkout_source():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import driver

    return driver.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())

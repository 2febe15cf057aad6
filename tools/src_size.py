"""Size of the `fdosc` source, per module and in total.

    python3 tools/src_size.py

Prints one line `<module> <lines>` per module of `src/fdosc`, largest
first, then `total <lines>`.  A line counts when it is neither blank nor a
`#` comment; docstrings count.  This is the size count that ROADMAP.md
quotes.  Run it on two source trees to compare them.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fdosc"


def counted_lines(text: str) -> int:
    """Lines that are neither blank nor a `#` comment."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def sizes() -> dict[str, int]:
    """Counted lines of each module of src/fdosc, largest first."""
    counts = {path.stem: counted_lines(path.read_text()) for path in SRC.glob("*.py")}
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def main() -> int:
    counts = sizes()
    for module, n in counts.items():
        print(f"{module} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench: the launch path measured end to end and layer by layer.

Five workloads (``perfbench.workloads``), five end-to-end metrics plus a
failure count (``perfbench.metrics``), and a traced pass that times every
public layer boundary from outside the program (``perfbench.layers``).
Nothing under ``src/`` knows this package exists.  See ``README.md``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def bootstrap() -> None:
    """Make the program under test importable from this checkout.

    Entry points call this before importing anything that imports
    ``repro``; a checkout without the program is an error, not a silent
    fall-through to some other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program to measure: {SRC}/repro is missing\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(1, ROOT)
    os.makedirs(OUT, exist_ok=True)

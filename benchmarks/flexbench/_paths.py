"""Where things are: the harness runs from any checkout of the repo."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def use_repo_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    src = os.path.join(REPO, "src")
    if src not in sys.path:
        sys.path.insert(0, src)

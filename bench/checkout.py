"""Locate the checkout the benchmark runs in and import fanoscope from it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "fanoscope-bench"
EXPECTED = Path(__file__).with_name("expected.json")


def require_source() -> Path:
    """Put the checkout's `src/` first on sys.path and check that fanoscope
    resolves there, so an installed copy is never measured instead.  Exits
    with code 2 when the checkout holds no source."""
    if not (SRC / "fanoscope" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no fanoscope source under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fanoscope
    if SRC not in Path(fanoscope.__file__).resolve().parents:
        sys.stderr.write(f"bench: fanoscope imported from {fanoscope.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)
    return SRC

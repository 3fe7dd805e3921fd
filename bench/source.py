"""Make `import paclab` load the package from this checkout's src/ tree.

Importing this module puts <checkout>/src first on sys.path and imports
paclab from there. It raises ImportError when the sources are missing or
when another installed copy of paclab would be measured instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "paclab" / "__init__.py").is_file():
    raise ImportError(f"paclab sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import paclab  # noqa: E402

if Path(paclab.__file__).resolve().parent != SRC / "paclab":
    raise ImportError(f"paclab was imported from {paclab.__file__}, not from {SRC}")

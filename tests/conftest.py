import sys
from pathlib import Path

from hypothesis import settings

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"

sys.path.insert(0, str(REPO_ROOT / "src"))

# Every property test draws the same examples on every run and has no
# per-example deadline, so a slow machine cannot make it flake; tests
# that need more examples than the bound raise it in their own settings.
settings.register_profile(
    "ncregions", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("ncregions")

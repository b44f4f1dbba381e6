import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# tests that start a fresh interpreter import the package from the same tree
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

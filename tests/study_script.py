"""The flagship involution study, loaded from its script: its config, hours
policies and trace reader have one home, scripts/run_involution_study.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_involution_study.py"


def load_study():
    """A fresh module of the study script, so that a test may patch its
    globals; the ``__main__`` guard keeps ``main()`` from running."""
    spec = importlib.util.spec_from_file_location("run_involution_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

import os
import sys
from pathlib import Path

# Subprocesses that run the package (``python -m squintsense.cli``) import the
# working tree too, not only this process through pytest's ``pythonpath``.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance results after the test run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", ()) if module else ()
    if lines:
        terminalreporter.write_sep("-", "acceptance results")
        for line in lines:
            terminalreporter.write_line(line)

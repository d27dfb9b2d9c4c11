import os
import sys

# One OpenBLAS thread unless the caller set a count: with two threads on a
# two-core host that another process shares, the threads oversubscribe the
# cores and a BLAS-heavy test runs many times slower.  OpenBLAS reads this
# when numpy is first imported, so nothing may import numpy before this
# file is loaded (see pytest_configure).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, __file__.rsplit("/", 1)[0])

# One line per acceptance criterion, echoed after the run even when
# stdout capture is on.  test_acceptance.py appends to this.
acceptance_lines: list[str] = []


def pytest_configure(config):
    # declared here, not in pyproject.toml: pytest resolves an ini warning
    # category, and so imports the package and numpy, before loading this file
    config.addinivalue_line("filterwarnings", "ignore::pcpsketch.errors.WidthNotReducingWarning")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

"""Shared test configuration: a deterministic hypothesis profile.

Property tests draw the same examples on every run and keep no example
database.  Hypothesis still caches the constants it reads from the source;
its home directory is a temporary one, removed when the session ends, so no
`.hypothesis/` directory appears in the working directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)

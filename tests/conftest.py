import os

import numpy as np
import pytest

from suite_support import RESULTS, THETA_SEED, load_or_train_theta, theta_fingerprint


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {number}] {status}: {detail}")


@pytest.fixture(scope="session")
def shipped_theta():
    """The meta-trained optimizer used by every acceptance criterion.

    Loaded from the tracked cache when its fingerprint matches the
    current recipe and architecture; otherwise retrained with the shipped
    staged recipe (about a minute) and written back to the cache.
    """
    from epturbo.metaopt import meta_train_recipe

    cache = os.environ.get("EPTURBO_THETA_CACHE",
                           os.path.join(os.path.dirname(__file__),
                                        ".theta_cache.json"))
    return load_or_train_theta(
        cache, theta_fingerprint(),
        lambda: meta_train_recipe(rng=np.random.default_rng(THETA_SEED))[0],
    )

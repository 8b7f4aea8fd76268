"""Helpers the test modules import by name.

They live here, not in conftest.py, because `bench/tests` has a
conftest.py of its own: when both suites run in one session, the module
named `conftest` is whichever pytest loaded last.
"""

import hashlib
import inspect
import json
import os

RESULTS = []


def record_criterion(number, passed, detail):
    """Collect one acceptance-criterion outcome for the terminal summary."""
    RESULTS.append((number, passed, detail))


# seed of the generator handed to meta_train_recipe for the shipped weights
THETA_SEED = 2


def theta_fingerprint():
    """Hash of everything that determines the shipped optimizer weights.

    Covers meta_train_recipe's arguments (its defaults plus the seed) and
    the optimizer architecture document, so a cached file produced by a
    different recipe or architecture never matches.
    """
    from epturbo.metaopt import ARCH, meta_train_recipe

    recipe = {name: p.default
              for name, p in inspect.signature(meta_train_recipe).parameters.items()
              if name != "rng"}
    key = {"recipe": recipe, "seed": THETA_SEED, "arch": ARCH}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def load_or_train_theta(path, fingerprint, train):
    """Load cached optimizer weights whose fingerprint matches, else retrain.

    `train()` returns fresh weights; they are written to `path` together
    with the fingerprint.  A cache with the right fingerprint that fails
    to parse is an error, not a reason to retrain silently.
    """
    from epturbo.metaopt import LstmOptimizerParams

    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("fingerprint") == fingerprint:
            return LstmOptimizerParams.from_doc(doc)
    theta = train()
    doc = theta.to_doc()
    doc["fingerprint"] = fingerprint
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return theta

"""One in-process round of the benchmark's `train` activity.

The round meta-trains a slice, adapts EPNet damping online, and checks
the online loss and gradient against cold `_epnet_core` runs on the
training set's per-instance site pairs.  Every check must pass.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def test_train_round_passes_every_check(tmp_path):
    act = workloads.Training(3, str(tmp_path), ROOT)
    act.setup()
    fails, figures = act.run_round(0)
    assert all(not msgs for msgs in fails.values()), fails
    assert figures["online_train_s"] > 0

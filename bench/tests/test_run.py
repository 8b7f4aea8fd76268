"""The run loop: step interleaving and the reported quartile."""

import time

import run


class Counting:
    """An activity whose rounds take `steps` steps of about `step_s`."""

    def __init__(self, name, steps, step_s, log):
        self.name, self.n, self.step_s, self.log = name, steps, step_s, log

    def ops(self):
        return [(self.name, None)]

    def steps(self, k):
        for i in range(self.n):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < self.step_s:
                pass
            self.log.append((self.name, k, i))
            if i < self.n - 1:
                yield
        return {op: [] for op in self.ops()}, {"x": float(k)}


def test_rounds_interleave_and_finish_whole():
    log = []
    own = run.Rounds(Counting("a", 1, 0.003, log), 0.5)
    other = run.Rounds(Counting("b", 3, 0.003, log), 0.5)
    own.run()
    run.interleave([own, other], time.perf_counter() + 0.1, lambda: None)
    assert own.current is None and other.current is None
    # every round of b ran all its steps, in order
    for k in range(len(other.figures)):
        assert [i for n, kk, i in log if n == "b" and kk == k] == [0, 1, 2]
    # a's rounds ran between the steps of b's rounds
    spans = [[j for j, e in enumerate(log) if e[:2] == ("b", k)]
             for k in range(len(other.figures))]
    assert any(log[j][0] == "a" for b in spans for j in range(b[0], b[-1]))
    assert abs(own.busy - other.busy) < 0.5 * (own.busy + other.busy)
    assert len(own.ops) == len(own.figures) and not any(
        m for *_, m in own.ops)


def test_failed_round_counts_every_operation():
    class Failing(Counting):
        def steps(self, k):
            yield
            raise ValueError("boom")

    rounds = run.Rounds(Failing("c", 1, 0.0, []), 1.0)
    rounds.run()
    assert rounds.ops == [("c", 0, ("c", None), ["ValueError: boom"])]


def test_best_quartile_takes_the_better_side():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.best_quartile("online_epoch_ms", samples) == 2.0
    assert run.best_quartile("ep_frames_per_s", samples) == 4.0
    assert run.best_quartile("sweep_s", [7.5]) == 7.5
    assert run.run_figures([{"sweep_s": 3.0, "online_epoch_ms": [4.0, 2.0]},
                            {"sweep_s": 1.0}]) == {
        "sweep_s": 1.5, "online_epoch_ms": 2.5}

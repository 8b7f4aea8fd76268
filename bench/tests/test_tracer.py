import sys

import pytest

import layers
from tracer import INFO, NAME, Tracer, children, self_times


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] > a [1, 4] > a1 [2, 3]; outer > b [5, 9]
    tr = Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    a1 = tr.wrap(lambda: None, "a1")
    a = tr.wrap(lambda: a1(), "a")
    b = tr.wrap(lambda: None, "b")
    outer = tr.wrap(lambda: (a(), b()), "outer")
    with tr.tracing():
        outer()
    assert [s[NAME] for s in tr.spans] == ["outer", "a", "a1", "b"]
    assert self_times(tr.spans) == [3, 2, 1, 4]
    assert children(tr.spans) == [[1, 3], [2], [], []]


def test_hook_time_is_charged_to_no_span():
    # outer [0, 10] holds f [1, 2]; f's hook runs from 3 to 7
    tr = Tracer(clock=scripted_clock([0, 1, 2, 3, 7, 10]))
    f = tr.wrap(lambda x: x + 1, "f", on_call=lambda a, k, out: {"out": out})
    outer = tr.wrap(lambda: f(1), "outer")
    with tr.tracing():
        assert outer() == 2
    assert tr.spans[1][INFO] == {"out": 2}
    assert self_times(tr.spans) == [10 - 1 - 4, 1]


def test_calls_outside_tracing_record_nothing():
    tr = Tracer()
    f = tr.wrap(lambda: 3, "f")
    assert f() == 3
    with tr.tracing():
        pass
    assert tr.spans == []


def test_wrappers_reach_every_import_site_and_come_off():
    from epturbo import epdetect, harness, metaopt, modem, turbocode

    sites = {
        "_epnet_core": (epdetect, harness, metaopt),
        "demap_llr": (modem, harness, epdetect),
        "map_bits": (modem, harness, metaopt),
        "jdd_receive_batch": (epdetect, harness),
        "_decode_batch": (turbocode, epdetect),
    }
    before = {(m.__name__, n): getattr(m, n)
              for n, mods in sites.items() for m in mods}
    run_before = epdetect.EpWorkspace.run
    sample_before = metaopt.QuadraticTask.__dict__["sample"]
    tr = Tracer()
    layers.install(tr)
    try:
        for name, mods in sites.items():
            wrapped = {id(getattr(m, name)) for m in mods}
            assert len(wrapped) == 1, name
            assert getattr(mods[0], name).__wrapped__ is before[
                mods[0].__name__, name]
        assert epdetect.EpWorkspace.run is not run_before
        assert isinstance(metaopt.QuadraticTask.__dict__["sample"],
                          classmethod)
    finally:
        tr.uninstall()
    for (mod, name), fn in before.items():
        assert getattr(sys.modules[mod], name) is fn
    assert epdetect.EpWorkspace.run is run_before
    assert metaopt.QuadraticTask.__dict__["sample"] is sample_before


def test_install_rejects_missing_target():
    with pytest.raises(AttributeError):
        Tracer().install("epturbo.epdetect:no_such_function", "x")


def test_useful_frame_ratio_replays_the_stop_rule():
    def chunk(i, errs):
        return {"chunk": i, "frames": 10, "min_bit_errors": 5,
                "max_bits": 10_000, "result": {"v": [100, errs, 10, 1]}}

    # point 1 reaches 5 errors after chunk 2 of 4; point 2 never does
    chunks = ([chunk(i, e) for i, e in enumerate([2, 3, 0, 0])]
              + [chunk(i, 0) for i in range(4)])
    assert layers.useful_frame_ratio(chunks) == pytest.approx((20 + 40) / 80)

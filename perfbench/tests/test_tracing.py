import sys
import types

import pytest

from perfbench.tracing import NullTracer, Patch, Span, Tracer, covered, outer_counts, self_times


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 20.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(12.0, 15.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "bench", 0.0, 10.0),
        Span(1, 0, "report.build", 1.0, 9.0),
        Span(2, 1, "stats.quantreg", 2.0, 6.0),
        Span(3, 2, "simsys", 3.0, 4.0),
        Span(4, 1, "simsys", 7.0, 8.0),
    ]
    own = self_times(spans)
    assert own["bench"] == pytest.approx(2.0)
    assert own["report.build"] == pytest.approx(3.0)
    assert own["stats.quantreg"] == pytest.approx(3.0)
    assert own["simsys"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_nested_spans_of_one_bucket_count_once():
    spans = [
        Span(0, None, "bench", 0.0, 4.0),
        Span(1, 0, "simsys", 0.0, 3.0, {"simsys.values": 10.0}),
        Span(2, 1, "simsys", 1.0, 2.0, {"simsys.values": 10.0}),
        Span(3, 0, "simsys", 3.0, 4.0, {"simsys.values": 5.0}),
    ]
    assert outer_counts(spans) == {"simsys.values": 15.0}
    assert self_times(spans)["simsys"] == pytest.approx(4.0)


def test_tracer_records_parents_from_the_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench"):
        with tracer.span("simsys"):
            pass
    root, child = tracer.spans
    assert child.parent == root.id
    assert (root.start, root.end, child.start, child.end) == (0.0, 3.0, 1.0, 2.0)
    assert self_times(tracer.spans) == {"bench": 2.0, "simsys": 1.0}
    with NullTracer().span("bench"):
        pass


def test_patch_wraps_every_alias_and_restores_it():
    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")

    def work(x):
        return x * 2

    class Thing:
        def method(self):
            return work(1)

        @classmethod
        def make(cls):
            return cls()

    home.work = alias.work = work
    sys.modules[home.__name__] = home
    sys.modules[alias.__name__] = alias
    try:
        tracer = Tracer()
        with Patch(tracer) as patch:
            patch.add(home, "work", "simsys", lambda a, k, r: {"simsys.values": float(r)})
            patch.add(Thing, "method", "stats.other")
            patch.add(Thing, "make", "core.campaign")
            assert alias.work(3) == 6
            assert Thing.make().method() == 2
        assert [s.name for s in tracer.spans] == ["simsys", "core.campaign", "stats.other"]
        assert outer_counts(tracer.spans) == {"simsys.values": 6.0}
        assert home.work is work and alias.work is work
        assert Thing.__dict__["method"].__name__ == "method"
        assert isinstance(Thing.__dict__["make"], classmethod)
        assert not hasattr(Thing.__dict__["method"], "__wrapped__")
    finally:
        del sys.modules[home.__name__], sys.modules[alias.__name__]

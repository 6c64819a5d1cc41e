"""Self-tests of the benchmark: transparent wrappers, self-time arithmetic,
metric naming and the contract of BENCHMARK.json.

    python3 -m pytest -q benchmark
"""

import json
import os
import types

import pytest

import harness
import layers
from tracer import Tracer
from workloads import WORKLOADS, fingerprint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Advances by one tick per reading, so every duration is exact."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_module():
    mod = types.ModuleType("fake_layer")

    def add(a, b=1):
        return a + b

    def boom(exc):
        raise exc

    add.__module__ = boom.__module__ = mod.__name__
    mod.add, mod.boom = add, boom
    return mod


def test_wrapper_returns_same_values_and_reraises_same_exception():
    mod = make_module()
    tracer = Tracer()
    tracer.install([mod])
    assert mod.add(2) == 3 and mod.add(2, b=5) == 7
    err = KeyError("k")
    with pytest.raises(KeyError) as info:
        mod.boom(err)
    assert info.value is err
    assert [s[0] for s in tracer.spans] == ["fake_layer.add", "fake_layer.add",
                                            "fake_layer.boom"]
    tracer.uninstall()
    assert mod.add.__name__ == "add" and not hasattr(mod.add, "__wrapped__")


def test_install_rebinds_every_namespace_and_uninstall_restores():
    from consol import cli, local_net, q_learning
    originals = (local_net.make_structure, q_learning.make_structure,
                 cli.run_search, q_learning.ReplayBuffer.sample)
    tracer = Tracer()
    tracer.install(layers.traced_modules())
    try:
        assert q_learning.make_structure is local_net.make_structure
        assert q_learning.make_structure.__wrapped__ is originals[0]
        assert cli.run_search.__wrapped__ is originals[2]
        assert q_learning.ReplayBuffer.sample.__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (local_net.make_structure, q_learning.make_structure,
            cli.run_search, q_learning.ReplayBuffer.sample) == originals


def test_traced_consol_fit_matches_untraced_and_counts_epochs():
    workload = WORKLOADS["landscape_probe"]     # set-up fits the toy optimum
    plain = workload.setup(0, workdir=None)
    tracer = Tracer(layers.EPISODE_FN, layers.OBSERVERS)
    tracer.install(layers.traced_modules())
    try:
        traced = workload.setup(0, workdir=None)
    finally:
        tracer.uninstall()
    assert (plain["weights"].inner == traced["weights"].inner).all()
    for k, w in plain["weights"].summations.items():
        assert (w == traced["weights"].summations[k]).all()
    summary = tracer.summary()
    assert summary["local_net.fit_trace"]["epochs"] == 1000
    assert summary["local_net.gradients"]["calls"] == 1001


def test_self_times_of_nested_spans_add_up():
    mod = make_module()

    def nested(a, b=1):
        return mod.add(mod.add(a)) + b

    nested.__module__ = mod.__name__
    mod.nested = nested
    tracer = Tracer(clock=FakeClock())
    tracer.install([mod])
    try:
        assert mod.nested(1) == 4
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    top = [s for s in tracer.spans if s[3] == -1]
    assert len(top) == 1
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(
        top[0][2] - top[0][1])
    assert summary["fake_layer.add"]["calls"] == 2
    assert summary["fake_layer.add"]["self_s"] == pytest.approx(2.0)
    assert summary["fake_layer.nested"]["self_s"] == pytest.approx(3.0)


def test_recursive_spans_count_inclusive_time_once():
    mod = types.ModuleType("rec")

    def down(n):
        return 0 if n == 0 else mod.down(n - 1)

    down.__module__ = "rec"
    mod.down = down
    tracer = Tracer(clock=FakeClock())
    tracer.install([mod])
    try:
        mod.down(3)
    finally:
        tracer.uninstall()
    row = tracer.summary()["rec.down"]
    outer = tracer.spans[0]
    assert row["calls"] == 4
    assert row["s"] == pytest.approx(outer[2] - outer[1])


def test_observer_counters_accumulate():
    mod = make_module()
    tracer = Tracer(observers={"fake_layer.add": lambda a, k, r: {"sum": r}})
    tracer.install([mod])
    try:
        mod.add(1)
        mod.add(10)
    finally:
        tracer.uninstall()
    assert tracer.summary()["fake_layer.add"]["sum"] == 13


def test_metric_names_match_the_allowed_pattern():
    names = list(harness.END_TO_END_UNITS) + list(layers.metric_units())
    assert len(names) == len(set(names))
    for name in names:
        assert layers.NAME_RE.fullmatch(name), name


def test_every_ratio_reports_its_base():
    units = layers.metric_units()
    for name in units:
        if name.endswith("_ratio"):
            assert units.get(name + ".base") == "count", name


def test_job_metrics_cover_every_per_layer_metric():
    from workloads import JobResult
    tracer = Tracer()
    job = JobResult(steps=0, segments=[], ops=0, failed=0, checks={},
                    quality={}, fingerprint="")
    produced = set(layers.job_metrics(tracer, job)[0])
    later = {"datasets.gen.s", "trace.overhead_pct"}
    assert produced | later == set(layers.metric_units())


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 39, 150, 30_000):
        q = harness.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > harness.nearest_rank(values, q) for v in values)
        assert beyond >= harness.TAIL_BEYOND
    assert harness.nearest_rank([1, 2, 3], harness.tail_percentile(3)) == 3


def test_floors_keep_each_segment_keys_fastest_time():
    from workloads import JobResult

    def job(segments):
        return JobResult(steps=3, segments=segments, ops=1, failed=0,
                         checks={}, quality={}, fingerprint="")

    slow_start = job([("0", 5.0, "a", 1), ("1", 2.0, "b", 2), ("2", 1.0, "b", 2)])
    slow_end = job([("0", 3.0, "a", 1), ("1", 4.0, "b", 2), ("2", 3.0, "b", 2)])
    run_s, samples = harness.floors([(9.0, slow_start), (12.0, slow_end)])
    # 3 + 2 + 1 inside the segments, min(1, 2) outside them
    assert run_s == pytest.approx(7.0)
    assert samples == [1.5, 1.5, 3.0]


def timeline_of(events):
    """A Timeline holding scripted (time, kind) events."""
    from workloads import Timeline
    timeline = Timeline()
    timeline.events[:] = events
    return timeline


def test_timeline_blocks_gradient_calls_of_a_fit_under_one_key():
    from workloads import EPOCH_BLOCK
    calls = [(1.0, "fit")] + [(2.0 + i, "grad") for i in range(2 * EPOCH_BLOCK + 4)]
    timeline = timeline_of(calls)
    segs = timeline.segments(0.0, 50.0, prefix="f.", steps="epoch")
    assert [k for k, _, _, _ in segs] == ["f.0.0.0", "f.0.1.0", "f.0.1.block",
                                          "f.0.1.block", "f.0.1.1"]
    assert sum(t for _, t, _, _ in segs) == pytest.approx(50.0)
    assert [n for _, _, _, n in segs] == [0, 0, EPOCH_BLOCK, EPOCH_BLOCK, 0]
    assert len({g for _, _, g, _ in segs if g is not None}) == 2


def test_timeline_groups_each_interior_episode():
    calls = [(1.0, "episode"), (2.0, "fit"), (2.5, "grad"), (3.0, "episode"),
             (6.0, "episode")]
    segs = timeline_of(calls).segments(0.0, 10.0)
    assert segs == [("0.0.0", 1.0, None, 0), ("1.0.0", 1.0, "1", 1),
                    ("1.1.0", 0.5, "1", 1), ("1.1.1", 0.5, "1", 1),
                    ("2.0.0", 3.0, "2", 1), ("3.0.0", 4.0, None, 0)]


def test_timeline_groups_each_fit_when_a_fit_is_the_step():
    calls = [(1.0, "fit"), (2.0, "grad"), (4.0, "fit"), (5.0, "grad")]
    segs = timeline_of(calls).segments(0.0, 8.0, steps="fit")
    assert [(k, g) for k, _, g, _ in segs] == [
        ("0.0.0", None), ("0.1.0", "1"), ("0.1.1", "1"), ("0.2.0", "2"),
        ("0.2.1", "2")]


def test_timeline_restores_the_hooked_functions():
    from workloads import Timeline

    def f(x):
        return x

    owner = types.SimpleNamespace(f=f)
    with Timeline(grad=(owner, "f")) as timeline:
        assert owner.f(7) == 7 and owner.f is not f
    assert owner.f is f and [k for _, k in timeline.events] == ["grad"]


def test_fingerprint_ignores_digits_below_the_stated_rounding():
    a = fingerprint({"c": [3.0000000001, 2.5], "bits": "0110"})
    b = fingerprint({"c": [3.0, 2.5], "bits": "0110"})
    c = fingerprint({"c": [3.001, 2.5], "bits": "0110"})
    assert a == b != c

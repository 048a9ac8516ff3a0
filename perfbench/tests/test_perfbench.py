"""Tests of the benchmark's own machinery: percentiles, output checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Target, Tracer, layer_totals, percentile  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_FEATURES_HEADER,
    EXPECTED_HISTORY_HEADER,
    check_features,
    check_predict,
    check_train,
    features_digest,
    predict_digest,
    train_digest,
)


# -- a percentile is reported with its sample count -------------------------------

def test_percentile_comes_with_its_sample_count():
    assert percentile(range(1, 101), 90) == (90, 100)
    assert percentile(range(1, 21), 50) == (10, 20)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(99), 90) is None
    assert percentile(range(19), 50) is None
    assert percentile([], 50) is None


# -- a corrupted output fails its check ---------------------------------------------

def _features_csv():
    entries = [{"path": "traces/a.trace", "label": 0},
               {"path": "traces/b.trace", "label": 1}]
    text = (EXPECTED_FEATURES_HEADER + "\n"
            "traces/a.trace,0,60,70,0.039548,0.161000,0.040000\n"
            "traces/b.trace,1,90,180,0.045000,0.210000,0.030000\n")
    return entries, text


def test_features_check_rejects_corruption():
    entries, text = _features_csv()
    assert check_features(text, entries, features_digest(text)) == []
    for bad in (text.replace("0.161000", "1.161000"),   # closeness above 1
                text.replace("traces/b.trace,1", "traces/b.trace,0"),   # label
                text.rsplit("\n", 2)[0] + "\n",            # a row lost
                text.replace("nodes", "n")):               # header
        assert check_features(bad, entries, None), bad
    flipped = text.replace("0.030000", "0.030001")
    assert check_features(flipped, entries, None) == []
    assert check_features(flipped, entries, features_digest(text))


def test_predict_check_rejects_corruption():
    paths = ["g/a.json", "g/b.json"]
    good = "g/a.json\t0.250000\tbenign\ng/b.json\t0.750000\tmalicious\n"
    assert check_predict(good, paths, predict_digest(good)) == []
    for bad in (good.replace("0.750000\tmalicious", "0.750000\tbenign"),
                good.replace("0.250000", "1.250000"),
                good.replace("0.250000", "0.000000"),
                good.split("\n", 1)[0] + "\n"):
        assert check_predict(bad, paths, None), bad
    other = good.replace("0.250000", "0.250001")
    assert check_predict(other, paths, None) == []
    assert check_predict(other, paths, predict_digest(good))


def test_train_check_rejects_corruption():
    from malgraph.analytics import OpVocabulary
    from malgraph.sage import ArchConfig, init_params, model_to_json
    arch = ArchConfig(vocab_size=2, embed_dim=3, hidden_dim=3, num_sage_layers=1)
    model = model_to_json(init_params(arch, 0), OpVocabulary(("<unk>", "add")))
    history = EXPECTED_HISTORY_HEADER + "\n1,0.69,0.5,0.75\n2,0.6,0.75,0.875\n"
    ref = train_digest(model, history)
    assert check_train(model, history, 2, ref) == []
    assert check_train(model[:-2], history, 2, None)                   # truncated model
    assert check_train(model, history.replace("0.875", "1.875"), 2, None)
    assert check_train(model, history.rsplit("\n", 2)[0] + "\n", 2, None)
    assert check_train(model, history.replace("0.6,", "0.61,"), 2, ref)


# -- a missing wrap target is reported as missing -------------------------------------

def _fake_module():
    mod = types.ModuleType("perfbench_fake")
    mod.present = lambda x: x + 1
    mod.idle = lambda: None
    sys.modules[mod.__name__] = mod
    return mod


def test_missing_target_is_reported_not_zero():
    mod = _fake_module()
    tracer = Tracer([Target("fake.present", mod.__name__, "present"),
                     Target("fake.renamed", mod.__name__, "renamed_away"),
                     Target("fake.idle", mod.__name__, "idle")])
    tracer.install()
    try:
        root = tracer.open("iteration")
        assert mod.present(1) == 2
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert "perfbench_fake.renamed_away" in tracer.missing
    assert mod.present.__name__ == "<lambda>" and not hasattr(mod.present, "__wrapped__")

    done = {"commands": [{"traced": True, "spans": tracer.take(), "rate": 1.0,
                          "problems": []}],
            "missing": tracer.missing, "setup_groups": []}
    values, missing = run.per_layer(None, done, ["fake.present.calls",
                                                 "fake.renamed.wall_s",
                                                 "fake.idle.wall_s"])
    assert values["fake.present.calls"] == 1
    assert values["fake.renamed.wall_s"] is None and "fake.renamed.wall_s" in missing
    assert values["fake.idle.wall_s"] is None and "fake.idle.wall_s" in missing


def test_pool_thread_span_hangs_under_the_waiting_span():
    mod = _fake_module()
    tracer = Tracer([Target("fake.present", mod.__name__, "present")])
    tracer.install()
    try:
        root = tracer.open("iteration")
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(mod.present, range(4))) == [1, 2, 3, 4]
        tracer.close(root)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    workers = [s for s in spans if s.name == "fake.present"]
    assert len(workers) == 4
    assert all(s.parent == root.id and s.thread != threading.get_ident()
               for s in workers)
    totals = layer_totals(spans)
    assert totals["iteration"]["self_s"] <= totals["iteration"]["wall_s"]

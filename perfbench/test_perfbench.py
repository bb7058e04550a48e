"""Self-tests of the benchmark (not part of the repository's test suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import pathlib
import shutil
import subprocess
import sys
import threading
import time
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from ledger import RESIDUAL, SPMD, Ledger, window_self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(name):
    wl = workloads.make(name, seed=3, tiny=True, seconds=0.5)
    try:
        wl.setup()
        m = wl.run(0.5)
    finally:
        wl.close()
    assert m.attempted > 0
    assert m.failed == 0, m.errors
    assert len(m.latencies) == m.attempted


def test_same_seed_same_inputs():
    a = workloads.make("service_burst", seed=5, tiny=True, seconds=0.5)
    b = workloads.make("service_burst", seed=5, tiny=True, seconds=0.5)
    c = workloads.make("service_burst", seed=6, tiny=True, seconds=0.5)
    assert a.digest == b.digest != c.digest
    assert [x.matrix for x in a.schedule] == [x.matrix for x in b.schedule]


def test_wrong_output_is_counted(monkeypatch):
    wl = workloads.make("ard_stream", seed=3, tiny=True)
    wl.setup()
    solve = wl.op
    monkeypatch.setattr(wl, "op", lambda item: 2 * solve(item))
    m = wl.run(0.2)
    assert m.failed == m.attempted > 0


def test_traced_pass_restores_every_wrapped_attribute():
    probe = layers.Probe(Ledger()).install()
    patches = probe.ledger.patched()
    assert len(patches) >= len(layers.FUNCTIONS) + len(layers.METHODS)
    assert all(getattr(o, a) is not orig for o, a, orig, _ in patches)
    probe.restore()
    assert probe.ledger.patched() == []
    for owner, attr, original, own in patches:
        assert (attr in vars(owner)) == own
        assert getattr(owner, attr) is original
    # Untraced code after the restore records nothing.
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.make(name, seed=3, tiny=True, seconds=0.2)
        try:
            wl.setup()
            wl.run(0.2)
        finally:
            wl.close()
    assert probe.ledger.spans == []


def test_wrap_function_rebinds_every_import_site():
    home = types.ModuleType("repro._selftest_home")
    user = types.ModuleType("repro._selftest_user")

    def work():
        return 7

    home.work = user.work = work
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        ledger = Ledger()
        ledger.wrap_function(home.__name__, "work", "layer.work")
        assert home.work is user.work is not work
        assert user.work() == 7
        assert ledger.calls["layer.work"] == 1
        ledger.restore()
        assert home.work is user.work is work
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def _synthetic_op(ledger: Ledger) -> None:
    """2 ms of own work, a 3 ms child holding a 1 ms grandchild, and an
    SPMD-like span whose two ranks take 2 and 4 ms on other threads."""
    def timed(layer, delay, parent=None):
        token = ledger.open(layer, parent=parent)
        time.sleep(delay)
        return token

    time.sleep(0.002)
    with_child = timed("layer.a", 0.002)
    ledger.close(timed("layer.b", 0.001))
    ledger.close(with_child)
    token = ledger.open("layer.launch", kind=SPMD)

    def rank(delay):
        root = ledger.open("layer.launch", parent=token[0])
        ledger.close(timed("layer.rank", delay))
        ledger.close(root)

    threads = [threading.Thread(target=rank, args=(d,))
               for d in (0.002, 0.004)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    ledger.close(token)


def test_ledger_rows_sum_to_op_time():
    ledger = Ledger()
    roots, measured = [], 0.0
    for _ in range(20):
        t0 = time.perf_counter()
        token = ledger.open(RESIDUAL)
        _synthetic_op(ledger)
        roots.append(ledger.close(token))
        measured += time.perf_counter() - t0
    index = ledger.index()
    rows = collections.defaultdict(float)
    for root in roots:
        index.self_times(root, out=rows)
    total = sum(rows.values())
    assert abs(total - measured) / measured < 0.02
    assert index.faults() == 0
    assert min(rows.values()) >= 0.0
    # The slowest rank alone sits on the critical path.
    assert 0.004 * 20 <= rows["layer.rank"] < 0.006 * 20
    assert 0.001 * 20 <= rows["layer.b"] < 0.0025 * 20
    assert rows[RESIDUAL] >= 0.002 * 20


def test_double_counted_spans_are_faults():
    """The rows sum to the root whatever the spans are; the fault count
    is what catches a broken span tree."""
    ledger = Ledger()
    root = ledger.open(RESIDUAL)
    outer = ledger.open("layer.a")
    inner = ledger.open("layer.b")
    time.sleep(0.001)
    ledger.close(outer)         # the child outlives its parent
    time.sleep(0.001)
    ledger.close(inner)
    ledger.close(root)
    assert ledger.index().faults() == 1

    ledger = Ledger()
    token = ledger.open(RESIDUAL)

    def child():                # two plain children of one span at once
        ledger.close(ledger.open("layer.c", parent=token[0]))
        time.sleep(0.002)

    def overlapping():
        t = ledger.open("layer.c", parent=token[0])
        time.sleep(0.004)
        ledger.close(t)

    threads = [threading.Thread(target=f) for f in (overlapping, child)]
    for t in threads:
        t.start()
        time.sleep(0.001)
    for t in threads:
        t.join(timeout=10)
    root = ledger.close(token)
    index = ledger.index()
    rows = index.self_times(root)
    assert index.faults() == 1
    assert sum(rows.values()) == pytest.approx(root.t1 - root.t0)


def test_window_self_times_fills_gaps_with_residual():
    ledger = Ledger()
    time.sleep(0.001)
    root = ledger.close(ledger.open("layer.x"))
    lo, hi = root.t0 - 0.001, root.t1 + 0.001
    out = {RESIDUAL: 0.0, "layer.x": 0.0}
    window_self_times(ledger.index(), [root], lo, hi, out)
    assert sum(out.values()) == pytest.approx(hi - lo)
    assert out[RESIDUAL] == pytest.approx(0.002)


def _cli(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    out = _cli(["--workload", "ard_stream", "--seed", "4", "--seconds",
                "1", "--trace", trace])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (e["name"], e["unit"]) for e in group]
    stamp = json.loads(next(line for line in lines
                            if line.startswith("stamp "))[len("stamp "):])
    assert stamp["input_digest"] and stamp["tuning_table"]["status"]
    if trace == "1":
        # ard_stream bypasses the planner; the one-shot segment reaches it.
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["perfmodel.planner.auto_over_ard"] > 0
        assert stamp["oneshot"]["input_digest"]
        if stamp["oneshot"]["plan"]["method"] == "thomas":
            assert metrics["core.thomas.ms"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli(["--workload", "ard_stream", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

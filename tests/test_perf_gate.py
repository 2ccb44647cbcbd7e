"""The ``repro perf --check`` regression gate and the call counter it
reads."""

import json
import pathlib

import pytest

from repro.perf import check_regression
from repro.perf.bench import COUNTER_TOLERANCE, REGRESSION_METRICS, _count_calls

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SMOKE_BASELINE = REPO_ROOT / "BENCH_10.smoke.json"


def _set(payload, dotted, value):
    *parents, leaf = dotted.split(".")
    for part in parents:
        payload = payload.setdefault(part, {})
    payload[leaf] = value


def _payload(overrides=()):
    """Every gated metric at 10.0, then ``overrides`` (dotted path, value)."""
    payload = {}
    for dotted, _label, _tolerance in REGRESSION_METRICS:
        _set(payload, dotted, 10.0)
    for dotted, value in overrides:
        _set(payload, dotted, value)
    return payload


class TestCountCalls:
    def test_one_time_setup_is_not_counted(self):
        cold = [True]

        def helper():
            pass

        def fn():
            if cold:
                cold.pop()
                for _ in range(10):
                    helper()
            helper()

        # fn itself plus one helper call: the warm-up ran the setup.
        assert _count_calls(fn) == 2
        assert _count_calls(fn) == 2


class TestCounterGate:
    def test_counters_have_the_fixed_tolerance(self):
        counters = [m for m in REGRESSION_METRICS if m[2] is not None]
        assert {m[0] for m in counters} == {
            "micro.sim.calls_per_event",
            "micro.synthesis.merged.calls_per_event",
            "micro.synthesis.single.calls_per_event",
        }
        assert all(m[2] == COUNTER_TOLERANCE == 0.05 for m in counters)

    @pytest.mark.parametrize("factor", [1.0, 2.0, 100.0])
    def test_growth_past_tolerance_fails_whatever_the_factor(self, factor):
        baseline = _payload()
        current = _payload([("micro.sim.calls_per_event", 10.6)])
        failures = check_regression(current, baseline, factor=factor)
        assert len(failures) == 1 and "sim stack" in failures[0]

    def test_growth_within_tolerance_passes(self):
        current = _payload([("micro.sim.calls_per_event", 10.4)])
        assert check_regression(current, _payload(), factor=1.0) == []

    def test_fewer_calls_pass(self):
        current = _payload([("micro.sim.calls_per_event", 1.0)])
        assert check_regression(current, _payload()) == []

    def test_missing_counter_fails_loudly(self):
        current = _payload()
        del current["micro"]["sim"]["calls_per_event"]
        failures = check_regression(current, _payload())
        assert len(failures) == 1 and "missing from current run" in failures[0]


class TestRatioGate:
    def test_ratio_uses_the_factor(self):
        current = _payload([("store.decode.speedup_vs_json", 6.0)])
        assert check_regression(current, _payload(), factor=2.0) == []
        failures = check_regression(current, _payload(), factor=1.5)
        assert len(failures) == 1 and "decode speedup" in failures[0]


def test_committed_smoke_baseline_carries_every_gated_metric():
    committed = json.loads(SMOKE_BASELINE.read_text())
    assert check_regression(committed, committed) == []
    assert committed["meta"]["scale"] == "smoke"

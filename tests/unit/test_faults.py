"""The deterministic fault-injection harness (repro.faults).

Chaos that cannot be reproduced is worse than no chaos: every rule
semantics test here pins the plan-language contract docs/FAULTS.md
promises — site/match scoping, bounded firing budgets that hold
across processes, and the split between process-level kinds
(performed in place) and write-level kinds (returned to the durable
writer).
"""

import json
import multiprocessing

import pytest

from repro import faults
from repro.faults import (
    CRASH_EXIT_CODE,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    InjectedCrash,
    InjectedError,
    active_plan,
    maybe_fail,
)


def _plan(rules, state_dir=None):
    doc = {"faults": rules}
    if state_dir is not None:
        doc["state_dir"] = str(state_dir)
    return FaultPlan(doc)


def _activate(monkeypatch, rules, state_dir=None):
    doc = {"faults": rules}
    if state_dir is not None:
        doc["state_dir"] = str(state_dir)
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(doc))


class TestPlanParsing:
    def test_no_env_means_no_plan(self):
        assert active_plan() is None
        assert maybe_fail("worker.execute", "abc") is None

    def test_inline_plan_parses(self, monkeypatch):
        _activate(monkeypatch, [
            {"site": "worker.execute", "kind": "error"},
        ])
        plan = active_plan()
        assert plan is not None
        assert plan.rules[0].site == "worker.execute"

    def test_file_plan_defaults_state_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "faults": [{"site": "x", "kind": "error"}],
        }))
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        plan = active_plan()
        assert plan.state_dir == tmp_path / "plan.json.state"

    @pytest.mark.parametrize("doc", [
        {},                                          # no faults
        {"faults": []},                              # empty faults
        {"faults": [{"kind": "error"}]},             # missing site
        {"faults": [{"site": "x"}]},                 # missing kind
        {"faults": [{"site": "x", "kind": "melt"}]},  # unknown kind
        {"faults": [{"site": "x", "kind": "error",
                     "times": 0}]},                  # bad budget
        # kinds no site implements: a plan naming one must fail
        # loudly, not load and never fire
        {"faults": [{"site": "x", "kind": "drop"}]},
        {"faults": [{"site": "x", "kind": "delay"}]},
        {"faults": [{"site": "x", "kind": "duplicate"}]},
    ])
    def test_malformed_plans_raise(self, doc):
        with pytest.raises(FaultPlanError):
            FaultPlan(doc)

    @pytest.mark.parametrize("site", [
        "", "   ", "Bad Site!", "transport.Send", "a..b",
        ".leading", "trailing.", "spa ce.dot",
    ])
    def test_malformed_site_names_raise(self, site):
        with pytest.raises(FaultPlanError):
            FaultPlan({"faults": [{"site": site, "kind": "error"}]})

    @pytest.mark.parametrize("site", [
        "x", "worker.execute", "manifest.write", "index.append",
        "cache.entry.write", "a-b.c_d.e0",
    ])
    def test_wellformed_site_names_parse(self, site):
        plan = FaultPlan({"faults": [{"site": site, "kind": "error"}]})
        assert plan.rules[0].site == site

    def test_malformed_env_plan_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        with pytest.raises(FaultPlanError):
            active_plan()

    def test_unreadable_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_PLAN_ENV, str(tmp_path / "absent.json"))
        with pytest.raises(FaultPlanError):
            active_plan()


class TestRuleSemantics:
    def test_site_and_match_scope_the_rule(self):
        plan = _plan([
            {"site": "worker.execute", "kind": "error", "match": "ab*"},
        ])
        assert plan.take("worker.execute", "cd99") is None
        assert plan.take("cache.entry.write", "ab12") is None
        assert plan.take("worker.execute", "ab12") is not None

    def test_budget_bounds_firings(self):
        plan = _plan([
            {"site": "s", "kind": "error", "times": 2},
        ])
        assert plan.take("s", "k") is not None
        assert plan.take("s", "k") is not None
        assert plan.take("s", "k") is None

    def test_null_budget_is_unlimited(self):
        plan = _plan([{"site": "s", "kind": "error", "times": None}])
        for _ in range(10):
            assert plan.take("s", "k") is not None

    def test_first_matching_rule_with_budget_wins(self):
        plan = _plan([
            {"site": "s", "kind": "error", "times": 1},
            {"site": "s", "kind": "torn", "times": 1},
        ])
        assert plan.take("s", "k").kind == "error"
        assert plan.take("s", "k").kind == "torn"
        assert plan.take("s", "k") is None

    def test_budget_holds_across_processes(self, tmp_path):
        """The exclusive-create markers make budgets global: two
        processes sharing a state dir claim two firings total, not two
        each."""
        state = tmp_path / "state"
        doc = json.dumps({
            "state_dir": str(state),
            "faults": [{"site": "s", "kind": "error", "times": 3}],
        })

        def claims(env_doc, out):
            plan = FaultPlan(json.loads(env_doc))
            out.put(sum(
                1 for _ in range(10) if plan.take("s", "k") is not None
            ))

        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=claims, args=(doc, out)) for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
        total = out.get(timeout=5) + out.get(timeout=5)
        assert total == 3


class TestMaybeFail:
    def test_error_kind_raises_injected_error(self, monkeypatch):
        _activate(monkeypatch, [{"site": "s", "kind": "error"}])
        with pytest.raises(InjectedError):
            maybe_fail("s", "key")

    def test_crash_kind_raises_outside_workers(self, monkeypatch):
        _activate(monkeypatch, [{"site": "s", "kind": "crash"}])
        assert not faults.IN_WORKER
        with pytest.raises(InjectedCrash):
            maybe_fail("s")

    def test_hard_crash_exits_with_marker_code(self, monkeypatch):
        """``hard: true`` crashes exit with CRASH_EXIT_CODE even
        outside a worker — the kill-the-process tests key on it."""
        _activate(monkeypatch, [
            {"site": "s", "kind": "crash", "hard": True},
        ])
        ctx = multiprocessing.get_context()

        proc = ctx.Process(target=maybe_fail, args=("s", "k"))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == CRASH_EXIT_CODE

    def test_torn_and_corrupt_are_returned_not_performed(
        self, monkeypatch
    ):
        _activate(monkeypatch, [
            {"site": "s", "kind": "torn", "times": 1},
            {"site": "s", "kind": "corrupt", "times": 1},
        ])
        assert maybe_fail("s").kind == "torn"
        assert maybe_fail("s").kind == "corrupt"
        assert maybe_fail("s") is None

    def test_hang_sleeps_then_returns_none(self, monkeypatch):
        _activate(monkeypatch, [
            {"site": "s", "kind": "hang", "seconds": 0.01},
        ])
        assert maybe_fail("s") is None

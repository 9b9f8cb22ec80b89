"""Unit tests for the BENCH_SIM_SPEED.json controlled-pair guard."""

import json

import pytest

from repro.speed import (
    UncontrolledSpeedClaim,
    append_entry,
    controlled_pair_violation,
)


def _entry(label, preset="medium"):
    return {
        "label": label,
        "preset": preset,
        "rows": [],
        "total_events": 0,
        "total_wall_s": 0.0,
        "aggregate_events_per_sec": 0.0,
    }


def _record(*labels, preset="medium"):
    return {"entries": [_entry(label, preset) for label in labels]}


class TestViolationDetection:
    def test_uncontrolled_labels_always_pass(self):
        record = _record("whatever")
        for label in ("dev", "baseline", "optimized", "ci-smoke"):
            assert controlled_pair_violation(record, _entry(label)) is None

    def test_baseline_controlled_always_passes(self):
        assert controlled_pair_violation(
            _record(), _entry("baseline-controlled")
        ) is None
        assert controlled_pair_violation(
            _record("dev"), _entry("baseline-controlled")
        ) is None

    def test_back_to_back_pair_passes(self):
        record = _record("dev", "baseline-controlled")
        assert controlled_pair_violation(
            record, _entry("optimized-controlled")
        ) is None

    def test_claim_on_empty_trajectory_flagged(self):
        violation = controlled_pair_violation(
            _record(), _entry("optimized-controlled")
        )
        assert violation is not None and "empty" in violation

    def test_claim_after_uncontrolled_entry_flagged(self):
        violation = controlled_pair_violation(
            _record("baseline-controlled", "dev"),
            _entry("optimized-controlled"),
        )
        assert violation is not None and "back-to-back" in violation

    def test_preset_mismatch_flagged(self):
        violation = controlled_pair_violation(
            _record("baseline-controlled", preset="tiny"),
            _entry("optimized-controlled", preset="medium"),
        )
        assert violation is not None and "preset" in violation


class TestAppendGuard:
    def test_refuses_uncontrolled_claim(self, tmp_path):
        output = tmp_path / "speed.json"
        append_entry(_entry("dev"), output)
        with pytest.raises(UncontrolledSpeedClaim):
            append_entry(_entry("optimized-controlled"), output)
        # the refused entry was never written
        entries = json.loads(output.read_text())["entries"]
        assert [e["label"] for e in entries] == ["dev"]

    def test_allow_uncontrolled_downgrades_to_warning(self, tmp_path):
        output = tmp_path / "speed.json"
        append_entry(_entry("dev"), output)
        with pytest.warns(RuntimeWarning, match="uncontrolled"):
            append_entry(
                _entry("optimized-controlled"), output,
                allow_uncontrolled=True,
            )
        entries = json.loads(output.read_text())["entries"]
        assert entries[-1]["label"] == "optimized-controlled"

    def test_proper_pair_appends_silently(self, tmp_path):
        output = tmp_path / "speed.json"
        append_entry(_entry("baseline-controlled"), output)
        append_entry(_entry("optimized-controlled"), output)
        entries = json.loads(output.read_text())["entries"]
        assert [e["label"] for e in entries] == [
            "baseline-controlled", "optimized-controlled"
        ]

    def test_committed_trajectory_satisfies_the_guard(self):
        """The repo's own BENCH_SIM_SPEED.json replays cleanly."""
        from pathlib import Path

        trajectory = json.loads(
            (Path(__file__).resolve().parents[2]
             / "BENCH_SIM_SPEED.json").read_text()
        )
        replay = {"entries": []}
        for entry in trajectory["entries"]:
            assert controlled_pair_violation(replay, entry) is None, (
                f"committed entry {entry['label']!r} violates the "
                "controlled-pair rule"
            )
            replay["entries"].append(entry)


class TestCliGuard:
    def test_bench_speed_cli_refuses(self, tmp_path, monkeypatch, capsys):
        import repro.speed as speed
        from repro.cli import main

        monkeypatch.setattr(
            speed, "run_preset", lambda preset, backend=None: []
        )
        output = tmp_path / "speed.json"
        assert main([
            "bench-speed", "--preset", "tiny",
            "--label", "optimized-controlled", "--output", str(output),
        ]) == 1
        assert "refusing to record" in capsys.readouterr().out
        assert not output.exists()

    def test_bench_speed_cli_allow_flag(self, tmp_path, monkeypatch,
                                        capsys):
        import repro.speed as speed
        from repro.cli import main

        monkeypatch.setattr(
            speed, "run_preset", lambda preset, backend=None: []
        )
        output = tmp_path / "speed.json"
        with pytest.warns(RuntimeWarning):
            assert main([
                "bench-speed", "--preset", "tiny",
                "--label", "optimized-controlled",
                "--output", str(output), "--allow-uncontrolled",
            ]) == 0
        assert output.exists()


class TestPerWorkloadSpeedups:
    """The per-(workload, scheme) attribution attached to candidate
    entries alongside the aggregate speedup."""

    @staticmethod
    def _rows_entry(rows):
        entry = _entry("turbo-controlled")
        entry["rows"] = rows
        return entry

    @staticmethod
    def _row(workload, scheme, eps):
        return {
            "workload": workload, "scheme": scheme,
            "events_per_sec": eps,
        }

    def test_rows_matched_by_workload_and_scheme(self):
        from repro.speed import per_workload_speedups

        baseline = self._rows_entry([
            self._row("mix-high", "none", 100.0),
            self._row("mix-high", "mithril", 50.0),
        ])
        candidate = self._rows_entry([
            self._row("mix-high", "none", 250.0),
            self._row("mix-high", "mithril", 75.0),
        ])
        assert per_workload_speedups(baseline, candidate) == [
            {"workload": "mix-high", "scheme": "none", "speedup": 2.5},
            {"workload": "mix-high", "scheme": "mithril", "speedup": 1.5},
        ]

    def test_unmatched_and_zero_baseline_rows_skipped(self):
        from repro.speed import per_workload_speedups

        baseline = self._rows_entry([
            self._row("mix-high", "none", 100.0),
            self._row("fft", "graphene", 0.0),
        ])
        candidate = self._rows_entry([
            self._row("mix-high", "none", 120.0),
            self._row("fft", "graphene", 80.0),   # zero baseline
            self._row("radix", "mithril", 90.0),  # not in baseline
        ])
        assert per_workload_speedups(baseline, candidate) == [
            {"workload": "mix-high", "scheme": "none", "speedup": 1.2},
        ]

    def test_missing_rows_keys_are_harmless(self):
        from repro.speed import per_workload_speedups

        assert per_workload_speedups({}, {}) == []
        assert per_workload_speedups(
            {"rows": None}, self._rows_entry([self._row("a", "b", 1.0)])
        ) == []


class TestControlledPairsFlow:
    """The --pairs N median flow (this CPU's phase swings >2x)."""

    def _stub_run_preset(self, monkeypatch, walls):
        """run_preset returns one row; wall time scripted per call."""
        import repro.speed as speed

        calls = iter(walls)

        def fake(preset, backend=None):
            return [
                speed.SpeedRow(
                    scheme="none", workload="mix-high", events=1000,
                    wall_s=next(calls),
                )
            ]

        monkeypatch.setattr(speed, "run_preset", fake)

    def test_median_pair_recorded(self, tmp_path, monkeypatch):
        import json

        from repro.speed import run_controlled_pairs

        # pairs: (baseline, candidate) walls -> speedups 2.0, 4.0, 1.5
        self._stub_run_preset(
            monkeypatch, [1.0, 0.5, 1.0, 0.25, 0.9, 0.6]
        )
        output = tmp_path / "speed.json"
        report = run_controlled_pairs(
            "tiny", 3, "turbo-controlled", output=output
        )
        assert report["median_speedup"] == pytest.approx(2.0)
        assert report["samples"] == [1.5, 2.0, 4.0]
        record = json.loads(output.read_text())
        labels = [e["label"] for e in record["entries"]]
        assert labels == ["baseline-controlled", "turbo-controlled"]
        candidate = record["entries"][1]
        assert candidate["pairs_run"] == 3
        assert candidate["median_speedup"] == pytest.approx(2.0)
        assert candidate["speedup_samples"] == [1.5, 2.0, 4.0]
        assert candidate["backend"] == "turbo"
        assert record["entries"][0]["backend"] == "scalar"
        # the recorded pair is the *median* measurement, not the best
        assert candidate["total_wall_s"] == pytest.approx(0.5)
        # per-workload attribution rides along with the aggregate
        assert candidate["per_workload_speedup"] == [
            {"workload": "mix-high", "scheme": "none", "speedup": 2.0}
        ]

    def test_label_must_claim_controlled(self, tmp_path):
        from repro.speed import run_controlled_pairs

        with pytest.raises(ValueError, match="-controlled"):
            run_controlled_pairs("tiny", 2, "turbo")

    def test_pairs_must_be_positive(self):
        from repro.speed import run_controlled_pairs

        with pytest.raises(ValueError, match="pairs"):
            run_controlled_pairs("tiny", 0, "turbo-controlled")

    def test_cli_pairs_flow(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.cli import main

        self._stub_run_preset(monkeypatch, [1.0, 0.5, 1.0, 0.4])
        output = tmp_path / "speed.json"
        assert main([
            "bench-speed", "--preset", "tiny", "--pairs", "2",
            "--label", "turbo-controlled", "--output", str(output),
        ]) == 0
        record = json.loads(output.read_text())
        assert len(record["entries"]) == 2
        assert "median pair" in capsys.readouterr().out

    def test_cli_pairs_rejects_bad_label(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench-speed", "--preset", "tiny", "--pairs", "2",
            "--label", "turbo", "--output", str(tmp_path / "s.json"),
        ]) == 1
        assert "refusing to record" in capsys.readouterr().out

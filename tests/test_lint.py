"""Tests for ``repro.devtools.lint`` — the AST-based invariant checker.

Golden fixture pairs per rule (bad fires, good is clean), framework
behaviour (suppressions, baseline, fingerprints, CLI exit codes), and the
flagship integration check: the linter runs **clean** over the live repo,
which is what lets CI fail on any new violation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import Finding, get_rules, run_lint
from repro.devtools.lint.baseline import Baseline
from repro.devtools.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
ALL_RULES = ("RL001", "RL002", "RL003", "RL004", "RL005")


def lint_fixture(name, rules=None):
    return run_lint([FIXTURES / name], root=REPO, rules=rules)


class TestRegistry:
    def test_all_five_rules_registered(self):
        ids = [rule.id for rule in get_rules()]
        assert list(ALL_RULES) == [i for i in ids if i in ALL_RULES]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="RL999"):
            get_rules(["RL999"])

    def test_rule_filter(self):
        assert [rule.id for rule in get_rules(["RL002"])] == ["RL002"]


class TestGoldenFixtures:
    """Every rule has a firing fixture and a clean fixture."""

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_bad_fixture_fires(self, rule_id):
        findings = lint_fixture(f"{rule_id.lower()}_bad.py")
        assert {f.rule for f in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_good_fixture_is_clean(self, rule_id):
        assert lint_fixture(f"{rule_id.lower()}_good.py") == []

    def test_rl001_reports_both_unlocked_accesses(self):
        findings = lint_fixture("rl001_bad.py")
        assert len(findings) == 2
        assert all("self._lock" in f.message for f in findings)

    def test_rl002_distinguishes_duration_from_missing_annotation(self):
        messages = [f.message for f in lint_fixture("rl002_bad.py")]
        assert any("duration arithmetic" in m for m in messages)
        assert any("wall-clock" in m for m in messages)

    def test_rl003_names_the_field_and_both_methods(self):
        findings = lint_fixture("rl003_bad.py")
        assert {"Spec.key" in f.message or "Spec.to_dict" in f.message
                for f in findings} == {True}
        assert all("'flavour'" in f.message for f in findings)

    def test_rl004_covers_counter_histogram_and_label(self):
        messages = " | ".join(f.message
                              for f in lint_fixture("rl004_bad.py"))
        assert "_total" in messages
        assert "_bucket" in messages
        assert "customer" in messages

    def test_rl004_fallback_labels_equal_the_registry(self):
        from repro.devtools.lint.rules import metrics_conventions
        from repro.server.metrics import KNOWN_LABELS

        assert metrics_conventions._FALLBACK_LABELS == KNOWN_LABELS
        assert metrics_conventions.KNOWN_LABELS == KNOWN_LABELS

    def test_rl005_flags_sleep_and_throwaway_event(self):
        messages = [f.message for f in lint_fixture("rl005_bad.py")]
        assert any("time.sleep" in m for m in messages)
        assert any("throwaway event" in m for m in messages)


class TestFramework:
    def test_suppression_comment_silences_one_rule(self, tmp_path):
        source = ("import time\n\n\n"
                  "def stamp():\n"
                  "    return time.time()  # lint: ignore[RL002]\n")
        path = tmp_path / "suppressed.py"
        path.write_text(source)
        assert run_lint([path], root=tmp_path) == []

    def test_suppression_comment_is_rule_specific(self, tmp_path):
        source = ("import time\n\n\n"
                  "def stamp():\n"
                  "    return time.time()  # lint: ignore[RL001]\n")
        path = tmp_path / "suppressed.py"
        path.write_text(source)
        findings = run_lint([path], root=tmp_path)
        assert [f.rule for f in findings] == ["RL002"]

    def test_syntax_error_reports_rl000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = run_lint([path], root=tmp_path)
        assert [f.rule for f in findings] == ["RL000"]

    def test_fixture_directory_is_skipped_on_recursion(self):
        # Recursing over tests/ must not descend into lint_fixtures/ —
        # otherwise the bad fixtures would fail the integration run.
        findings = run_lint([REPO / "tests"], root=REPO)
        assert not any("lint_fixtures" in f.path for f in findings)

    def test_fingerprint_is_line_independent(self):
        a = Finding("RL002", "src/x.py", 10, "msg")
        b = Finding("RL002", "src/x.py", 99, "msg")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != Finding("RL001", "src/x.py", 10,
                                        "msg").fingerprint

    def test_baseline_round_trip_and_split(self, tmp_path):
        old = Finding("RL002", "src/x.py", 1, "grandfathered")
        new = Finding("RL002", "src/x.py", 2, "fresh")
        path = tmp_path / "baseline.json"
        baseline = Baseline()
        baseline.save(path, [old])
        reloaded = Baseline.load(path)
        fresh, grandfathered, stale = reloaded.split([old, new])
        assert fresh == [new]
        assert grandfathered == [old]
        assert stale == []
        # Paying off the debt leaves a stale entry behind.
        _, _, stale = reloaded.split([new])
        assert stale == [old.fingerprint]

    def test_corrupt_baseline_degrades_to_empty(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        assert Baseline.load(path).entries == {}


class TestCli:
    def test_exit_1_on_bad_fixture(self, tmp_path):
        code = lint_main([str(FIXTURES / "rl002_bad.py"),
                          "--root", str(REPO),
                          "--baseline", str(tmp_path / "none.json")])
        assert code == 1

    def test_exit_0_on_clean_fixture(self, tmp_path):
        code = lint_main([str(FIXTURES / "rl002_good.py"),
                          "--root", str(REPO),
                          "--baseline", str(tmp_path / "none.json")])
        assert code == 0

    def test_json_output_shape(self, tmp_path, capsys):
        code = lint_main([str(FIXTURES / "rl005_bad.py"), "--json",
                          "--root", str(REPO),
                          "--baseline", str(tmp_path / "none.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["grandfathered"] == []
        rules = {row["rule"] for row in payload["new"]}
        assert rules == {"RL005"}
        for row in payload["new"]:
            assert set(row) == {"rule", "path", "line", "message",
                                "fingerprint"}

    def test_update_baseline_then_clean(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(FIXTURES / "rl001_bad.py"),
                          "--root", str(REPO),
                          "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert lint_main([str(FIXTURES / "rl001_bad.py"),
                          "--root", str(REPO),
                          "--baseline", str(baseline)]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out

    def test_repro_lint_subprocess_fails_on_seeded_violation(self, tmp_path):
        """The CI contract: `repro lint` exits 1 on a new violation."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint",
             str(FIXTURES / "rl002_bad.py"),
             "--root", str(REPO),
             "--baseline", str(tmp_path / "none.json")],
            capture_output=True, text=True, env=env, cwd=str(REPO))
        assert proc.returncode == 1, proc.stderr
        assert "RL002" in proc.stdout


@pytest.mark.slow
class TestIntegration:
    def test_repo_is_clean_against_shipped_baseline(self):
        """src/ + tests/ + benchmarks/ lint clean with the empty baseline."""
        findings = run_lint([REPO / "src", REPO / "tests",
                             REPO / "benchmarks"], root=REPO)
        baseline = Baseline.load(REPO / "lint-baseline.json")
        new, _, _ = baseline.split(findings)
        assert new == [], "\n".join(f.render() for f in new)

    def test_shipped_baseline_is_empty(self):
        assert Baseline.load(REPO / "lint-baseline.json").entries == {}


class TestClockRegressions:
    """Satellite of ISSUE 10: duration math moved off the wall clock."""

    def test_metrics_recorder_defaults_to_monotonic(self):
        import time

        from repro.obs.timeseries import MetricsRecorder

        recorder = MetricsRecorder(lambda: {})
        assert recorder.clock is time.monotonic

    def test_alert_manager_defaults_to_monotonic(self):
        import time

        from repro.obs.alerts import AlertManager

        assert AlertManager([]).clock is time.monotonic

    def test_monitor_defaults_to_monotonic(self):
        import time

        from repro.obs.monitor import Monitor

        monitor = Monitor(lambda: {}, config=False)
        assert monitor.clock is time.monotonic
        assert monitor.recorder.clock is time.monotonic
        assert monitor.alerts.clock is time.monotonic

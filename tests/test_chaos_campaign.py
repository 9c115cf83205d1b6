"""ChaosCampaign: seeded reproducibility and the CLI front door.

The acceptance bar from the issue: a campaign across write paths × Presto
reports zero violations, and re-running with the same seed produces a
byte-identical JSON report.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.faults import ChaosCampaign, ServerCrash
from repro.faults.campaign import WRITE_PATHS, run_plan


def small_campaign(seed=5):
    return ChaosCampaign(seed=seed, plans_per_combo=2, file_kb=64)


def test_plan_generation_is_seed_deterministic():
    campaign = small_campaign()
    twin = small_campaign()
    for write_path in WRITE_PATHS:
        for presto in (False, True):
            for index in range(2):
                plan = campaign.plan_for(write_path, presto, index)
                again = twin.plan_for(write_path, presto, index)
                assert plan == again
    other = small_campaign(seed=6).plan_for("gather", False, 0)
    assert other != campaign.plan_for("gather", False, 0)


def test_even_indices_carry_a_crash():
    campaign = small_campaign()
    for write_path in WRITE_PATHS:
        even = campaign.plan_for(write_path, False, 0)
        odd = campaign.plan_for(write_path, False, 1)
        assert sum(isinstance(e, ServerCrash) for e in even.events) == 1
        assert not any(isinstance(e, ServerCrash) for e in odd.events)


def test_small_campaign_clean_and_byte_stable():
    report = small_campaign().execute()
    assert report.clean, report.violations
    assert len(report.results) == len(WRITE_PATHS) * 2 * 2
    # Crashes actually happened somewhere (even-index plans).
    assert sum(result.crashes for result in report.results) > 0
    assert sum(result.acked_writes for result in report.results) > 0
    rerun = small_campaign().execute()
    assert report.to_json() == rerun.to_json()


@pytest.mark.parametrize("write_path", WRITE_PATHS)
def test_span_triggered_crash_fires_on_the_campaign_config(write_path):
    # The campaign's configs do not trace; run_plan turns tracing on for a
    # plan whose trigger reads spans, so its crash still fires.
    campaign = small_campaign()
    config = campaign.config_for(write_path, False)
    plan = campaign.plan_for(write_path, False, 0)
    assert not config.tracing and plan.needs_tracing()
    result = run_plan(config, plan, file_kb=campaign.file_kb)
    assert result.crashes == 1
    assert result.clean, result.violations


@pytest.mark.parametrize("combo", ChaosCampaign().combos())
def test_tracing_changes_no_result_of_a_timed_plan(combo):
    campaign = small_campaign()
    config = campaign.config_for(*combo)
    plan = campaign.plan_for(*combo, 2)
    assert not plan.needs_tracing()
    untraced = run_plan(config, plan, file_kb=campaign.file_kb)
    traced = run_plan(replace(config, tracing=True), plan, file_kb=campaign.file_kb)
    assert untraced.crashes == 1
    assert traced.to_dict() == untraced.to_dict()


def test_crash_while_charging_an_indirect_block_write():
    # Seed 11's siva-plain-004 crashes the server while an nfsd that the
    # crash orphaned is charging CPU for an indirect-block write.  The
    # crash resets the inode to its committed state, which has no
    # indirect block yet, so the write must be skipped, not submitted
    # to address None.
    campaign = ChaosCampaign(seed=11, plans_per_combo=5, file_kb=192)
    result = run_plan(
        campaign.config_for("siva", False),
        campaign.plan_for("siva", False, 4),
        file_kb=192,
    )
    assert result.clean, result.violations


def test_indirect_block_belongs_to_the_inode_that_names_it():
    # Seed 12's siva-plain-004 crashes after an indirect-block write has
    # committed but before the inode that names its address has.  That
    # block is an orphan: recovery must not count it as the file's, or
    # the rebooted server later commits an inode whose size spans the
    # indirect range with no indirect address, and fsck reports
    # "committed indirect entries but no indirect block address".
    campaign = ChaosCampaign(seed=12)
    result = run_plan(
        campaign.config_for("siva", False),
        campaign.plan_for("siva", False, 4),
        file_kb=campaign.file_kb,
    )
    assert result.crashes == 1
    assert result.clean, result.violations


def test_report_surfaces_violations_with_combo_prefix():
    report = small_campaign().execute()
    result = report.results[0]
    result.violations.append("synthetic violation")
    assert not report.clean
    prefix = f"{result.write_path}/presto={'on' if result.presto else 'off'}"
    assert any(
        violation.startswith(prefix) and "synthetic violation" in violation
        for violation in report.violations
    )


def test_cli_chaos_json(capsys):
    exit_code = main(
        ["chaos", "--seed", "3", "--plans", "1", "--file-kb", "48", "--json"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    report = json.loads(out)
    assert report["clean"] is True
    assert report["plans_run"] == len(WRITE_PATHS) * 2
    assert report["violations"] == []


def test_cli_chaos_subset_flags(capsys):
    exit_code = main(
        [
            "chaos",
            "--seed",
            "3",
            "--plans",
            "1",
            "--file-kb",
            "48",
            "--write-paths",
            "gather",
            "--presto",
            "off",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "gather" in out
    assert "ok" in out

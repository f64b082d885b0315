"""Tests for repro.core.workflow (Fig. 6)."""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.core.workflow import WorkflowReport, run_workflow


@pytest.fixture(scope="module", params=["sim", "asyncio"])
def report_and_system(request):
    """The same ``run_workflow(system)`` on both transports.  On TCP
    simulated time is wall time / 20: the 10 s settles are 0.5 s each
    (the Fig. 4 handshake needs ~40 ms of pure-Python crypto on an idle
    host) and the 30 s of reporting are 1.5 s."""
    system = BIoTSystem.build(BIoTConfig(
        device_count=3, gateway_count=2, seed=21, initial_difficulty=6,
        report_interval=2.0, transport=request.param, time_scale=20.0,
    ))
    try:
        yield run_workflow(system, report_seconds=30.0,
                           settle_seconds=10.0), system
    finally:
        system.close()


class TestWorkflow:
    def test_all_steps_pass(self, report_and_system):
        report, _ = report_and_system
        assert report.ok, report.format()

    def test_five_steps_recorded(self, report_and_system):
        report, _ = report_and_system
        assert [s.number for s in report.steps] == [1, 2, 3, 4, 5]

    def test_step1_registers_gateways(self, report_and_system):
        report, system = report_and_system
        step = report.steps[0]
        assert step.details["registered"] == len(system.gateways)

    def test_step2_authorizes_all_devices(self, report_and_system):
        report, system = report_and_system
        assert report.steps[1].details["authorized"] == len(system.devices)

    def test_step3_distributes_to_sensitive_only(self, report_and_system):
        report, system = report_and_system
        sensitive = sum(1 for d in system.devices if d.sensor.sensitive)
        step = report.steps[2]
        assert step.details["sensitive_devices"] == sensitive
        assert step.details["completed"] == sensitive

    def test_steps_4_5_produce_traffic(self, report_and_system):
        report, _ = report_and_system
        assert report.steps[3].details["pow_solves"] > 0
        assert report.steps[4].details["accepted"] > 0

    def test_format_is_readable(self, report_and_system):
        report, _ = report_and_system
        text = report.format()
        assert "B-IoT workflow" in text
        assert "step 1" in text and "step 5" in text
        assert "FAILED" not in text

    def test_marks_system_initialized(self, report_and_system):
        _, system = report_and_system
        assert system.initialized


class TestReportMechanics:
    def test_empty_report_is_ok(self):
        assert WorkflowReport().ok

    def test_failed_step_fails_report(self):
        report = WorkflowReport()
        report.add(1, "good", True)
        report.add(2, "bad", False, why="because")
        assert not report.ok
        assert "FAILED" in report.format()
        assert "why = because" in report.format()

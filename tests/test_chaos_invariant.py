"""The chaos harness's one delivery invariant, on synthetic logs — plus
the net scenario executed once, so tier-1 imports and runs its driver.

:func:`repro.tools.chaos.check_delivery` is the only statement of
"exactly once, in order, byte-identical or typed loss, no stall"; every
scenario (gts, s3d, net) feeds it a :class:`DeliveryLog`.  These tests
pin each violation to its own message without spawning anything.
"""

import pytest

from repro.tools.chaos import (
    ABANDON,
    DeliveryLog,
    check_delivery,
    check_observability,
    run_chaos,
)

STEPS = 5
EXPECTED = {s: f"digest-{s}" for s in range(STEPS)}


def clean_log(**changes) -> DeliveryLog:
    log = DeliveryLog(
        expected=dict(EXPECTED),
        committed=list(range(STEPS)),
        observed=[(s, EXPECTED[s]) for s in range(STEPS)],
    )
    for name, value in changes.items():
        setattr(log, name, value)
    return log


def only(violations, needle):
    """Exactly one violation, and it is the one about ``needle``."""
    assert len(violations) == 1, violations
    assert needle in violations[0], violations
    return violations[0]


def test_clean_log_has_no_violation():
    assert check_delivery(clean_log()) == []


def test_agreed_typed_loss_has_no_violation():
    log = clean_log(
        committed=[0, 1, 3, 4], writer_lost=[2],
        observed=[(0, EXPECTED[0]), (1, EXPECTED[1]), (2, None),
                  (3, EXPECTED[3]), (4, EXPECTED[4])],
    )
    assert check_delivery(log) == []


@pytest.mark.parametrize("side", ["writer", "reader"])
def test_typed_abandon_prefix_has_no_violation(side):
    """Either side may stop early with a typed abandon; what the reader
    did observe before it must still be a byte-identical prefix."""
    prefix = [(s, EXPECTED[s]) for s in range(3)]
    if side == "writer":
        # Step 3 was in flight when the session was lost: in doubt, so
        # the reader may or may not have it; the stream then failed.
        log = clean_log(committed=[0, 1, 2], observed=prefix,
                        writer_end=ABANDON + "SessionLost: PUBLISH step 3",
                        reader_end=ABANDON + "OtherError at step 2 (stream failed)")
    else:
        log = clean_log(observed=prefix,
                        reader_end=ABANDON + "SessionLost: FETCH step 3")
    assert check_delivery(log) == []


def test_duplicate_step():
    log = clean_log(observed=[(0, EXPECTED[0]), (1, EXPECTED[1]), (1, EXPECTED[1]),
                              (2, EXPECTED[2]), (3, EXPECTED[3]), (4, EXPECTED[4])])
    only(check_delivery(log), "step 1 observed twice")


def test_skipped_step():
    log = clean_log(observed=[(s, EXPECTED[s]) for s in (0, 1, 3, 4)])
    violations = check_delivery(log)
    assert any("steps 2..2 skipped" in v for v in violations), violations
    # ...and EndOfStream without it is the silent drop, said separately.
    assert any("[2] written but never observed" in v for v in violations)
    assert len(violations) == 2


def test_out_of_order_step():
    log = clean_log(observed=[(s, EXPECTED[s]) for s in (0, 2, 1, 3, 4)])
    violations = check_delivery(log)
    assert any("step 1 observed out of order (after step 2)" in v for v in violations)
    assert not any("twice" in v or "byte-identical" in v for v in violations)


def test_payload_mismatch():
    observed = [(s, EXPECTED[s]) for s in range(STEPS)]
    observed[3] = (3, "torn")
    only(check_delivery(clean_log(observed=observed)),
         "step 3 observed but NOT byte-identical")


def test_observed_step_that_was_never_written_is_a_mismatch():
    log = clean_log(observed=[(s, EXPECTED[s]) for s in range(STEPS)] + [(5, "x")])
    only(check_delivery(log), "step 5 observed but NOT byte-identical")


def test_writer_and_reader_disagree_on_lost_steps():
    # The reader lost a step the writer committed ...
    observed = [(s, EXPECTED[s]) for s in range(STEPS)]
    observed[2] = (2, None)
    only(check_delivery(clean_log(observed=observed)),
         "disagree on lost steps: writer=[] reader=[2]")
    # ... and the reader observed data for a step the writer saw fail.
    log = clean_log(committed=[0, 1, 3, 4], writer_lost=[2])
    only(check_delivery(log), "disagree on lost steps: writer=[2] reader=[]")


def test_silent_tail_drop_at_end_of_stream():
    log = clean_log(observed=[(s, EXPECTED[s]) for s in range(3)])
    only(check_delivery(log), "[3, 4] written but never observed")


@pytest.mark.parametrize("side", ["writer", "reader"])
def test_untyped_worker_death(side):
    log = clean_log(**{f"{side}_end": "died untyped (rc=1):\nValueError: boom"})
    if side == "reader":
        log.observed = log.observed[:2]  # whatever it saw before dying
    only(check_delivery(log), f"{side} died untyped")


def test_not_ready_on_an_ended_stream():
    log = clean_log(
        observed=[(s, EXPECTED[s]) for s in range(3)],
        reader_end="got NotReady at step 2 after 5.0s: a stall, not a typed status",
    )
    only(check_delivery(log), "reader got NotReady at step 2")


def test_watchdog_is_a_violation():
    log = clean_log(observed=[],
                    reader_end="outlived the 120s watchdog (deadlock?)")
    only(check_delivery(log), "reader outlived the 120s watchdog")


def test_observability_check():
    sample = {"who": "writer", "injected": 3, "fault_events": 3,
              "counters": {"net.reconnects": (2, 2), "net.resume": (1, 1)}}
    assert check_observability(sample) == []
    only(check_observability({**sample, "fault_events": 2}),
         "writer: 3 faults injected but only 2 transport.fault flight events")
    only(check_observability({**sample, "counters": {"net.reconnects": (2, 1)}}),
         "writer: net.reconnects=2 but 1 flight events")
    # A net reader is held at the daemon: its FETCH frames are bounded by
    # 3 x steps observed + reconnects (here 3 * 2 + 2); a poll is not.
    reader = {**sample, "who": "reader", "fetches": (8, 2)}
    assert check_observability(reader) == []
    only(check_observability({**reader, "fetches": (9, 2)}),
         "reader: 9 FETCH frames for 2 steps observed (bound 8)")
    # An in-process run reports what its shm rung staged: none is the pass.
    assert check_observability({**sample, "staged": 0}) == []
    only(check_observability({**sample, "staged": 3}),
         "writer: 3 deliveries were staged through the shm pool")


# ---------------------------------------------------------------------------
# The real drivers feed the same function
# ---------------------------------------------------------------------------

def test_reader_stall_is_reported_through_the_one_invariant(monkeypatch):
    """An in-process reader that gets NotReady from the closed stream is
    a violation found by check_delivery, not by a driver-local check."""
    from repro.adios import StepStatus
    from repro.core.stream import FlexpathReadHandle

    real = FlexpathReadHandle.begin_step

    def stalls_at_two(self, timeout=None):
        if self.current_step == 1 and self._step_consumed:
            return StepStatus.NotReady
        return real(self, timeout=timeout)

    monkeypatch.setattr(FlexpathReadHandle, "begin_step", stalls_at_two)
    report = run_chaos("gts", seed=7, rate=0.0, steps=4)
    assert not report.ok
    assert report.committed == [0, 1]
    assert any("reader got NotReady at step 1" in v
               for v in report.invariant_violations), report.invariant_violations


def test_net_scenario_calm_run():
    """Daemon + writer + reader as three OS processes, no faults, restart
    mode none (seed % 3 == 0): netsmoke's calm exchange, judged by the
    same invariant function as the in-process scenarios."""
    report = run_chaos("net", seed=3, rate=0.0, steps=4)
    assert report.ok, report.invariant_violations
    assert (report.scenario, report.transport, report.restart) == ("net", "tcp", "none")
    assert report.committed == [0, 1, 2, 3]
    assert report.lost == [] and report.abandoned == []
    assert report.faults_injected == 0 and report.retries == 0
    assert report.as_dict()["ok"] is True

"""Absolute pins of the result records' JSON wire form.

Alarm events, live and response reports, scenario summaries, work chunks
and stream statuses cross every process and HTTP boundary as
``to_mapping()`` dumps.  The round-trip tests elsewhere are relative
(``from_mapping(to_mapping(x))`` agrees with ``x``), so a change to how a
record is dumped — a key renamed, reordered or dropped, an ``int`` written
as ``1.0`` — would pass them all while breaking every peer on an older
build.  These digests hash ``json.dumps`` *without* ``sort_keys``, so key
order counts.  They were computed once and must never be regenerated to
make a change pass: a mismatch means the wire form moved.

:class:`TestStrictLoading` pins the other direction: a peer's malformed
record fails with a :class:`ConfigurationError` naming the dotted path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.anomaly.diagnosis import AnomalyClass, DiagnosisSummary
from repro.common.exceptions import ConfigurationError
from repro.experiments.analysis import ScenarioSummary
from repro.experiments.scenarios import integrity_attack_on_xmv3_scenario
from repro.gateway.journal import AlarmJournal
from repro.gateway.pool import StreamStatus
from repro.live.alarms import AlarmEvent
from repro.live.monitor import LiveRunReport
from repro.mspc.model import OmedaResult
from repro.response.metrics import ResponseSummary
from repro.response.verify import ActionRecord, ResponseReport
from repro.service.chunks import WorkChunk


def omeda() -> OmedaResult:
    # float32 contributions and numpy-integer indices: the dump must widen
    # and cast them to plain JSON numbers.
    return OmedaResult(
        variable_names=("XMEAS(1)", "XMV(3)", "XMEAS(9)"),
        contributions=np.array([0.1, -1.25, 3.0e-3], dtype=np.float32),
        observation_indices=(np.int64(120), np.int64(121)),
    )


def diagnosis() -> DiagnosisSummary:
    return DiagnosisSummary(
        controller_omeda=omeda(),
        process_omeda=None,
        similarity=np.float64(0.2500000000000001),
        classification=AnomalyClass.INTEGRITY_ATTACK,
        detection_time_hours=None,
        metadata={"false_alarm_time_hours": None, "note": "golden"},
    )


def event(kind: str = "raised", index=np.int64(42)) -> AlarmEvent:
    return AlarmEvent(
        kind=kind,
        index=index,
        time_hours=np.float64(2.1500000000000004),
        chart="D+Q",
        statistic_value=np.float32(0.1),
        limit=25.42485,
    )


def live_report() -> LiveRunReport:
    # Views deliberately out of order: the wire form lists them sorted.
    return LiveRunReport(
        n_samples=np.int64(240),
        detection_index=123,
        detection_time_hours=6.15,
        detection_latency_hours=np.float64(0.15000000000000036),
        false_alarm_time_hours=None,
        snapshot=diagnosis(),
        snapshot_time_hours=6.15,
        time_to_diagnosis_hours=0.15,
        diagnosis=None,
        alarm_events={
            "process": (event(), event("cleared", 130)),
            "controller": (event(),),
        },
        stopped_early=True,
        stop_index=np.int64(200),
        stop_time_hours=None,
    )


def empty_live_report() -> LiveRunReport:
    return LiveRunReport(
        n_samples=0,
        detection_index=None,
        detection_time_hours=None,
        detection_latency_hours=None,
        false_alarm_time_hours=None,
        snapshot=None,
        snapshot_time_hours=None,
        time_to_diagnosis_hours=None,
        diagnosis=None,
    )


def action() -> ActionRecord:
    return ActionRecord(
        index=np.int64(125),
        time_hours=np.float64(6.25),
        action="isolate_channel",
        rule_index=0,
        view="process",
        chart="Q",
    )


def response_report() -> ResponseReport:
    return ResponseReport(
        live=live_report(),
        policy_enabled=True,
        hold_samples=np.int64(5),
        actions=(action(),),
        first_action_index=125,
        first_action_time_hours=np.float64(6.25),
        recovered=True,
        recovery_index=140,
        recovery_time_hours=7.0,
        time_to_recovery_hours=0.75,
        residual_alarms=2,
        residual_alarm_rate=np.float64(1.0) / 3.0,
        trip_avoided=True,
        shutdown_time_hours=None,
        shutdown_reason=None,
    )


def response_summary() -> ResponseSummary:
    return ResponseSummary(
        scenario_name="attack_xmv3",
        title="Integrity attack on XMV(3)",
        n_runs=3,
        n_detected=np.int64(3),
        n_responded=2,
        n_actions=4,
        n_recovered=1,
        n_trips=1,
        n_trips_avoided=1,
        times_to_recovery_hours=(0.75,),
        residual_alarm_rates=(np.float64(0.1), 0.2),
    )


def scenario_summary() -> ScenarioSummary:
    # Classification counts in first-seen (not sorted) order.
    return ScenarioSummary(
        scenario=integrity_attack_on_xmv3_scenario(),
        run_lengths=[1.25, None, np.float64(0.5)],
        counts={"integrity attack": 2, "normal": 1, "disturbance": 0},
        false_alarm_count=np.int64(1),
        shutdown_times_hours=[None, 4.5, None],
        omeda_means={
            "controller": (("XMEAS(1)", "XMV(3)"), np.array([0.5, -1.5])),
            "process": (("XMV(3)",), np.array([2], dtype=np.int64)),
        },
    )


def work_chunk() -> WorkChunk:
    return WorkChunk(chunk_id="c0003", start=12, stop=16, fingerprint="ab" * 8)


def stream_status() -> StreamStatus:
    return StreamStatus(
        stream_id="plant-7",
        n_samples=480,
        n_pending=3,
        detected=True,
        alarm_active=False,
        n_alarm_events=2,
        last_seen_age_seconds=0.125,
    )


#: ``record builder -> sha256 of json.dumps(record.to_mapping())``.
GOLDEN_RECORDS = {
    "omeda": (
        omeda,
        "e1adee0bff967c9e88e78d41418b1de5813d29c0e88313afeb1e137681a59455",
    ),
    "diagnosis": (
        diagnosis,
        "e3208ba79a1a04c43f5b2a0b8fa147d0651f8ff38e96d1f6d383ce26dc83c652",
    ),
    "alarm_event": (
        event,
        "00601b80f77c5910c75f7188808b272b6856336daba4ca4364d68e7dd672dfb9",
    ),
    "live_report": (
        live_report,
        "41d9ca1a17304e773150bee06c7ae92174627330c531722f66f4a564072c9754",
    ),
    "empty_live_report": (
        empty_live_report,
        "c2ce5bd29d3d9380baee4a8debcde7691eb9fc575eedab834fcc456bfcd40ff4",
    ),
    "action": (
        action,
        "a972f2dc7c577fbc64ad85cf914f5df8528abae0d15895b8ae430c4f582863f0",
    ),
    "response_report": (
        response_report,
        "6f26a2650ef36d4b981e8fca7342dda42fa209d6808986c2055e9ae76d497f99",
    ),
    "response_summary": (
        response_summary,
        "c288c2c99337214a26c0c1f6d5914db581a85323f3e77710bc2a9e9a956df4a9",
    ),
    "scenario_summary": (
        scenario_summary,
        "d305b2dc8775bb97e95962a95a7829fd1d0de2c6f91fa43e7183e9c641335dd4",
    ),
    "work_chunk": (
        work_chunk,
        "f84bb4f0069cf65f580aff1116341f132ae2eed7581e7efa176dc48fc11bc9ff",
    ),
    "stream_status": (
        stream_status,
        "75401d1da97ea1ad61e561f8e7029b0b2f79ed234fd29f0b241dd2cc8d7c18ee",
    ),
}

#: One gateway-journal alarm line: checksum, tab, canonical JSON, newline.
GOLDEN_JOURNAL_ALARM = (
    b'1efde739\t{"alarm":{"chart":"D+Q","index":42,"kind":"raised",'
    b'"limit":25.42485,"statistic_value":0.10000000149011612,'
    b'"time_hours":2.1500000000000004},"event":"alarm",'
    b'"stream_id":"plant-7","v":1,"view":"process"}\n'
)


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record.to_mapping()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS))
def test_record_wire_form_is_pinned(name):
    build, expected = GOLDEN_RECORDS[name]
    assert digest(build()) == expected


def test_journal_alarm_record_is_pinned(tmp_path):
    with AlarmJournal(tmp_path / "alarms.journal", fsync="never") as journal:
        journal.record_alarm("plant-7", "process", event().to_mapping())
    assert (tmp_path / "alarms.journal").read_bytes() == GOLDEN_JOURNAL_ALARM


def wire(record):
    """The record's mapping as a peer receives it."""
    return json.loads(json.dumps(record.to_mapping()))


def with_extra_key(mapping):
    mapping["detection_idx"] = 3
    return mapping


def without(key):
    def mutate(mapping):
        del mapping[key]
        return mapping

    return mutate


def set_path(value, *keys):
    def mutate(mapping):
        target = mapping
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return mapping

    return mutate


class TestStrictLoading:
    """A malformed record fails with a ConfigurationError naming the field."""

    @pytest.mark.parametrize(
        "cls, build, mutate, message",
        [
            pytest.param(
                LiveRunReport,
                live_report,
                with_extra_key,
                r"unknown key\(s\) \['detection_idx'\] in LiveRunReport"
                r".*did you mean 'detection_index'",
                id="unknown-key",
            ),
            pytest.param(
                LiveRunReport,
                live_report,
                without("n_samples"),
                r"missing key\(s\) \['n_samples'\] in LiveRunReport",
                id="missing-key",
            ),
            pytest.param(
                LiveRunReport,
                live_report,
                set_path("attack", "snapshot", "classification"),
                r"invalid snapshot\.classification: 'attack' is not one of",
                id="bad-enum",
            ),
            pytest.param(
                LiveRunReport,
                live_report,
                set_path("yes", "stopped_early"),
                r"invalid stopped_early: expected a boolean",
                id="bad-bool",
            ),
            pytest.param(
                ResponseReport,
                response_report,
                set_path(1.5, "actions", 0, "index"),
                r"invalid actions\[0\]\.index: expected an integer, got 1\.5",
                id="nested-list-int",
            ),
            pytest.param(
                ResponseReport,
                response_report,
                set_path("high", "live", "alarm_events", "process", 1, "limit"),
                r"invalid live\.alarm_events\.process\[1\]\.limit",
                id="nested-dict-list-float",
            ),
            pytest.param(
                ScenarioSummary,
                scenario_summary,
                set_path([0.5, "x"], "omeda_means", "controller", "values"),
                r"invalid omeda_means\.controller\.values\[1\]",
                id="override-array-item",
            ),
            pytest.param(
                ScenarioSummary,
                scenario_summary,
                set_path({"names": ["a"]}, "omeda_means", "process"),
                r"missing key\(s\) \['values'\] in omeda_means\.process",
                id="override-missing-key",
            ),
            pytest.param(
                WorkChunk,
                work_chunk,
                set_path("12", "start"),
                r"invalid start: expected an integer, got '12'",
                id="int-from-string",
            ),
            pytest.param(
                ResponseSummary,
                response_summary,
                set_path(7, "title"),
                r"invalid title: expected a string, got 7",
                id="str-from-int",
            ),
        ],
    )
    def test_malformed_mapping_names_the_path(self, cls, build, mutate, message):
        with pytest.raises(ConfigurationError, match=message):
            cls.from_mapping(mutate(wire(build())))

    def test_fields_with_defaults_may_be_absent(self):
        live = wire(empty_live_report())
        assert ResponseReport.from_mapping({"live": live}) == ResponseReport(
            live=empty_live_report()
        )
        del live["alarm_events"], live["stop_index"]
        assert LiveRunReport.from_mapping(live) == empty_live_report()

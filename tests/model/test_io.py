"""Tests for JSON serialization of task sets and partitions."""

import json

import pytest

from repro.model import (
    MCTask,
    MCTaskSet,
    Partition,
    events_from_dict,
    events_to_dict,
    load_events,
    load_partition,
    load_taskset,
    partition_from_dict,
    partition_to_dict,
    save_events,
    save_partition,
    save_taskset,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.model.io import MAX_LEVELS
from repro.sched.events import (
    core_failure,
    core_hotplug,
    mode_recovery,
    task_arrival,
    task_departure,
    wcet_burst,
)
from repro.types import ModelError, SimulationError
from tests import malformed


@pytest.fixture
def taskset():
    return MCTaskSet(
        [
            MCTask(wcets=(2.0, 5.0), period=20.0, name="hi"),
            MCTask(wcets=(4.0,), period=25.0, name="lo"),
        ],
        levels=3,
    )


class TestTasksetRoundTrip:
    def test_dict_round_trip(self, taskset):
        assert taskset_from_dict(taskset_to_dict(taskset)) == taskset

    def test_file_round_trip(self, taskset, tmp_path):
        path = tmp_path / "ts.json"
        save_taskset(taskset, path)
        assert load_taskset(path) == taskset

    def test_document_is_plain_json(self, taskset, tmp_path):
        path = tmp_path / "ts.json"
        save_taskset(taskset, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-mc-taskset"
        assert doc["levels"] == 3
        assert doc["tasks"][0]["wcets"] == [2.0, 5.0]

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError, match="format"):
            taskset_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, taskset):
        doc = taskset_to_dict(taskset)
        doc["version"] = 99
        with pytest.raises(ModelError, match="version"):
            taskset_from_dict(doc)

    def test_malformed_tasks_rejected(self, taskset):
        doc = taskset_to_dict(taskset)
        del doc["tasks"][0]["period"]
        with pytest.raises(ModelError, match="malformed"):
            taskset_from_dict(doc)

    @pytest.mark.parametrize("levels", [0, MAX_LEVELS + 1, 2000, 2.0, True, "3"])
    def test_levels_outside_cap_rejected(self, taskset, levels):
        doc = taskset_to_dict(taskset)
        doc["levels"] = levels
        with pytest.raises(ModelError, match="levels must be an integer"):
            taskset_from_dict(doc)

    def test_invalid_task_values_surface_model_errors(self, taskset):
        doc = taskset_to_dict(taskset)
        doc["tasks"][0]["wcets"] = [5.0, 2.0]  # decreasing
        with pytest.raises(ModelError):
            taskset_from_dict(doc)


class TestPartitionRoundTrip:
    def test_round_trip(self, taskset, tmp_path):
        part = Partition(taskset, cores=2)
        part.assign(0, 1)
        part.assign(1, 0)
        path = tmp_path / "part.json"
        save_partition(part, path)
        loaded = load_partition(path)
        assert loaded.cores == 2
        assert loaded.core_of(0) == 1
        assert loaded.core_of(1) == 0
        assert loaded.taskset == taskset

    def test_partial_partition_round_trip(self, taskset):
        part = Partition(taskset, cores=2)
        part.assign(0, 0)
        clone = partition_from_dict(partition_to_dict(part))
        assert clone.core_of(0) == 0
        assert clone.core_of(1) == -1

    def test_wrong_format_rejected(self, taskset):
        with pytest.raises(ModelError, match="format"):
            partition_from_dict(taskset_to_dict(taskset))

    def test_level_matrices_rebuilt(self, taskset):
        import numpy as np

        part = Partition(taskset, cores=2)
        part.assign(0, 0)
        part.assign(1, 0)
        clone = partition_from_dict(partition_to_dict(part))
        np.testing.assert_allclose(clone.level_matrix(0), part.level_matrix(0))


@pytest.fixture
def events():
    return (
        wcet_burst(10.0, 40.0, 2.5, tasks=(0, 1)),
        task_arrival(20.0, MCTask(wcets=(1.0, 2.0), period=15.0, name="late")),
        task_departure(50.0, task_index=1),
        core_failure(30.0, core=1),
        core_hotplug(80.0, core=1),
        mode_recovery(60.0, 90.0),
    )


class TestEventsRoundTrip:
    def test_dict_round_trip(self, events):
        clone = events_from_dict(events_to_dict(events))
        assert clone == events

    def test_file_round_trip(self, events, tmp_path):
        path = tmp_path / "events.json"
        save_events(events, path)
        assert load_events(path) == events

    def test_instantaneous_events_use_time_sugar(self, events):
        doc = events_to_dict(events)
        by_kind = {entry["kind"]: entry for entry in doc["events"]}
        assert by_kind["core_failure"] == {
            "kind": "core_failure",
            "time": 30.0,
            "core": 1,
        }
        assert "start" not in by_kind["task_arrival"]
        assert by_kind["wcet_burst"]["start"] == 10.0
        assert by_kind["wcet_burst"]["end"] == 40.0

    def test_time_sugar_accepted_on_load(self):
        doc = {
            "format": "repro-mc-events",
            "version": 1,
            "events": [{"kind": "task_departure", "time": 5.0, "task_index": 0}],
        }
        (event,) = events_from_dict(doc)
        assert event.start == event.end == 5.0

    def test_wrong_format_rejected(self, events):
        doc = events_to_dict(events)
        doc["format"] = "repro-mc-taskset"
        with pytest.raises(ModelError, match="not a repro-mc-events"):
            events_from_dict(doc)

    def test_wrong_version_rejected(self, events):
        doc = events_to_dict(events)
        doc["version"] = 99
        with pytest.raises(ModelError, match="unsupported version"):
            events_from_dict(doc)

    def test_non_list_events_rejected(self):
        doc = {"format": "repro-mc-events", "version": 1, "events": {}}
        with pytest.raises(ModelError, match="must be a list"):
            events_from_dict(doc)

    def test_malformed_entry_names_position(self, events):
        doc = events_to_dict(events)
        del doc["events"][2]["kind"]
        with pytest.raises(ModelError, match="malformed event #2"):
            events_from_dict(doc)

    def test_structurally_invalid_event_surfaces_sim_error(self, events):
        doc = events_to_dict(events)
        doc["events"][0]["factor"] = -1.0
        with pytest.raises(SimulationError, match="factor must be positive"):
            events_from_dict(doc)

    def test_document_is_plain_json(self, events, tmp_path):
        path = tmp_path / "events.json"
        save_events(events, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-mc-events"
        assert len(doc["events"]) == len(events)


class TestMalformedDocuments:
    """Every row of the shared table is a one-line ModelError."""

    @pytest.mark.parametrize(
        "row", malformed.rows("task", "taskset", "events", "partition")
    )
    def test_decoder_raises_model_error(self, row):
        if row.kind == "task":
            decodes = [
                lambda: taskset_from_dict(malformed.taskset_doc([row.doc])),
                lambda: events_from_dict(
                    malformed.events_doc(malformed.arrival(row.doc))
                ),
            ]
        else:
            decoder = {
                "taskset": taskset_from_dict,
                "events": events_from_dict,
                "partition": partition_from_dict,
            }[row.kind]
            decodes = [lambda: decoder(row.doc)]
        for decode in decodes:
            with pytest.raises(ModelError) as exc:
                decode()
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("row", malformed.rows("bytes"))
    def test_loaders_raise_model_error_on_non_json(self, row, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(row.doc)
        for load in (load_taskset, load_events, load_partition):
            with pytest.raises(ModelError) as exc:
                load(path)
            assert "\n" not in str(exc.value)

    def test_malformed_task_names_its_position_and_field(self):
        doc = malformed.taskset_doc(
            [{"period": 10, "wcets": [1]}, {"period": "10", "wcets": [1]}]
        )
        with pytest.raises(ModelError, match=r"task #1: period must be a finite"):
            taskset_from_dict(doc)

"""Validation of the admission daemon's wire protocol."""

import pytest

from repro.model.io import MAX_LEVELS, taskset_to_dict
from repro.serve.protocol import ProtocolError, parse_admit, parse_place
from tests import malformed
from tests.conftest import random_taskset

import numpy as np


@pytest.fixture
def ts():
    return random_taskset(np.random.default_rng(0), n=5)


class TestParseAdmit:
    def test_round_trip(self, ts):
        req = parse_admit(
            {"taskset": taskset_to_dict(ts), "cores": 3, "scheme": "ffd"}
        )
        assert req.cores == 3 and req.scheme == "ffd"
        assert req.taskset == ts

    def test_scheme_defaults_to_catpa(self, ts):
        assert parse_admit({"taskset": taskset_to_dict(ts), "cores": 1}).scheme == "ca-tpa"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_admit([1, 2])

    def test_rejects_missing_taskset(self):
        with pytest.raises(ProtocolError, match="taskset"):
            parse_admit({"cores": 2})

    def test_rejects_malformed_taskset(self, ts):
        doc = taskset_to_dict(ts)
        doc["format"] = "something-else"
        with pytest.raises(ProtocolError, match="bad taskset"):
            parse_admit({"taskset": doc, "cores": 2})

    @pytest.mark.parametrize("levels", [0, -1, MAX_LEVELS + 1, 2000, 10**9])
    def test_rejects_levels_outside_cap(self, levels):
        doc = {
            "format": "repro-mc-taskset",
            "version": 1,
            "levels": levels,
            "tasks": [{"period": 10.0, "wcets": [1.0, 2.0]}] * 2,
        }
        with pytest.raises(ProtocolError, match=r"bad taskset: levels must be") as exc:
            parse_admit({"taskset": doc, "cores": 8})
        assert exc.value.status == 400

    def test_accepts_levels_at_cap(self):
        doc = {
            "format": "repro-mc-taskset",
            "version": 1,
            "levels": MAX_LEVELS,
            "tasks": [{"period": 10.0, "wcets": [1.0, 2.0]}],
        }
        assert parse_admit({"taskset": doc, "cores": 1}).taskset.levels == MAX_LEVELS

    @pytest.mark.parametrize("cores", [0, -1, "2", 2.0, True, None])
    def test_rejects_bad_cores(self, ts, cores):
        with pytest.raises(ProtocolError, match="cores"):
            parse_admit({"taskset": taskset_to_dict(ts), "cores": cores})

    def test_rejects_unknown_scheme(self, ts):
        with pytest.raises(ProtocolError, match="unknown scheme"):
            parse_admit(
                {"taskset": taskset_to_dict(ts), "cores": 2, "scheme": "zzz"}
            )


class TestParsePlace:
    def test_round_trip(self):
        req = parse_place({"task": {"period": 10.0, "wcets": [1.0, 2.0], "name": "x"}})
        assert req.task.period == 10.0
        assert req.task.wcets == (1.0, 2.0)
        assert req.task.criticality == 2

    def test_rejects_missing_task(self):
        with pytest.raises(ProtocolError, match="'task'"):
            parse_place({"period": 10.0})

    def test_rejects_malformed_task(self):
        with pytest.raises(ProtocolError, match="bad task"):
            parse_place({"task": {"wcets": [1.0]}})  # no period

    def test_rejects_invalid_wcets(self):
        with pytest.raises(ProtocolError, match="bad task"):
            parse_place({"task": {"period": 10.0, "wcets": []}})

    def test_error_carries_status(self):
        try:
            parse_place(None)
        except ProtocolError as exc:
            assert exc.status == 400


class TestSharedMalformedTable:
    @pytest.mark.parametrize("row", malformed.rows("task", "taskset"))
    def test_rejected_as_400(self, row):
        if row.kind == "task":
            parse, body, prefix = parse_place, {"task": row.doc}, "bad task: "
        else:
            parse, body = parse_admit, {"taskset": row.doc, "cores": 2}
            prefix = "bad taskset: "
        with pytest.raises(ProtocolError) as exc:
            parse(body)
        assert exc.value.status == 400
        assert str(exc.value).startswith(prefix)
        assert "\n" not in str(exc.value)

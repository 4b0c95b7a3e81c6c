"""The served-request record's contract.

:class:`~repro.engine.server.ServedRequest` is a plain slotted
dataclass: the vector core builds one per request in a single columnar
``map`` (``VectorServingRun.execute``), the scalar core by keyword at
finish, and both only read it after that.  These tests pin the fields,
defaults, value semantics and round trips every consumer relies on, and
guard the record's shape itself: a frozen dataclass's ``__init__`` sets
each field through ``object.__setattr__``, which made the batched
object path several times slower to build its served list.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.engine.engine import InferenceEngine
from repro.engine.server import ServedRequest, ServingSimulator
from repro.models.registry import get_model

#: ``execute``'s positional order, then the scalar-only trailing field.
FIELDS = ("request_id", "arrival_s", "start_s", "finish_s", "prompt_tokens",
          "output_tokens", "deadline_s", "prefill_s", "attempts", "degraded",
          "slowdown_s")

#: The keys ``ResilienceReport.to_dict`` writes per served record.
SERIALIZED = set(FIELDS) - {"slowdown_s"}

#: Every pickle protocol that supports ``__slots__`` without a
#: ``__getstate__`` (protocols 0 and 1 do not, on any Python).
PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def _record(**overrides):
    values = dict(request_id=3, arrival_s=0.5, start_s=0.75, finish_s=2.5,
                  prompt_tokens=150, output_tokens=192, deadline_s=30.0,
                  prefill_s=0.125, attempts=1, degraded=False)
    values.update(overrides)
    return ServedRequest(**values)


@pytest.fixture(scope="module")
def vector_report():
    simulator = ServingSimulator(InferenceEngine(get_model("dsr1-qwen-1.5b")),
                                 max_batch_size=8, mode="vector")
    report = simulator.run_poisson(np.random.default_rng(3), qps=4.0,
                                   num_requests=40, deadline_s=20.0)
    assert simulator.last_mode == "vector"
    return report


class TestShape:
    def test_field_order(self):
        assert tuple(f.name for f in dataclasses.fields(ServedRequest)) \
            == FIELDS

    def test_positional_construction_in_execute_order(self):
        record = ServedRequest(3, 0.5, 0.75, 2.5, 150, 192, None, 0.125, 1,
                               False)
        assert record == _record(deadline_s=None)
        assert record.slowdown_s == 0.0

    def test_defaults(self):
        record = ServedRequest(3, 0.5, 0.75, 2.5, 150, 192)
        assert record.deadline_s is None
        assert record.prefill_s == 0.0
        assert record.attempts == 1
        assert record.degraded is False
        assert record.slowdown_s == 0.0

    def test_plain_slotted_record(self):
        """Not frozen, and no per-instance ``__dict__``: a later edit
        that brings back either fails here, not in a benchmark."""
        assert ServedRequest.__dataclass_params__.frozen is False
        assert "__slots__" in vars(ServedRequest)
        assert not hasattr(_record(), "__dict__")

    def test_unhashable(self):
        """``eq=True`` without ``frozen`` leaves ``__hash__`` unset."""
        assert ServedRequest.__hash__ is None
        with pytest.raises(TypeError):
            hash(_record())


class TestValueSemantics:
    def test_eq(self):
        assert _record() == _record()
        assert _record() != _record(finish_s=2.75)
        assert _record() != _record(slowdown_s=0.5)

    def test_repr(self):
        assert repr(_record(deadline_s=None)) == (
            "ServedRequest(request_id=3, arrival_s=0.5, start_s=0.75, "
            "finish_s=2.5, prompt_tokens=150, output_tokens=192, "
            "deadline_s=None, prefill_s=0.125, attempts=1, degraded=False, "
            "slowdown_s=0.0)")

    def test_replace(self):
        record = _record()
        changed = dataclasses.replace(record, attempts=2, degraded=True)
        assert (changed.attempts, changed.degraded) == (2, True)
        assert (record.attempts, record.degraded) == (1, False)
        assert dataclasses.replace(changed, attempts=1,
                                   degraded=False) == record

    def test_asdict(self):
        record = _record(slowdown_s=0.5)
        assert dataclasses.asdict(record) == {
            name: getattr(record, name) for name in FIELDS}


class TestRoundTrips:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickle_record(self, protocol):
        for record in (_record(), _record(deadline_s=None, slowdown_s=0.5)):
            loaded = pickle.loads(pickle.dumps(record, protocol))
            assert loaded == record
            assert type(loaded) is ServedRequest

    def test_deepcopy_record(self):
        record = _record(slowdown_s=0.5)
        copied = copy.deepcopy(record)
        assert copied == record and copied is not record

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickle_vector_report(self, vector_report, protocol):
        loaded = pickle.loads(pickle.dumps(vector_report, protocol))
        assert loaded.served == vector_report.served
        assert loaded.to_json() == vector_report.to_json()

    def test_deepcopy_vector_report(self, vector_report):
        copied = copy.deepcopy(vector_report)
        assert copied.served == vector_report.served
        assert copied.served[0] is not vector_report.served[0]
        assert copied.to_json() == vector_report.to_json()


class TestSerialization:
    def test_to_dict_leaves_out_slowdown(self, vector_report):
        served = vector_report.to_dict()["served"]
        assert served and all(set(row) == SERIALIZED for row in served)
        slowed = dataclasses.replace(vector_report, served=[
            dataclasses.replace(record, slowdown_s=1.5)
            for record in vector_report.served])
        assert slowed.to_json() == vector_report.to_json()

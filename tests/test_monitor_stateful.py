"""Hypothesis state-machine test: the monitor is a faithful RNN oracle.

A ``RuleBasedStateMachine`` draws arbitrary interleavings of object and
query inserts, moves, deletions and batches on the harness's degenerate
lattice (coincident objects, exact ties, objects on a query's horizontal
boundary rays) and, when the run ends, holds every variant to the
harness contract on that stream: the single-object API against its
one-update batches and the oracle after every tick, ``validate()`` at
the end.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.events import ObjectUpdate, QueryUpdate

from .conftest import VARIANTS
from .test_exactness import Stream, api, check, object_points, query_points


class MonitorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.batches: list[list] = []
        self.oids: list[int] = []
        self.qids: list[int] = []
        self.next_oid, self.next_qid = 0, 10_000

    def _new_object(self, p) -> ObjectUpdate:
        self.oids.append(self.next_oid)
        self.next_oid += 1
        return ObjectUpdate(self.oids[-1], p)

    @initialize(pts=st.lists(object_points, min_size=1, max_size=10))
    def seed_objects(self, pts):
        self.batches.append([self._new_object(p) for p in pts])

    @rule(p=object_points)
    def insert_object(self, p):
        self.batches.append([self._new_object(p)])

    @rule(p=object_points, data=st.data())
    def move_object(self, p, data):
        if self.oids:
            self.batches.append([ObjectUpdate(data.draw(st.sampled_from(self.oids)), p)])

    @rule(data=st.data())
    def delete_object(self, data):
        if len(self.oids) > 1:
            oid = self.oids.pop(data.draw(st.integers(0, len(self.oids) - 1)))
            self.batches.append([ObjectUpdate(oid, None)])

    @rule(p=query_points)
    def register_query(self, p):
        if len(self.qids) < 6:
            self.qids.append(self.next_qid)
            self.next_qid += 1
            self.batches.append([QueryUpdate(self.qids[-1], p)])

    @rule(p=query_points, data=st.data())
    def move_query(self, p, data):
        if self.qids:
            self.batches.append([QueryUpdate(data.draw(st.sampled_from(self.qids)), p)])

    @rule(data=st.data())
    def drop_query(self, data):
        if self.qids:
            qid = self.qids.pop(data.draw(st.integers(0, len(self.qids) - 1)))
            self.batches.append([QueryUpdate(qid, None)])

    @rule(pts=st.lists(object_points, min_size=1, max_size=5), data=st.data())
    def batch_moves(self, pts, data):
        if self.oids:
            self.batches.append(
                [ObjectUpdate(data.draw(st.sampled_from(self.oids)), p) for p in pts]
            )

    def teardown(self):
        for variant in VARIANTS:
            check(variant, Stream(None, self.batches, grid_cells=6), api)


MonitorMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMonitorMachine = MonitorMachine.TestCase

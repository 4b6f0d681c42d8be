"""Randomised correctness of the incremental monitor against brute force.

The core claim of the whole reproduction: after *any* sequence of object
and query updates, every variant's result set equals the brute-force
monochromatic RNN.  These tests run the stream shapes of
:func:`tests.test_exactness.shape_batches` — teleports, local jitter,
clustered data, insert/delete churn down to empty and back, query moves,
mixed and repeated-object batches — through the harness: the
reference against the oracle and Theorem 1 after every tick, and the
single-object API (the ``unbatched`` subject) against the reference's
results.
"""

import pytest

from .conftest import VARIANTS
from .test_exactness import check, reference, shape, unbatched


class TestTeleportingObjects:
    @pytest.mark.parametrize("grid_cells", [3, 12, 40])
    def test_random_teleports(self, variant, grid_cells):
        check(variant, shape(f"teleports-{grid_cells}"), unbatched)


class TestLocalMoves:
    def test_network_like_jitter(self, variant):
        check(variant, shape("jitter"), unbatched)


class TestClusteredData:
    def test_three_clusters(self, variant):
        check(variant, shape("clusters"), unbatched)


class TestChurn:
    def test_insert_delete_churn(self, variant):
        check(variant, shape("churn"), unbatched)

    def test_down_to_empty_and_back(self, variant):
        check(variant, shape("empty"), unbatched)


class TestMovingQueries:
    def test_query_churn(self, variant):
        check(variant, shape("query-churn"), unbatched)


class TestBatches:
    def test_mixed_random_batches(self, variant):
        check(variant, shape("mixed"))

    def test_batch_with_repeated_object(self, variant):
        """The same object updated several times within one batch."""
        check(variant, shape("repeated"))

    def test_batch_delete_then_reinsert(self, variant):
        check(variant, shape("reinsert"))


class TestRegressions:
    def test_transient_double_sector_membership(self, variant):
        check(variant, shape("double-membership"), unbatched)


class TestVariantEquivalence:
    def test_all_variants_agree_with_each_other(self):
        """Beyond matching the oracle, the three variants agree tick by tick."""
        runs = [reference(v, shape("teleports-12")).ticks for v in VARIANTS]
        for step, ticks in enumerate(zip(*runs)):
            assert ticks[0][1] == ticks[1][1] == ticks[2][1], f"step {step}"

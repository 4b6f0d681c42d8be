"""Cross-system consistency: every RNN implementation in the library must
agree on the same recorded workload.

The incremental monitor (all three variants), the correctness-first RkNN
monitor at k=1 and the TPL-FUR recompute baseline hold the harness
contract at every timestamp of a recorded workload; the static SAE / TPL
/ Rdnn algorithms agree with the brute-force oracle on its final
snapshot.
"""

from repro.core.oracle import BruteForceMonitor, brute_force_rnn

from .conftest import TEST_BOUNDS, VARIANTS
from .test_exactness import check, recorded, rknn, tpl_fur


def test_all_continuous_systems_agree():
    for variant in VARIANTS:
        check(variant, recorded("trace"))
    for companion in (rknn, tpl_fur):
        check("lu+pi", recorded("trace"), companion)


def test_static_algorithms_agree_on_final_snapshot():
    from repro.grid.index import GridIndex
    from repro.rnn.rdnn import RdnnIndex
    from repro.rnn.sae import sae_rnn
    from repro.rnn.tpl import tpl_rnn
    from repro.rtree.furtree import bulk_load

    oracle = BruteForceMonitor()
    for batch in recorded("trace").batches:
        oracle.process(batch)
    positions = dict(oracle.positions)

    grid = GridIndex(TEST_BOUNDS, 12)
    rdnn = RdnnIndex()
    for oid, pos in positions.items():
        grid.insert_object(oid, pos)
        rdnn.insert(oid, pos)
    tree = bulk_load(positions)

    for qid, (qpos, _) in oracle.queries.items():
        want = set(brute_force_rnn(positions, qpos))
        assert sae_rnn(grid, qpos) == want, f"SAE q{qid}"
        assert tpl_rnn(tree, qpos) == want, f"TPL q{qid}"
        assert rdnn.rnn(qpos) == want, f"Rdnn q{qid}"

"""Tests for the fan-out/fan-in experiment (repro.experiments.fanout)."""

import pytest

from repro.experiments import fanout

#: one small-but-real scale shared by the slow tests: wide enough for a
#: visible max-of-N tail, long enough to reach the 4 s leaf stall
SCALE = dict(duration=8.0, warmup=1.0, clients=2000)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant 'allof'"):
        fanout.run_one("allof", **SCALE)
    with pytest.raises(ValueError, match="unknown variant 'allof'"):
        fanout.run(variants=["sync", "allof"], **SCALE)


def test_degenerate_fanouts_rejected():
    with pytest.raises(ValueError, match="fanouts"):
        fanout.run(fanouts=[], **SCALE)
    with pytest.raises(ValueError, match="fanouts"):
        fanout.run(fanouts=[1, 4], **SCALE)


def test_outcomes_without_cells_are_unscored():
    outcomes = fanout.fanout_outcomes({"scaling": {}, "stall": {}})
    assert outcomes
    assert all(o["holds"] is None for o in outcomes.values())
    assert fanout.check_claims({"scaling": {}, "stall": {}}) == []


@pytest.mark.slow
def test_small_scale_run_holds_every_claim():
    cells = fanout.run(fanouts=[4, 8], **SCALE)
    assert fanout.check_claims(cells) == []
    outcomes = fanout.fanout_outcomes(cells)
    assert all(o["holds"] for o in outcomes.values())

    # tail at scale: the parent p99 sits near the pooled leaf quantile
    for n, cell in cells["scaling"].items():
        assert cell["quantile"] == pytest.approx(100.0 * (1 - 0.01 / n))
        assert cell["summary"]["vlrt"] == 0
    # the same stall, four fan-in regimes, four different outcomes
    sync, asyn = cells["stall"]["sync"], cells["stall"]["async"]
    quorum, hedged = cells["stall"]["quorum"], cells["stall"]["hedged"]
    assert sync["summary"]["drops_by_server"]["root"] > 0
    assert asyn["summary"]["drops_by_server"]["root"] == 0
    assert asyn["summary"]["drops_by_server"]["leaf1"] > 0
    assert quorum["summary"]["vlrt"] == 0
    assert quorum["gathers"]["legs_wasted"] > 0
    assert hedged["summary"]["vlrt"] == 0
    assert hedged["hedges"]["hedge_wins"] > 0
    # every stall cell clears the attribution acceptance bar
    for cell in cells["stall"].values():
        assert cell["attribution"]["coverage"] >= 0.90

    # report renders every section without touching the RunResults
    text = fanout.report(cells)
    assert "tail at scale" in text
    assert "frozen 400 ms" in text
    assert "[ok]" in text and "FAIL" not in text


@pytest.mark.slow
def test_record_payload_is_plain_data():
    record = fanout.record(fanout.run(
        seed=42, duration=8.0, clients=2000, fanouts=[4], variants=["sync"],
    ))
    assert set(record) == {"scaling", "stall", "outcomes"}
    for cell in (*record["scaling"].values(), *record["stall"].values()):
        assert "result" not in cell and "variant" not in cell
    # unscored claims (async/quorum/hedged cells not requested) are
    # reported as None, not failed
    assert record["outcomes"]["quorum_sheds_stalled_leg"]["holds"] is None
    assert fanout.check_claims(record) == []


def test_fanout_tail_requests_keep_their_traces():
    """A fan-out request keeps its trace exactly when it failed or took
    longer than 3 s, as a workload generator's request does: every
    VLRT request of a stalled-leaf sync 1x8 fan-out can be narrated,
    down to the dropped packet — at the frozen leaf, or at the root
    its blocked threads overflowed."""
    from repro.metrics.spans import narrate
    from repro.metrics.trace import VLRT_THRESHOLD

    cell = fanout.run_one("sync", n=8, seed=42, **SCALE)
    records = cell["result"].log.records
    vlrt = cell["result"].log.vlrt()
    assert vlrt
    for record in records:
        anomalous = record.failed or record.response_time > VLRT_THRESHOLD
        assert (record.trace is not None) == anomalous
    narrated = [narrate(record) for record in vlrt]
    for text in narrated:
        assert "no trace kept" not in text
        assert "PACKET DROPPED at " in text
    leaf_drop = f"PACKET DROPPED at {cell['stalled_leaf']}"
    assert any(leaf_drop in text for text in narrated)


def test_fanout_leaf_drop_narrates_its_retransmission_dead_time():
    """A VLRT request whose packet the frozen leaf dropped waited one
    3 s RTO for that leg, while the sibling legs went on at once: its
    narration reports about 3000 ms of dead time, not 0 ms."""
    from repro.metrics.spans import narrate, retransmission_gaps

    cell = fanout.run_one("sync", n=8, seed=42, **SCALE)
    leaf = cell["stalled_leaf"]
    dropped_at_leaf = [
        record for record in cell["result"].log.vlrt()
        if any(event == "drop" and detail == leaf
               for _t, event, detail in record.trace)
    ]
    assert dropped_at_leaf
    for record in dropped_at_leaf:
        gaps = retransmission_gaps(record.trace)
        assert all(resume is not None for _d, resume, _l in gaps)
        dead = sum(resume - drop for drop, resume, _l in gaps)
        assert dead == pytest.approx(3.0, abs=0.05)
        assert "retransmission dead time: 3000 ms" in narrate(record)

"""Tests for the static (full wire-up) conduit and segment machinery."""

import pytest

from repro.apps import HelloWorld
from repro.check import CheckPlan
from repro.cluster import cluster_b
from repro.core import Job, RuntimeConfig
from repro.errors import ConduitError, ShmemError
from repro.gasnet import SegmentInfo, SegmentTable, decode_segments, encode_segments
from repro.sim import spawn

from .conftest import build_conduit_rig


def wire_all(rig):
    def boot(sim):
        for c in rig.conduits:
            yield from c.wireup()

    spawn(rig.sim, boot(rig.sim), name="wireup")
    rig.sim.run()


class TestStaticWireup:
    def test_use_before_wireup_rejected(self):
        rig = build_conduit_rig(npes=2, mode="static")
        c0, _ = rig.conduits

        def pe0(sim):
            with pytest.raises(ConduitError):
                yield from c0.am_send(1, "x")

        spawn(rig.sim, pe0(rig.sim))
        rig.sim.run()

    def test_wireup_charges_all_n_qps(self):
        rig = build_conduit_rig(npes=4, ppn=1, mode="static")
        wire_all(rig)
        for ctx in rig.ctxs:
            assert ctx.rc_qps_created == 4  # one per peer incl. self
            assert ctx.connections_established == 4

    def test_wireup_time_scales_with_npes(self):
        t = {}
        for n in (4, 8):
            rig = build_conduit_rig(npes=n, ppn=1, mode="static")
            start = rig.sim.now
            wire_all(rig)
            t[n] = rig.sim.now - start
        assert t[8] > 1.8 * t[4]

    def test_messaging_after_wireup_needs_no_handshake(self):
        rig = build_conduit_rig(npes=2, mode="static")
        wire_all(rig)
        c0, c1 = rig.conduits
        got = []
        c1.register_handler("m", lambda src, data: got.append(src))

        def pe0(sim):
            yield from c0.am_send(1, "m")

        spawn(rig.sim, pe0(rig.sim))
        rig.sim.run()
        assert got == [0]
        assert rig.counters["conduit.connect_requests"] == 0

    def test_materialization_is_instant_after_wireup(self):
        rig = build_conduit_rig(npes=3, ppn=1, mode="static")
        wire_all(rig)
        c0, _, c2 = rig.conduits
        marks = {}

        def pe0(sim):
            t0 = sim.now
            yield from c0.ensure_connected(2)
            marks["dt"] = sim.now - t0

        spawn(rig.sim, pe0(rig.sim))
        rig.sim.run()
        assert marks["dt"] == 0.0

    def test_rma_over_static_conduit(self):
        rig = build_conduit_rig(npes=2, mode="static")
        wire_all(rig)
        c0, _ = rig.conduits
        ctx1 = rig.ctxs[1]
        out = {}

        def pe(sim):
            addr = ctx1.mm.alloc(64)
            region = yield from ctx1.reg_mr(addr)
            yield from c0.rdma_put(1, b"static!", region.addr, region.rkey)
            out["v"] = ctx1.mm.read_local(region.addr, 7)

        spawn(rig.sim, pe(rig.sim))
        rig.sim.run()
        assert out["v"] == b"static!"

    def test_teardown_charge_scales_with_npes(self):
        rig = build_conduit_rig(npes=8, ppn=1, mode="static")
        wire_all(rig)
        c0 = rig.conduits[0]
        marks = {}

        def pe0(sim):
            t0 = sim.now
            yield from c0.teardown_charge()
            marks["dt"] = sim.now - t0

        spawn(rig.sim, pe0(rig.sim))
        rig.sim.run()
        assert marks["dt"] == pytest.approx(8 * rig.cluster.cost.qp_destroy_us)

    @pytest.mark.parametrize("corner", ["current", "proposed"])
    def test_finalize_leaves_no_live_qp(self, corner):
        """Both designs end a job with every HCA's QP table empty: the
        static bulk teardown destroys the UD endpoint too."""
        config = getattr(RuntimeConfig, corner)(check=CheckPlan(strict=True))
        job = Job(npes=64, config=config, cluster=cluster_b(64, ppn=16))
        result = job.run(HelloWorld())
        assert [len(hca._qps) for hca in job.hcas] == [0] * 4
        assert result.check["violations"] == []


class TestSegmentCodec:
    def test_roundtrip(self):
        segs = [
            SegmentInfo(addr=0x100000, size=4096, rkey=0x1234),
            SegmentInfo(addr=0x200000, size=1 << 20, rkey=0x9999),
        ]
        assert decode_segments(encode_segments(segs)) == segs

    def test_empty_blob(self):
        assert decode_segments(b"") == []

    def test_garbage_length_rejected(self):
        with pytest.raises(ShmemError):
            decode_segments(b"123")

    def test_translate_maps_symmetric_offsets(self):
        remote = SegmentInfo(addr=0x9000, size=256, rkey=1)
        assert remote.translate(0x1010, local_base=0x1000) == 0x9010

    def test_translate_out_of_segment_rejected(self):
        remote = SegmentInfo(addr=0x9000, size=16, rkey=1)
        with pytest.raises(ShmemError):
            remote.translate(0x1020, local_base=0x1000)

    def test_table_unknown_peer(self):
        table = SegmentTable(rank=0)
        with pytest.raises(ShmemError):
            table.get(3)
        table.put(3, [SegmentInfo(1, 2, 3)])
        assert table.knows(3)
        assert len(table.get(3)) == 1

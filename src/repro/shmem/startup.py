"""``start_pes`` strategies: static baseline vs. the paper's design.

Four orthogonal knobs (see :class:`repro.core.config.RuntimeConfig`):

* **connection mode** — ``static`` wires all N peers during init;
  ``ondemand`` defers to first communication and piggybacks segment
  keys on the handshake (Section IV-C);
* **PMI mode** — ``blocking`` Put/Fence/Get vs. ``nonblocking``
  iallgather overlapped with memory registration (Section IV-D);
* **init barrier mode** — ``global`` shmem_barrier_all calls (the
  baseline's inefficiency #3) vs. the ``intranode`` shared-memory
  barrier (Section IV-E).

Every phase is recorded on the PE's :class:`~repro.sim.trace.PhaseTimer`
under the exact labels of the paper's Figure 1/5(b): ``Connection
Setup``, ``PMI Exchange``, ``Memory Registration``, ``Shared Memory
Setup``, ``Other``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import ConfigError
from ..gasnet import StaticConduit, encode_segments
from ..gasnet.segment import SegmentInfo, decode_segments
from .heap import SymmetricHeap

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ShmemPE

__all__ = [
    "run_startup",
    "PHASE_CONN",
    "PHASE_PMI",
    "PHASE_MEMREG",
    "PHASE_SHM",
    "PHASE_OTHER",
    "STARTUP_PHASES",
]

PHASE_CONN = "Connection Setup"
PHASE_PMI = "PMI Exchange"
PHASE_MEMREG = "Memory Registration"
PHASE_SHM = "Shared Memory Setup"
PHASE_OTHER = "Other"
STARTUP_PHASES = [PHASE_CONN, PHASE_PMI, PHASE_MEMREG, PHASE_SHM, PHASE_OTHER]


def run_startup(pe: "ShmemPE") -> Generator:
    """Dispatch to the configured startup flow."""
    mode = pe.config.connection_mode
    if mode == "static":
        yield from _static_startup(pe)
    elif mode == "ondemand":
        yield from _ondemand_startup(pe)
    else:
        raise ConfigError(f"unknown connection mode {mode!r}")


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _misc_and_endpoint(pe: "ShmemPE") -> Generator:
    pe.timer.begin(PHASE_OTHER)
    yield pe.cost.init_misc_us
    yield from pe.conduit.init_endpoint()


def _pmi_exchange(pe: "ShmemPE") -> Generator:
    """Publish our UD endpoint; resolve or defer per PMI mode."""
    pe.timer.begin(PHASE_PMI)
    if pe.config.pmi_mode == "nonblocking":
        # Non-blocking iallgather: launch and return immediately; the conduit
        # resolves the directory lazily on first use (Section IV-D).
        handle = pe.pmi.iallgather(pe.conduit.ud_address)
        pe.conduit.set_ud_directory_handle(handle, parser=None)
    elif pe.config.pmi_mode == "blocking":
        yield from pe.pmi.put(f"ud-{pe.rank}", pe.conduit.ud_address)
        yield from pe.pmi.fence()
        # Per-PE retrieval time is charged here; the parsed directory
        # object itself is shared job-wide (identical on every PE).
        yield from pe.pmi.get_range("ud-", pe.npes)
        cache = pe.conduit.network.shared_cache
        directory = cache.get("ud_directory")
        if directory is None:
            directory = {
                r: pe.conduit.network.peer(r).ud_address for r in range(pe.npes)
            }
            cache["ud_directory"] = directory
        pe.conduit.set_ud_directory(directory)
    else:
        raise ConfigError(f"unknown PMI mode {pe.config.pmi_mode!r}")
    if False:  # pragma: no cover - keep this a generator on all paths
        yield


def _register_heap(pe: "ShmemPE") -> Generator:
    pe.timer.begin(PHASE_MEMREG)
    model_bytes = int(pe.config.heap_mb * 1024 * 1024)
    backing = int(pe.config.heap_backing_kb * 1024)
    pe.heap = SymmetricHeap(pe.ctx.mm, model_bytes, backing_bytes=backing)
    pe.heap_region = yield from pe.ctx.reg_mr(
        pe.heap.base, model_bytes=max(model_bytes, backing)
    )
    pe._install_own_segments()


def _shared_memory_setup(pe: "ShmemPE") -> Generator:
    pe.timer.begin(PHASE_SHM)
    local = pe.cluster.local_size(pe.rank)
    yield pe.cost.shm_setup_base_us + pe.cost.shm_setup_per_rank_us * local


def _exchange_intranode_segments(pe: "ShmemPE") -> None:
    """Same-node peers learn each other's segments through the shared
    memory region mapped during setup (no fabric traffic).  Must run
    after an intra-node synchronisation point.

    Installed as a lazy resolver: eagerly building ``ppn - 1`` entries
    on every PE is an O(ppn * N) simulator cost with no timing meaning
    (the shared-memory mapping is already charged in bulk).  Locality
    is asked of the cluster, so a PE holds no copy of its node's ranks."""

    def _resolve_local(peer: int, _pe=pe):
        if not _pe.cluster.same_node(peer, _pe.rank):
            return None
        region = _pe._peer(peer).heap_region
        return [SegmentInfo(addr=region.addr, size=region.size,
                            rkey=region.rkey)]

    pe.segments.set_resolver(_resolve_local)


def _init_barriers(pe: "ShmemPE", count: int = 2) -> Generator:
    """The synchronisation the spec requires at the end of init."""
    obs = pe.obs
    span = None
    if obs is not None:
        span = obs.spans.start(
            "shmem.init_barriers", f"pe{pe.rank}",
            parent=pe.timer.current_span,
            mode=pe.config.barrier_mode, count=count,
        )
    if pe.config.barrier_mode == "global":
        for _ in range(count):
            yield from pe.barrier_all()
    elif pe.config.barrier_mode == "intranode":
        for _ in range(count):
            yield from pe.barrier_intranode()
    else:
        raise ConfigError(f"unknown barrier mode {pe.config.barrier_mode!r}")
    if span is not None:
        obs.spans.finish(span)


# ----------------------------------------------------------------------
# static (baseline) flow
# ----------------------------------------------------------------------
def _static_startup(pe: "ShmemPE") -> Generator:
    yield from _misc_and_endpoint(pe)
    yield from _pmi_exchange(pe)
    yield from _register_heap(pe)
    yield from _shared_memory_setup(pe)

    pe.timer.begin(PHASE_CONN)
    conduit = pe.conduit
    if not isinstance(conduit, StaticConduit):
        raise ConfigError("static startup requires a StaticConduit")
    # Full wire-up: N QPs created, connected (waits on the PMI data if
    # the nonblocking mode deferred it -- there is no overlap to win
    # here, which is the paper's point about static + Iallgather).
    yield from conduit.wireup()
    # The wire-up is bulk-synchronous in the real stack: a second PMI
    # fence guarantees every peer finished creating its QPs (and, in
    # our flow, registering its heap) before anyone proceeds.
    yield from pe.pmi.put(f"wired-{pe.rank}", 1)
    yield from pe.pmi.fence()
    # Inefficiency #2 (Section IV-B): a separate message to *every*
    # peer carrying the <address, size, rkey> triplet.  Charged in bulk;
    # tables are filled from the peers' registered regions (safe after
    # the fence above, as in the real flow).
    per_msg = pe.cost.post_wr_us + pe.cost.am_handler_cpu_us
    yield pe.npes * per_msg

    def _resolve(peer: int, _pe=pe):
        region = _pe._peer(peer).heap_region
        return [SegmentInfo(addr=region.addr, size=region.size,
                            rkey=region.rkey)]

    pe.segments.set_resolver(_resolve)
    conduit.mark_ready()
    pe.initialized = True

    pe.timer.begin(PHASE_OTHER)
    # Inefficiency #3: global barriers during initialisation.
    yield from _static_init_barriers(pe)
    pe.timer.stop()


def _static_init_barriers(pe: "ShmemPE") -> Generator:
    """Static init always uses global barriers (that is the baseline)."""
    obs = pe.obs
    span = None
    if obs is not None:
        span = obs.spans.start(
            "shmem.init_barriers", f"pe{pe.rank}",
            parent=pe.timer.current_span, mode="global", count=2,
        )
    for _ in range(2):
        yield from pe.barrier_all()
    if span is not None:
        obs.spans.finish(span)


# ----------------------------------------------------------------------
# on-demand (proposed) flow
# ----------------------------------------------------------------------
def _ondemand_startup(pe: "ShmemPE") -> Generator:
    yield from _misc_and_endpoint(pe)
    yield from _pmi_exchange(pe)
    yield from _register_heap(pe)

    # Arm the piggyback path *before* any connection can be served
    # (unless the D1 ablation disabled it: then peers exchange keys
    # with a separate post-connect message, inefficiency #2).
    if pe.config.piggyback_segments:
        pe.conduit.set_exchange_payload(
            encode_segments([
                SegmentInfo(
                    addr=pe.heap_region.addr,
                    size=pe.heap_region.size,
                    rkey=pe.heap_region.rkey,
                )
            ])
        )
        pe.conduit.on_peer_payload(
            lambda peer, blob: pe.segments.put(peer, decode_segments(blob))
        )
    pe.conduit.mark_ready()

    yield from _shared_memory_setup(pe)
    pe.initialized = True

    pe.timer.begin(PHASE_OTHER)
    yield from _init_barriers(pe, count=2)
    _exchange_intranode_segments(pe)
    pe.timer.stop()

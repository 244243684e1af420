"""Tree-parallel hashing: ParallelHash, TupleHash and the leaf planner.

Tree-hashing modes are the purest source of the independent-permutation
parallelism the paper's multi-state lanes (SN in {1, 3, 6}) exist for:
every leaf chunk is hashed by its own sponge with no data dependency on
its siblings.  This module implements the two SP 800-185 derived
functions still missing from the family — ParallelHash128/256 and
TupleHash128/256 — and the shared *leaf planner* that KangarooTwelve
(:mod:`repro.keccak.kangarootwelve`) also uses to hash its 8 KiB chunks.

The planner maps leaves onto two nested levels of parallelism:

* **batched** — leaves are packed into lane-width groups and dispatched
  to the batch drivers (:mod:`repro.programs.batch_driver`), where the
  SoA mega-batch kernels permute 64 sponge states per generated kernel
  call (or SN states on the per-call engines);
* **pooled** — large leaf sets additionally fan out across the worker
  pool via the zero-copy shared-memory transport (``run_many`` /
  ``plan_spans``), with chaining values reassembled in input order.

When the engine registry declines (tiny inputs, an explicit
``reference`` request, or no batching engine registered) the planner
falls back to the sequential pure-Python sponge — the differential
ground truth every other path must match bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from .cshake import (
    cshake128,
    cshake256,
    cshake_sponge,
    encode_string,
    left_encode,
    right_encode,
)
from .permutation import keccak_p1600
from .sponge import SHAKE_SUFFIX, Sponge

#: Default leaf size of ParallelHash in this repository (the K12 chunk).
DEFAULT_BLOCK_BYTES = 8192

#: Below this many leaves the batch engines cannot beat a plain sponge.
MIN_BATCH_LEAVES = 2

#: The architecture key every leaf batch runs on (the paper's V64H8).
_LEAF_ARCH = (64, 8, 30)


@dataclass(frozen=True)
class LeafSpec:
    """Shape of one tree's leaf sponge.

    ``algorithm`` is the :mod:`repro.programs.batch_driver` algorithm
    name used for the batched/pooled paths; the remaining fields define
    the sequential reference sponge (and must agree with the batch
    driver's registry entry for that algorithm).
    """

    algorithm: str
    capacity_bits: int
    suffix: int
    num_rounds: int
    cv_bytes: int

    def reference_cv(self, leaf: bytes) -> bytes:
        """One chaining value on the sequential pure-Python sponge."""
        permutation = partial(keccak_p1600, num_rounds=self.num_rounds)
        sponge = Sponge(self.capacity_bits, self.suffix, permutation)
        return sponge.absorb(leaf).squeeze(self.cv_bytes)


#: KangarooTwelve leaves: TurboSHAKE128 (12 rounds) with the leaf
#: domain byte 0x0B, 32-byte chaining values.
K12_LEAF = LeafSpec("k12_leaf", 256, 0x0B, 12, 32)

#: ParallelHash128 leaves: cSHAKE128 with empty N and S *is* SHAKE128
#: (SP 800-185 §6.3), so the leaf batches reuse the shake128 driver.
PH128_LEAF = LeafSpec("shake128", 256, SHAKE_SUFFIX, 24, 32)

#: ParallelHash256 leaves: SHAKE256, 64-byte chaining values.
PH256_LEAF = LeafSpec("shake256", 512, SHAKE_SUFFIX, 24, 64)


@dataclass(frozen=True)
class TreePlan:
    """One leaf set's execution plan.

    ``mode`` is ``"sequential"`` (pure-Python sponge per leaf),
    ``"batched"`` (lane-width groups on the batch drivers, in process)
    or ``"pooled"`` (lane groups fanned out across the worker pool).
    ``lane_width`` is the lock-step group size of the chosen engine
    (the SoA batch width, SN for per-call engines, 1 for whole-message
    engines); ``reason`` says why this mode won.
    """

    mode: str
    engine: str
    workers: int
    lane_width: int
    reason: str


def _resolve_engine(engine: Optional[str]) -> str:
    """Map ``None``/``"auto"`` to the preferred batching engine."""
    from ..sim import engines as _engines

    if engine in (None, "auto"):
        return "soa" if "soa" in _engines.names() else "reference"
    return _engines.validate(engine)


def _engine_lane_width(engine: str, num_rounds: int) -> int:
    """Lock-step group size of ``engine`` for a ``num_rounds`` program."""
    from ..programs import batch_driver as _bd
    from ..sim import engines as _engines

    spec = _engines.maybe_get(engine)
    if spec is not None and spec.digest_batch is not None:
        return 1  # whole-message engines have no lock-step groups
    perm = _bd._cached_permutation(_LEAF_ARCH, engine,
                                   num_rounds=num_rounds)
    return perm.max_states


def plan_tree(num_leaves: int, *, engine: Optional[str] = None,
              workers: Optional[int] = None,
              num_rounds: int = 24) -> TreePlan:
    """Pick the execution mode for ``num_leaves`` independent leaves.

    Fallback rules, in order:

    * fewer than :data:`MIN_BATCH_LEAVES` leaves -> sequential (batch
      dispatch overhead cannot amortize);
    * an explicit ``engine="reference"`` with no pool -> sequential
      (the differential ground-truth path);
    * ``workers > 1`` *and* at least two full lane-width groups ->
      pooled (the fork/IPC cost needs whole groups to steal);
    * otherwise -> batched in this process.
    """
    workers = int(workers) if workers else 1
    if workers < 1:
        raise ValueError(f"workers must be positive: {workers}")
    resolved = _resolve_engine(engine)
    if num_leaves < MIN_BATCH_LEAVES:
        return TreePlan("sequential", resolved, 1, 1,
                        f"{num_leaves} leaf/leaves below the "
                        f"{MIN_BATCH_LEAVES}-leaf batching floor")
    if resolved == "reference" and workers == 1:
        return TreePlan("sequential", resolved, 1, 1,
                        "reference engine requested without a pool")
    lane_width = _engine_lane_width(resolved, num_rounds)
    if workers > 1 and num_leaves >= 2 * lane_width:
        return TreePlan("pooled", resolved, workers, lane_width,
                        f"{num_leaves} leaves >= 2 lane groups of "
                        f"{lane_width} across {workers} workers")
    return TreePlan("batched", resolved, 1, lane_width,
                    f"{num_leaves} leaves in lane groups of {lane_width} "
                    "in process")


def hash_leaves(leaves: Sequence[bytes], spec: LeafSpec = K12_LEAF, *,
                engine: Optional[str] = None,
                workers: Optional[int] = None,
                transport: str = "auto",
                checkpoint: Optional[str] = None) -> List[bytes]:
    """Chaining values of ``leaves``, in input order, per the planner.

    All three plan modes are bit-identical by construction (and pinned
    so by the test matrix); ``checkpoint`` names a resume manifest for
    the pooled path (ignored otherwise).
    """
    payloads = [bytes(leaf) for leaf in leaves]
    plan = plan_tree(len(payloads), engine=engine, workers=workers,
                     num_rounds=spec.num_rounds)
    if plan.mode == "sequential":
        return [spec.reference_cv(leaf) for leaf in payloads]
    from ..programs import batch_driver as _bd

    if plan.mode == "pooled":
        return _bd.run_many(payloads, algorithm=spec.algorithm,
                            length=spec.cv_bytes, workers=plan.workers,
                            engine=plan.engine, transport=transport,
                            checkpoint=checkpoint)
    return _bd.hash_messages(spec.algorithm, spec.cv_bytes, _LEAF_ARCH,
                             plan.engine, payloads)


# -- ParallelHash (SP 800-185 §6) ---------------------------------------------


def _parallelhash(data: bytes, length: int, block_size: int,
                  customization: bytes, *, strength_bits: int, xof: bool,
                  engine: Optional[str], workers: Optional[int],
                  transport: str) -> bytes:
    if block_size < 1:
        raise ValueError(f"block size must be positive: {block_size}")
    if length < 0:
        raise ValueError(f"cannot squeeze {length} bytes")
    spec = PH128_LEAF if strength_bits == 128 else PH256_LEAF
    data = bytes(data)
    blocks = [data[offset:offset + block_size]
              for offset in range(0, len(data), block_size)]
    cvs = hash_leaves(blocks, spec, engine=engine, workers=workers,
                      transport=transport)
    node = left_encode(block_size) + b"".join(cvs)
    node += right_encode(len(blocks))
    node += right_encode(0 if xof else 8 * length)
    final = cshake128 if strength_bits == 128 else cshake256
    return final(node, length, b"ParallelHash", customization)


def parallelhash128(data: bytes, length: int,
                    block_size: int = DEFAULT_BLOCK_BYTES,
                    customization: bytes = b"", *,
                    engine: Optional[str] = None,
                    workers: Optional[int] = None,
                    transport: str = "auto") -> bytes:
    """ParallelHash128(X, B, L, S): block-parallel 128-bit-strength hash.

    ``X`` is cut into ``B``-byte blocks, each block's SHAKE128 chaining
    value is computed through the leaf planner (SoA lanes / worker
    pool), and the chaining values feed a final cSHAKE128 node.
    """
    return _parallelhash(data, length, block_size, customization,
                         strength_bits=128, xof=False, engine=engine,
                         workers=workers, transport=transport)


def parallelhash256(data: bytes, length: int,
                    block_size: int = DEFAULT_BLOCK_BYTES,
                    customization: bytes = b"", *,
                    engine: Optional[str] = None,
                    workers: Optional[int] = None,
                    transport: str = "auto") -> bytes:
    """ParallelHash256(X, B, L, S): block-parallel 256-bit-strength hash."""
    return _parallelhash(data, length, block_size, customization,
                         strength_bits=256, xof=False, engine=engine,
                         workers=workers, transport=transport)


def parallelhash128_xof(data: bytes, length: int,
                        block_size: int = DEFAULT_BLOCK_BYTES,
                        customization: bytes = b"", *,
                        engine: Optional[str] = None,
                        workers: Optional[int] = None,
                        transport: str = "auto") -> bytes:
    """ParallelHashXOF128 — arbitrary-length variant (L encoded as 0)."""
    return _parallelhash(data, length, block_size, customization,
                         strength_bits=128, xof=True, engine=engine,
                         workers=workers, transport=transport)


def parallelhash256_xof(data: bytes, length: int,
                        block_size: int = DEFAULT_BLOCK_BYTES,
                        customization: bytes = b"", *,
                        engine: Optional[str] = None,
                        workers: Optional[int] = None,
                        transport: str = "auto") -> bytes:
    """ParallelHashXOF256 — arbitrary-length variant (L encoded as 0)."""
    return _parallelhash(data, length, block_size, customization,
                         strength_bits=256, xof=True, engine=engine,
                         workers=workers, transport=transport)


class _ParallelHashBase:
    """hashlib-style ParallelHash object with a streaming XOF squeeze.

    ``digest(length)`` is the fixed-length ParallelHash (L encoded in
    the final node, restartable); ``read(length)`` streams the
    ParallelHashXOF variant (L encoded as 0) — successive calls continue
    the output stream without re-absorbing, and the two outputs differ
    by construction (SP 800-185 encodes L into the node).
    """

    strength_bits: int = 0
    name: str = "parallelhash"

    def __init__(self, data: bytes = b"",
                 block_size: int = DEFAULT_BLOCK_BYTES,
                 customization: bytes = b"", *,
                 engine: Optional[str] = None,
                 workers: Optional[int] = None) -> None:
        if self.strength_bits == 0:
            raise TypeError("instantiate a concrete ParallelHash subclass")
        if block_size < 1:
            raise ValueError(f"block size must be positive: {block_size}")
        self.block_size = block_size
        self._customization = bytes(customization)
        self._engine = engine
        self._workers = workers
        self._buffer = bytearray(data)
        self._reader: Optional[Sponge] = None
        self._cv_cache: Optional[tuple] = None

    @property
    def squeezing(self) -> bool:
        """True once ``read`` has started streaming XOF output."""
        return self._reader is not None

    def update(self, data: bytes) -> None:
        """Absorb more message bytes (before any ``read``)."""
        if self._reader is not None:
            raise RuntimeError("cannot absorb after read() started")
        self._buffer.extend(data)
        self._cv_cache = None

    def _node(self, output_bits: int) -> bytes:
        if self._cv_cache is None or self._cv_cache[0] != len(self._buffer):
            data = bytes(self._buffer)
            spec = PH128_LEAF if self.strength_bits == 128 else PH256_LEAF
            blocks = [data[offset:offset + self.block_size]
                      for offset in range(0, len(data), self.block_size)]
            cvs = hash_leaves(blocks, spec, engine=self._engine,
                              workers=self._workers)
            self._cv_cache = (len(self._buffer), len(blocks), b"".join(cvs))
        _, num_blocks, joined = self._cv_cache
        return (left_encode(self.block_size) + joined
                + right_encode(num_blocks) + right_encode(output_bits))

    def digest(self, length: int) -> bytes:
        """Fixed-length ParallelHash output (restartable)."""
        final = cshake128 if self.strength_bits == 128 else cshake256
        return final(self._node(8 * length), length, b"ParallelHash",
                     self._customization)

    def hexdigest(self, length: int) -> str:
        """``length`` output bytes as hex."""
        return self.digest(length).hex()

    def read(self, length: int) -> bytes:
        """Streaming ParallelHashXOF squeeze (continues the stream)."""
        if self._reader is None:
            sponge = cshake_sponge(b"ParallelHash", self._customization,
                                   2 * self.strength_bits)
            sponge.absorb(self._node(0))
            self._reader = sponge
        return self._reader.squeeze(length)

    def copy(self) -> "_ParallelHashBase":
        clone = type(self)(block_size=self.block_size,
                           customization=self._customization,
                           engine=self._engine, workers=self._workers)
        clone._buffer = bytearray(self._buffer)
        clone._cv_cache = self._cv_cache
        clone._reader = None if self._reader is None else self._reader.copy()
        return clone


class ParallelHash128(_ParallelHashBase):
    """ParallelHash128 object: 128-bit strength, SHAKE128 leaves."""

    strength_bits = 128
    name = "parallelhash128"


class ParallelHash256(_ParallelHashBase):
    """ParallelHash256 object: 256-bit strength, SHAKE256 leaves."""

    strength_bits = 256
    name = "parallelhash256"


# -- TupleHash (SP 800-185 §5) ------------------------------------------------


def _tuplehash(items: Sequence[bytes], length: int, customization: bytes,
               *, strength_bits: int, xof: bool) -> bytes:
    if length < 0:
        raise ValueError(f"cannot squeeze {length} bytes")
    node = b"".join(encode_string(bytes(item)) for item in items)
    node += right_encode(0 if xof else 8 * length)
    final = cshake128 if strength_bits == 128 else cshake256
    return final(node, length, b"TupleHash", customization)


def tuplehash128(items: Sequence[bytes], length: int,
                 customization: bytes = b"") -> bytes:
    """TupleHash128(X, L, S): unambiguous hash of a tuple of strings."""
    return _tuplehash(items, length, customization,
                      strength_bits=128, xof=False)


def tuplehash256(items: Sequence[bytes], length: int,
                 customization: bytes = b"") -> bytes:
    """TupleHash256(X, L, S): 256-bit-strength tuple hash."""
    return _tuplehash(items, length, customization,
                      strength_bits=256, xof=False)


def tuplehash128_xof(items: Sequence[bytes], length: int,
                     customization: bytes = b"") -> bytes:
    """TupleHashXOF128 — arbitrary-length variant (L encoded as 0)."""
    return _tuplehash(items, length, customization,
                      strength_bits=128, xof=True)


def tuplehash256_xof(items: Sequence[bytes], length: int,
                     customization: bytes = b"") -> bytes:
    """TupleHashXOF256 — arbitrary-length variant (L encoded as 0)."""
    return _tuplehash(items, length, customization,
                      strength_bits=256, xof=True)

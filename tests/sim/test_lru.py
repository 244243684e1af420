"""The shared LRU and the memo tables it bounds.

Satellite requirement: the per-processor predecode cache and the
per-instruction geometry-specializer memo must be bounded, and eviction
must never change results — an evicted entry is rebuilt on demand, so
residency is purely a performance property.
"""

import pytest

from repro.isa import ISA, encode_vtype
from repro.keccak.permutation import keccak_p1600
from repro.programs import keccak64_lmul8, layout
from repro.sim import SIMDProcessor
from repro.sim.lru import LRU
from repro.sim.processor import _PREDECODE_CACHE_SIZE


class TestLRU:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRU(0)

    def test_evicts_least_recently_used(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # evicts "a"
        assert "a" not in lru
        assert lru.get("b") == 2 and lru.get("c") == 3
        assert len(lru) == 2

    def test_get_refreshes_recency(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")     # "b" is now the LRU entry
        lru.put("c", 3)  # evicts "b", not "a"
        assert "a" in lru and "b" not in lru and "c" in lru

    def test_put_existing_key_replaces_without_evicting(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert len(lru) == 2
        assert lru.get("a") == 10 and lru.get("b") == 2

    def test_get_miss_returns_default(self):
        lru = LRU(1)
        assert lru.get("missing") is None
        assert lru.get("missing", 42) == 42

    def test_pop_and_clear(self):
        lru = LRU(2)
        lru.put("a", 1)
        assert lru.pop("a") == 1
        assert lru.pop("a", "gone") == "gone"
        lru.put("b", 2)
        lru.clear()
        assert len(lru) == 0

    def test_concurrent_access_stays_consistent(self):
        # Regression (thread-safety satellite): get() is a pop +
        # re-insert and put() a check-then-delete; unlocked, two threads
        # interleaving them can drop entries, KeyError on the double
        # delete, or grow the table past capacity.  Hammer one small
        # cache from several threads and check every invariant held.
        import threading

        lru = LRU(8)
        errors = []
        barrier = threading.Barrier(4)

        def worker(worker_id):
            try:
                barrier.wait()
                for i in range(3000):
                    key = (worker_id * 7 + i) % 12  # keys overlap workers
                    lru.put(key, (key, worker_id))
                    got = lru.get(key)
                    # Another thread may have evicted or replaced the
                    # key, but a hit must return a value put for it.
                    if got is not None and got[0] != key:
                        errors.append(f"key {key} returned {got}")
                    lru.get((key + 5) % 12)
                    if i % 97 == 0:
                        lru.pop(key)
                    if len(lru) > lru.capacity:
                        errors.append(f"overflow: {len(lru)}")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:5]
        assert len(lru) <= lru.capacity


class TestPredecodeCacheEviction:
    def test_eviction_preserves_correctness(self, random_state):
        # More distinct programs than the cache holds: the first is
        # evicted, re-loading it re-predecodes, and the run is still
        # bit-exact against the reference permutation.
        proc = SIMDProcessor(elen=64, elenum=5, engine="predecoded")
        programs = [
            keccak64_lmul8.build(5, num_rounds=r).assemble()
            for r in range(1, _PREDECODE_CACHE_SIZE + 3)
        ]
        for assembled in programs:
            proc.load_program(assembled)
        assert len(proc._predecode_cache) == _PREDECODE_CACHE_SIZE
        assert id(programs[0]) not in proc._predecode_cache

        proc.reset()
        proc.load_program(programs[0])  # evicted: re-predecodes
        layout.load_states_regfile64(proc.vector.regfile, [random_state])
        proc.run()
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_p1600(random_state, 1)

    def test_cache_stays_bounded(self):
        proc = SIMDProcessor(elen=64, elenum=5)
        for r in range(1, 24):
            proc.load_program(keccak64_lmul8.build(5, num_rounds=r)
                              .assemble())
        assert len(proc._predecode_cache) <= _PREDECODE_CACHE_SIZE


class TestSpecializerMemoEviction:
    def test_eviction_preserves_correctness(self):
        # One predecoded vxor.vv executor driven through more distinct
        # geometries than its memo holds, twice over: every pass through
        # an evicted geometry rebuilds the fast executor, and results
        # must stay exact throughout.
        proc = SIMDProcessor(elen=64, elenum=8)  # VLEN = 512
        vector = proc.vector
        spec = ISA.lookup("vxor.vv")
        ops = {"vd": 2, "vs2": 1, "vs1": 0, "vm": 1}
        executor = vector.compile_executor(
            spec, ops, proc.scalar.read_register)

        full = (1 << 512) - 1
        pattern_a = 0x0123456789ABCDEF0123456789ABCDEF
        pattern_b = 0xFEDCBA9876543210FEDCBA9876543210

        geometries = [(64, avl) for avl in (1, 2, 3, 4, 5, 6)] + \
                     [(32, avl) for avl in (4, 8)]
        for _ in range(2):  # second sweep re-enters evicted geometries
            for sew, avl in geometries:
                vl = vector.configure(avl, encode_vtype(sew, 1))
                assert vl == avl
                regs = vector.regfile._regs
                regs[0] = (pattern_a * ((full // ((1 << 128) - 1)))) & full
                regs[1] = (pattern_b * ((full // ((1 << 128) - 1)))) & full
                regs[2] = full  # sentinel: untouched elements must survive
                executor()
                emask = (1 << sew) - 1
                for i in range(512 // sew):
                    expected = ((regs[0] >> (i * sew)) ^
                                (regs[1] >> (i * sew))) & emask \
                        if i < vl else emask
                    got = (regs[2] >> (i * sew)) & emask
                    assert got == expected, (sew, avl, i)

"""Boundary-length differential matrix for the lock-step batch sponge.

Every flat batch algorithm, at the message lengths where the padding
rule changes the block count (0, r-1, r, r+1, 2r-1, 2r+1) and the output
lengths where the squeeze changes shape (0, 1, r, r+1, 3r+5), in groups
of 1, 2, 63, 64 and 65 messages, on the ``soa`` engine at lane budgets
1, 3 and 64, on ``auto`` (EleNum 30, six states per program run) and on
``reference`` -- each checked against hashlib, or the pure-Python
TurboSHAKE reference for the K12 leaf sponge.
"""

import hashlib

import pytest

from repro.keccak.kangarootwelve import turboshake128
from repro.keccak.sponge import SHAKE_SUFFIX, Sponge
from repro.programs import batch_driver as bd
from repro.programs.batch_driver import BatchPermutation, BatchSponge
from repro.sim import codegen

RATES = {"sha3_256": 136, "shake128": 168, "shake256": 136,
         "k12_leaf": 168}
GROUP_SIZES = (1, 2, 63, 64, 65)


def boundary_lengths(rate):
    return (0, rate - 1, rate, rate + 1, 2 * rate - 1, 2 * rate + 1)


def output_lengths(algorithm):
    """The XOF output lengths; fixed-output algorithms get one."""
    rate = RATES[algorithm]
    if algorithm.startswith("shake"):
        return (0, 1, rate, rate + 1, 3 * rate + 5)
    return (32,)


CASES = [(algorithm, length) for algorithm in RATES
         for length in output_lengths(algorithm)]


def messages_for(algorithm, count):
    lengths = boundary_lengths(RATES[algorithm])
    return [bytes([(7 * k + j) % 256 for j in range(lengths[k % 6])])
            for k in range(count)]


_EXPECTED = {}


def expected(algorithm, length, count):
    key = (algorithm, length, count)
    if key not in _EXPECTED:
        messages = messages_for(algorithm, count)
        if algorithm == "sha3_256":
            out = [hashlib.sha3_256(m).digest() for m in messages]
        elif algorithm == "shake128":
            out = [hashlib.shake_128(m).digest(length) for m in messages]
        elif algorithm == "shake256":
            out = [hashlib.shake_256(m).digest(length) for m in messages]
        else:
            out = [turboshake128(m, 32, domain=0x0B) for m in messages]
        _EXPECTED[key] = out
    return _EXPECTED[key]


@pytest.fixture
def fresh_permutations(monkeypatch):
    """An empty permutation cache, so lane budgets set here take effect."""
    monkeypatch.setattr(bd, "_PERMUTATIONS", {})


@pytest.mark.parametrize("lanes", ["1", "3", "64"])
def test_soa_matrix(lanes, monkeypatch, fresh_permutations):
    monkeypatch.setenv("REPRO_SOA_LANES", lanes)
    for algorithm, length in CASES:
        for count in GROUP_SIZES:
            got = bd.hash_messages(algorithm, length, (64, 8, 30), "soa",
                                   messages_for(algorithm, count))
            assert got == expected(algorithm, length, count), \
                (lanes, algorithm, length, count)


@pytest.mark.parametrize("algorithm,length", CASES)
def test_auto_matrix(algorithm, length):
    for count in GROUP_SIZES:
        got = bd.hash_messages(algorithm, length, (64, 8, 30), "auto",
                               messages_for(algorithm, count))
        assert got == expected(algorithm, length, count), count


@pytest.mark.parametrize("algorithm,length", CASES)
def test_reference_matrix(algorithm, length):
    """The whole-message hashlib path, and the column sponge driven by
    the reference engine's round function (six states per group, so
    seven messages reach every boundary length and a ragged group)."""
    for count in GROUP_SIZES:
        assert bd.hash_messages(algorithm, length, (64, 8, 30),
                                "reference",
                                messages_for(algorithm, count)) == \
            expected(algorithm, length, count), count
    capacity, suffix, rounds, _fixed = bd._SPONGE_ALGORITHMS[algorithm]
    perm = BatchPermutation(engine="reference", num_rounds=rounds)
    messages = messages_for(algorithm, 7)
    want = expected(algorithm, length, 7)
    for start in (0, 6):
        group = messages[start:start + 6]
        sponge = BatchSponge(len(group), capacity, suffix, perm)
        for lane, message in enumerate(group):
            sponge.absorb(lane, message)
        assert sponge.squeeze(length) == want[start:start + 6]


@pytest.mark.parametrize("capacity_bits", [8, 800, 1592])
def test_rates_that_are_not_whole_words(capacity_bits):
    """Rates of 199, 100 and 1 bytes: blocks are zero-filled to whole
    64-bit words, and the squeeze reads only the rate bytes."""
    rate = (1600 - capacity_bits) // 8
    messages = [bytes(range(n % 256)) for n in
                (0, rate - 1, rate, rate + 1, 2 * rate + 1)]
    perm = BatchPermutation(engine="soa")
    sponge = BatchSponge(len(messages), capacity_bits, SHAKE_SUFFIX, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    got = sponge.squeeze(2 * rate + 3)
    assert got == [Sponge(capacity_bits, SHAKE_SUFFIX).absorb(m)
                   .squeeze(2 * rate + 3) for m in messages]


def lane_steps(messages, rate, length):
    """Permutations one lane needs: its blocks plus its extra squeeze
    blocks."""
    squeeze_blocks = max(1, -(-length // rate))
    return [len(m) // rate + 1 + squeeze_blocks - 1 for m in messages]


def test_call_count_is_the_longest_lanes_steps():
    messages = [b"", b"a" * 168, b"b" * 337, b"c" * 5]
    length = 3 * 168 + 5
    perm = BatchPermutation(elenum=30, engine="auto")
    sponge = BatchSponge(len(messages), 256, SHAKE_SUFFIX, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    sponge.squeeze(length)
    assert perm.call_count == max(lane_steps(messages, 168, length)) == 6


def test_finished_lanes_leave_the_kernel():
    """Each lane rides exactly its own steps: the kernel's lane count
    over the whole run is the sum of the lanes' steps, not the longest
    lane's steps times the group size."""
    messages = [b"x" * n for n in (700, 0, 135, 136, 5, 400)]
    perm = BatchPermutation(engine="soa")
    before = dict(codegen.SOA_STATS)
    sponge = BatchSponge(len(messages), 512, 0x06, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    assert sponge.squeeze(32) == \
        [hashlib.sha3_256(m).digest() for m in messages]
    steps = lane_steps(messages, 136, 32)
    assert codegen.SOA_STATS["kernel_calls"] - before["kernel_calls"] \
        == perm.call_count == max(steps)
    assert codegen.SOA_STATS["lanes_hashed"] - before["lanes_hashed"] \
        == sum(steps)


def test_second_squeeze_is_rejected():
    sponge = BatchSponge(1, 512, 0x06, BatchPermutation(engine="soa"))
    sponge.squeeze(32)
    with pytest.raises(RuntimeError):
        sponge.squeeze(32)


class TestNegativeLengthRejectedUpFront:
    """A negative output length fails with ValueError before planning,
    arena sizing or dispatch, on every engine and transport."""

    @pytest.fixture(autouse=True)
    def no_dispatch(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("work started for a rejected request")

        for name in ("plan_spans", "run_spans_report",
                     "_cached_permutation", "_hash_messages"):
            monkeypatch.setattr(bd, name, refuse)
        monkeypatch.setattr(bd._shm, "choose_transport", refuse)
        monkeypatch.setattr(bd._shm, "arena_pool", refuse)

    @pytest.mark.parametrize("engine", ["soa", "reference"])
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_run_many_report(self, engine, transport):
        with pytest.raises(ValueError, match="-1"):
            bd.run_many_report([b"x"] * 4, algorithm="shake128",
                               length=-1, workers=2, engine=engine,
                               transport=transport)

    @pytest.mark.parametrize("engine", ["soa", "reference"])
    def test_hash_messages(self, engine):
        with pytest.raises(ValueError, match="-1"):
            bd.hash_messages("shake128", -1, (64, 8, 30), engine, [b"x"])

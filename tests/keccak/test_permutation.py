"""Tests for the step mappings and the full Keccak-f[1600] permutation."""

import hashlib
import random

import pytest

from repro.keccak import (
    KeccakState,
    chi,
    chi_inverse,
    iota,
    iota_inverse,
    keccak_f1600,
    keccak_f1600_inverse,
    keccak_f1600_lanes,
    keccak_p1600,
    keccak_round,
    pi,
    pi_inverse,
    rho,
    rho_inverse,
    theta,
    theta_inverse,
)
from repro.keccak.constants import (
    MASK64,
    RHO_OFFSETS,
    ROUND_CONSTANTS,
    rotl64,
)


#: Keccak-f[1600] of the all-zero state (first block permutation of any
#: SHA-3 computation; widely published known-answer value, first lane).
ZERO_STATE_LANE0 = 0xF1258F7940E1DDE7


class TestFullPermutation:
    def test_zero_state_known_answer(self):
        out = keccak_f1600(KeccakState())
        assert out[0, 0] == ZERO_STATE_LANE0

    def test_zero_state_full_known_answer_via_hashlib(self):
        # Derive the permutation of a chosen state from hashlib: absorbing
        # a full-rate SHAKE128 block of zeros makes the state after one
        # permutation equal to permute(padded block), whose first 168
        # bytes hashlib will squeeze out.
        rate = 168
        block = bytearray(200)
        block[0] = 0x1F  # SHAKE128 suffix in byte 0 of an empty message
        block[rate - 1] ^= 0x80
        ours = keccak_f1600(KeccakState.from_bytes(bytes(block)))
        expected = hashlib.shake_128(b"").digest(rate)
        assert ours.to_bytes()[:rate] == expected

    def test_permutation_changes_every_lane(self, random_state):
        out = keccak_f1600(random_state)
        changed = sum(
            out[x, y] != random_state[x, y]
            for x in range(5) for y in range(5)
        )
        assert changed == 25

    def test_permutation_is_deterministic(self, random_state):
        assert keccak_f1600(random_state) == keccak_f1600(random_state)

    def test_input_not_mutated(self, random_state):
        snapshot = random_state.copy()
        keccak_f1600(random_state)
        assert random_state == snapshot

    def test_lanes_wrapper_matches(self, random_state):
        assert keccak_f1600_lanes(list(random_state.lanes)) == list(
            keccak_f1600(random_state).lanes
        )

    def test_round_composition_equals_permutation(self, random_state):
        state = random_state
        for i in range(24):
            state = keccak_round(state, i)
        assert state == keccak_f1600(random_state)

    def test_round_is_composition_of_steps(self, random_state):
        expected = iota(chi(pi(rho(theta(random_state)))), 5)
        assert keccak_round(random_state, 5) == expected


def _rounds_by_steps(state, num_rounds):
    """Keccak-p[1600, n] as Algorithm 1 writes it: ``keccak_round``
    over round indices ``24 - n`` .. 23."""
    for round_index in range(24 - num_rounds, 24):
        state = keccak_round(state, round_index)
    return state


def _pinned_states():
    rng = random.Random(0x5EED)
    states = [KeccakState([rng.getrandbits(64) for _ in range(25)])
              for _ in range(3)]
    states.append(KeccakState())
    states.append(KeccakState([MASK64] * 25))
    for lane, bit in ((0, 0), (7, 63), (24, 31)):
        lanes = [0] * 25
        lanes[lane] = 1 << bit
        states.append(KeccakState(lanes))
    return states


PINNED_STATES = _pinned_states()


class TestFusedRounds:
    """The fused round body of ``keccak_p1600`` against the step functions."""

    @pytest.mark.parametrize("num_rounds", range(1, 25))
    def test_matches_step_functions(self, num_rounds):
        for state in PINNED_STATES:
            assert keccak_p1600(state, num_rounds) == \
                _rounds_by_steps(state, num_rounds), state

    @pytest.mark.parametrize("num_rounds", [1, 12, 24])
    def test_input_not_mutated(self, num_rounds):
        for state in PINNED_STATES:
            snapshot = state.copy()
            out = keccak_p1600(state, num_rounds)
            assert state == snapshot
            assert out is not state

    @pytest.mark.parametrize("num_rounds", [0, 25])
    def test_round_count_out_of_range(self, random_state, num_rounds):
        with pytest.raises(ValueError):
            keccak_p1600(random_state, num_rounds)


class TestTheta:
    def test_zero_state_fixed_point(self):
        assert theta(KeccakState()) == KeccakState()

    def test_column_parity_definition(self, random_state):
        out = theta(random_state)
        b = [0] * 5
        for x in range(5):
            for y in range(5):
                b[x] ^= random_state[x, y]
        for x in range(5):
            c = b[(x - 1) % 5] ^ rotl64(b[(x + 1) % 5], 1)
            for y in range(5):
                assert out[x, y] == random_state[x, y] ^ c

    def test_theta_is_linear(self, random_states):
        a, b = random_states(2)
        xored = KeccakState([la ^ lb for la, lb in zip(a.lanes, b.lanes)])
        expected = KeccakState([
            la ^ lb for la, lb in zip(theta(a).lanes, theta(b).lanes)
        ])
        assert theta(xored) == expected

    def test_theta_inverse(self, random_state):
        assert theta_inverse(theta(random_state)) == random_state
        assert theta(theta_inverse(random_state)) == random_state


class TestRho:
    def test_lane_00_unchanged(self, random_state):
        assert rho(random_state)[0, 0] == random_state[0, 0]

    def test_rotation_offsets_applied(self, random_state):
        out = rho(random_state)
        for x in range(5):
            for y in range(5):
                assert out[x, y] == rotl64(
                    random_state[x, y], RHO_OFFSETS[x][y]
                )

    def test_rho_inverse(self, random_state):
        assert rho_inverse(rho(random_state)) == random_state

    def test_rho_preserves_popcount(self, random_state):
        before = sum(bin(lane).count("1") for lane in random_state.lanes)
        after = sum(bin(lane).count("1") for lane in rho(random_state).lanes)
        assert before == after


class TestPi:
    def test_lane_00_fixed(self, random_state):
        assert pi(random_state)[0, 0] == random_state[0, 0]

    def test_definition(self, random_state):
        out = pi(random_state)
        for x in range(5):
            for y in range(5):
                assert out[x, y] == random_state[(x + 3 * y) % 5, x]

    def test_pi_is_a_permutation_of_lanes(self, random_state):
        assert sorted(pi(random_state).lanes) == sorted(random_state.lanes)

    def test_pi_inverse(self, random_state):
        assert pi_inverse(pi(random_state)) == random_state
        assert pi(pi_inverse(random_state)) == random_state

    def test_pi_order_divides_24(self, random_state):
        # The pi lane permutation has order 24 on non-origin lanes.
        state = random_state
        for _ in range(24):
            state = pi(state)
        assert state == random_state


class TestChi:
    def test_definition(self, random_state):
        out = chi(random_state)
        mask = (1 << 64) - 1
        for y in range(5):
            for x in range(5):
                g = (~random_state[(x + 1) % 5, y] & mask) & \
                    random_state[(x + 2) % 5, y]
                assert out[x, y] == random_state[x, y] ^ g

    def test_chi_inverse(self, random_state):
        assert chi_inverse(chi(random_state)) == random_state
        assert chi(chi_inverse(random_state)) == random_state

    def test_chi_operates_row_locally(self, random_states):
        a, b = random_states(2)
        # Make row 0 equal in both states; chi must then produce the same
        # row 0 regardless of the other rows.
        for x in range(5):
            b[x, 0] = a[x, 0]
        out_a, out_b = chi(a), chi(b)
        for x in range(5):
            assert out_a[x, 0] == out_b[x, 0]

    def test_chi_is_nonlinear(self):
        # chi(a ^ b) != chi(a) ^ chi(b) in general.
        a = KeccakState(list(range(25)))
        b = KeccakState([(7 * i + 3) % 97 for i in range(25)])
        xored = KeccakState([la ^ lb for la, lb in zip(a.lanes, b.lanes)])
        linear = KeccakState([
            la ^ lb for la, lb in zip(chi(a).lanes, chi(b).lanes)
        ])
        assert chi(xored) != linear


class TestIota:
    def test_only_lane_00_changes(self, random_state):
        out = iota(random_state, 3)
        assert out[0, 0] == random_state[0, 0] ^ ROUND_CONSTANTS[3]
        for x in range(5):
            for y in range(5):
                if (x, y) != (0, 0):
                    assert out[x, y] == random_state[x, y]

    def test_iota_is_involution(self, random_state):
        assert iota(iota(random_state, 7), 7) == random_state
        assert iota_inverse(iota(random_state, 7), 7) == random_state

    def test_round_index_out_of_range(self, random_state):
        with pytest.raises(ValueError):
            iota(random_state, 24)
        with pytest.raises(ValueError):
            iota(random_state, -1)

    def test_different_rounds_differ(self, random_state):
        assert iota(random_state, 0) != iota(random_state, 1)


class TestInversePermutation:
    def test_full_inverse(self, random_state):
        assert keccak_f1600_inverse(keccak_f1600(random_state)) == \
            random_state

    def test_inverse_of_zero_permutation(self):
        permuted = keccak_f1600(KeccakState())
        assert keccak_f1600_inverse(permuted) == KeccakState()

    def test_forward_of_inverse(self, random_state):
        assert keccak_f1600(keccak_f1600_inverse(random_state)) == \
            random_state

"""The Keccak-f[1600] permutation, plane-per-plane (paper Algorithm 1).

Each of the five step mappings (theta, rho, pi, chi, iota) is exposed as a
standalone pure function so tests can check it against the corresponding
custom vector instruction in the simulator.  The step functions and
:func:`keccak_round` deliberately mirror Algorithm 1 of the paper, which
processes the state plane by plane — the form the vector programs
implement.

:func:`keccak_p1600` (and :func:`keccak_f1600`, its 24-round instance)
runs the same round as one fused body over 25 local lane ints: theta's
correction, rho and pi become one rotate per lane, and chi and iota one
expression per lane, much as the paper's fused custom instructions do in
hardware.  The body is rendered once at import from :data:`RHO_OFFSETS`
and is pinned to :func:`keccak_round` by the differential tests.
"""

from __future__ import annotations

from typing import List

from .constants import (
    MASK64,
    NUM_ROUNDS,
    RHO_OFFSETS,
    ROUND_CONSTANTS,
    rotl64,
)
from .state import KeccakState


def theta(state: KeccakState) -> KeccakState:
    """Theta step: linear diffusion via column parities.

    ``B[x]`` is the parity of sheet x; ``C[x] = B[x-1] ^ ROT(B[x+1], 1)``;
    every lane of sheet x is XORed with ``C[x]``.
    """
    b = [0] * 5
    for x in range(5):
        parity = 0
        for y in range(5):
            parity ^= state[x, y]
        b[x] = parity
    c = [b[(x - 1) % 5] ^ rotl64(b[(x + 1) % 5], 1) for x in range(5)]
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[x, y] = state[x, y] ^ c[x]
    return out


def rho(state: KeccakState) -> KeccakState:
    """Rho step: rotate each lane by its position-dependent offset."""
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[x, y] = rotl64(state[x, y], RHO_OFFSETS[x][y])
    return out


def pi(state: KeccakState) -> KeccakState:
    """Pi step: scramble lane positions, ``F[x, y] = E[(x + 3y) mod 5, x]``."""
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[x, y] = state[(x + 3 * y) % 5, x]
    return out


def chi(state: KeccakState) -> KeccakState:
    """Chi step: the only non-linear mapping, row-wise AND-NOT-XOR."""
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            g = (~state[(x + 1) % 5, y]) & state[(x + 2) % 5, y]
            out[x, y] = state[x, y] ^ (g & ((1 << 64) - 1))
    return out


def iota(state: KeccakState, round_index: int) -> KeccakState:
    """Iota step: XOR the round constant into lane (0, 0)."""
    if not 0 <= round_index < NUM_ROUNDS:
        raise ValueError(f"round index out of range: {round_index}")
    out = state.copy()
    out[0, 0] = state[0, 0] ^ ROUND_CONSTANTS[round_index]
    return out


def keccak_round(state: KeccakState, round_index: int) -> KeccakState:
    """One full round: iota(chi(pi(rho(theta(state)))), i)."""
    return iota(chi(pi(rho(theta(state)))), round_index)


def _render_rounds() -> str:
    """Source of ``_rounds(lanes, round_constants)``, the fused round loop.

    Local ``a{5y+x}`` holds lane (x, y).  Per round: theta's column
    parities ``c`` and corrections ``d``; then theta's XOR, rho and pi as
    one rotate per lane, ``b[x, y] = rot(a[sx, sy] ^ d[sx], r[sx][sy])``
    with ``(sx, sy) = ((x + 3y) mod 5, x)``; then chi, with iota's round
    constant folded into lane (0, 0).
    """
    mask = f"{MASK64:#x}"
    body = []
    for x in range(5):
        column = " ^ ".join(f"a{x + 5 * y}" for y in range(5))
        body.append(f"c{x} = {column}")
    for x in range(5):
        c = f"c{(x + 1) % 5}"
        body.append(
            f"d{x} = c{(x - 1) % 5} ^ (({c} << 1 | {c} >> 63) & {mask})")
    for y in range(5):
        for x in range(5):
            sx, sy = (x + 3 * y) % 5, x
            offset = RHO_OFFSETS[sx][sy]
            lane = f"a{sx + 5 * sy} ^ d{sx}"
            if offset == 0:
                body.append(f"b{x + 5 * y} = {lane}")
            else:
                body.append(f"t = {lane}")
                body.append(f"b{x + 5 * y} = "
                            f"(t << {offset} | t >> {64 - offset}) & {mask}")
    for y in range(5):
        for x in range(5):
            row = [f"b{(x + k) % 5 + 5 * y}" for k in range(3)]
            rc = " ^ rc" if x == y == 0 else ""
            body.append(
                f"a{x + 5 * y} = {row[0]} ^ ({row[2]} & ~{row[1]}){rc}")
    lanes = ", ".join(f"a{i}" for i in range(25))
    return "\n".join(
        ["def _rounds(lanes, round_constants):",
         f"    {lanes} = lanes",
         "    for rc in round_constants:"]
        + [f"        {line}" for line in body]
        + [f"    return [{lanes}]"]
    )


_namespace: dict = {}
exec(compile(_render_rounds(), "<keccak-p rounds>", "exec"), _namespace)
_rounds = _namespace["_rounds"]


def keccak_p1600(state: KeccakState, num_rounds: int) -> KeccakState:
    """The generalized Keccak-p[1600, n_r] permutation (FIPS 202 §3.3).

    Runs the *last* ``num_rounds`` rounds of Keccak-f[1600] (round indices
    ``24 - num_rounds`` .. 23), so ``keccak_p1600(s, 24)`` equals
    ``keccak_f1600(s)``.  The 12-round instance underlies TurboSHAKE and
    KangarooTwelve.  The input state is not modified.
    """
    if not 0 < num_rounds <= NUM_ROUNDS:
        raise ValueError(
            f"round count must be in 1..{NUM_ROUNDS}, got {num_rounds}"
        )
    return KeccakState(
        _rounds(state, ROUND_CONSTANTS[NUM_ROUNDS - num_rounds:])
    )


def keccak_f1600(state: KeccakState) -> KeccakState:
    """The full 24-round Keccak-f[1600] permutation."""
    return keccak_p1600(state, NUM_ROUNDS)


def keccak_f1600_lanes(lanes: List[int]) -> List[int]:
    """Permute a flat 25-lane list in place-free style; convenience wrapper."""
    return list(keccak_f1600(KeccakState(lanes)).lanes)


# -- inverse step mappings -------------------------------------------------
#
# Every step mapping of Keccak-f is a bijection on the state.  The inverses
# are used by property tests (round-trip invariants) and are useful in their
# own right for cryptanalysis-style tooling.


def theta_inverse(state: KeccakState) -> KeccakState:
    """Inverse of theta, computed via the parity trick.

    theta XORs ``C[x]`` (a function of the column parities only) into every
    lane of sheet x.  Applying theta to a state changes the column parities
    linearly; we solve for the pre-image parities over GF(2)[z]/(z^64 - 1)
    by brute iteration: theta is an involution-free linear map, but its
    inverse can be computed by repeated squaring of the parity update.  For
    clarity and testability we instead invert via the generic linear-map
    approach: reconstruct the input parities from the output.
    """
    # theta: out[x,y] = in[x,y] ^ C[x] where C depends only on in-parities.
    # Out-parity P'[x] = P[x] ^ C[x]  (5 lanes XOR the same C[x]... 5 is odd,
    # so C[x] contributes once).  C[x] = P[x-1] ^ rot(P[x+1], 1).
    # So P'[x] = P[x] ^ P[x-1] ^ rot(P[x+1], 1): a linear map M on the 320
    # parity bits.  M is invertible; invert it by iterating M to its order.
    out_parity = [0] * 5
    for x in range(5):
        parity = 0
        for y in range(5):
            parity ^= state[x, y]
        out_parity[x] = parity

    def step(p: List[int]) -> List[int]:
        return [
            p[x] ^ p[(x - 1) % 5] ^ rotl64(p[(x + 1) % 5], 1)
            for x in range(5)
        ]

    # The parity map M has finite multiplicative order; find M^(order-1)
    # applied to out_parity by cycling until we return to the start.  The
    # order is bounded (it divides the order of the matrix group element);
    # in practice it is < 2^32, but cycling directly would be too slow, so
    # we use the doubling trick: M^(2^k) applied via repeated composition
    # of the whole sequence is equivalent to re-applying step to vectors.
    # Simpler and fast enough: invert by linear algebra over the 320 bits.
    in_parity = _invert_parity_map(out_parity)
    c = [
        in_parity[(x - 1) % 5] ^ rotl64(in_parity[(x + 1) % 5], 1)
        for x in range(5)
    ]
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[x, y] = state[x, y] ^ c[x]
    return out


def _invert_parity_map(out_parity: List[int]) -> List[int]:
    """Solve ``P' = P ^ P[x-1] ^ rot(P[x+1],1)`` for P, bit-sliced per z.

    The map mixes z-positions only through the rotation by 1, so we treat
    the 320 parity bits as a vector over GF(2) and invert by Gaussian
    elimination on the 320x320 matrix.  The matrix is fixed, so we build and
    cache its inverse as a list of 320 masks on first use.
    """
    inverse_rows = _parity_inverse_matrix()
    bits = 0
    for x in range(5):
        bits |= out_parity[x] << (64 * x)
    in_bits = 0
    for row_index, row_mask in enumerate(inverse_rows):
        if bin(bits & row_mask).count("1") & 1:
            in_bits |= 1 << row_index
    return [(in_bits >> (64 * x)) & ((1 << 64) - 1) for x in range(5)]


_PARITY_INVERSE_CACHE: List[int] = []


def _parity_inverse_matrix() -> List[int]:
    if _PARITY_INVERSE_CACHE:
        return _PARITY_INVERSE_CACHE

    size = 320

    def apply_forward(vec_bits: int) -> int:
        p = [(vec_bits >> (64 * x)) & ((1 << 64) - 1) for x in range(5)]
        q = [
            p[x] ^ p[(x - 1) % 5] ^ rotl64(p[(x + 1) % 5], 1)
            for x in range(5)
        ]
        out = 0
        for x in range(5):
            out |= q[x] << (64 * x)
        return out

    # Build the forward matrix columns, then invert with Gauss-Jordan.
    columns = [apply_forward(1 << i) for i in range(size)]
    # rows[r] = bitmask over columns contributing to output bit r.
    rows = [0] * size
    for col, colval in enumerate(columns):
        v = colval
        while v:
            low = v & -v
            r = low.bit_length() - 1
            rows[r] |= 1 << col
            v ^= low
    identity = [1 << r for r in range(size)]
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise ArithmeticError("theta parity map is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        identity[col], identity[pivot] = identity[pivot], identity[col]
        for r in range(size):
            if r != col and ((rows[r] >> col) & 1):
                rows[r] ^= rows[col]
                identity[r] ^= identity[col]
    _PARITY_INVERSE_CACHE.extend(identity)
    return _PARITY_INVERSE_CACHE


def rho_inverse(state: KeccakState) -> KeccakState:
    """Inverse of rho: rotate each lane right by its offset."""
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[x, y] = rotl64(state[x, y], (-RHO_OFFSETS[x][y]) % 64)
    return out


def pi_inverse(state: KeccakState) -> KeccakState:
    """Inverse of pi: undo the lane scramble."""
    out = KeccakState()
    for y in range(5):
        for x in range(5):
            out[(x + 3 * y) % 5, x] = state[x, y]
    return out


def chi_inverse(state: KeccakState) -> KeccakState:
    """Inverse of chi, computed row-wise.

    chi on a 5-lane row is invertible; the inverse has an explicit formula
    obtained by iterating the forward map (chi's row map has small order
    when composed with complementation).  We use the standard iterative
    construction: x_i = y_i ^ (~x_{i+1} & x_{i+2}) solved by fixpoint, which
    converges in ceil(5/2) + 1 = 3 iterations for width-5 rows.
    """
    mask = (1 << 64) - 1
    out = KeccakState()
    for y in range(5):
        row = [state[x, y] for x in range(5)]
        inv = list(row)
        for _ in range(3):
            inv = [
                row[x] ^ ((~inv[(x + 1) % 5] & mask) & inv[(x + 2) % 5])
                for x in range(5)
            ]
        for x in range(5):
            out[x, y] = inv[x]
    return out


def iota_inverse(state: KeccakState, round_index: int) -> KeccakState:
    """Inverse of iota (iota is an involution for a fixed round)."""
    return iota(state, round_index)


def keccak_f1600_inverse(state: KeccakState) -> KeccakState:
    """Inverse of the full permutation (useful for tests and analysis)."""
    for round_index in reversed(range(NUM_ROUNDS)):
        state = theta_inverse(
            rho_inverse(pi_inverse(chi_inverse(iota_inverse(state, round_index))))
        )
    return state

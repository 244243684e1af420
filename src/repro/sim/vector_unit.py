"""The vector processing unit (paper Fig. 3, bottom half).

Models the VecISAInterface / VecLSU / VecOpExec / VecRegfile pipeline at
functional + cycle level.  Configuration state (VL, SEW, LMUL) is set by
``vsetvli``; arithmetic, slides, rotations, the pi scramble and iota are
executed element-wise over the active register-group passes, with RVV
masking (``vm`` bit + v0 mask register) honoured everywhere.

Custom-instruction semantics follow Section 3.3 exactly; in particular all
custom instructions only operate on elements holding Keccak state values
(element index < 5*SN with SN = VL // 5) and leave other elements
unchanged, and the ``lmul_cnt`` hardware counter supplies the row index to
``v64rho``/``v32lrho``/``v32hrho``/``vpi`` when the immediate is -1.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping

from ..keccak.constants import RHO_BY_ROW, ROUND_CONSTANTS
from ..isa.spec import InstructionSpec
from ..isa.vector import decode_vtype
from .cycles import CycleModel, DEFAULT_CYCLE_MODEL
from .exceptions import IllegalInstructionError
from .lru import LRU
from .memory import DataMemory
from .vector_regfile import VectorRegfile

#: Geometries cached per predecoded vector instruction.  The Keccak
#: programs swing between at most two configurations (the m1 theta/iota
#: geometry and the m8 rho/pi/chi geometry), so four covers the paper
#: workloads with room for sweeps.
_SPECIALIZER_MEMO_SIZE = 4

_SPECIALIZER_MISS = object()


def _sign_extend_to(value: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend a from_bits value to to_bits (as an unsigned bit pattern)."""
    value &= (1 << from_bits) - 1
    if value & (1 << (from_bits - 1)):
        value |= ((1 << to_bits) - 1) ^ ((1 << from_bits) - 1)
    return value & ((1 << to_bits) - 1)


#: 32-bit round-constant table for the 32-bit architecture's ``viota``:
#: index 2i selects the low half of RC[i], index 2i+1 the high half
#: ("every round constant is divided into a high 32-bit value and a low
#: 32-bit value, and the viota instruction runs twice for each round").
RC32_TABLE = tuple(
    (rc >> 32) & 0xFFFFFFFF if half else rc & 0xFFFFFFFF
    for rc in ROUND_CONSTANTS
    for half in (0, 1)
)


class VectorUnit:
    """Functional + cycle-level model of the vector processing unit."""

    def __init__(
        self,
        vlen_bits: int,
        memory: DataMemory,
        cycle_model: CycleModel = DEFAULT_CYCLE_MODEL,
    ) -> None:
        self.regfile = VectorRegfile(vlen_bits)
        self.memory = memory
        self.cycle_model = cycle_model
        self.vl = 0
        self.sew = 64
        self.lmul = 1
        self._handlers = self._build_handlers()
        self._specializers = self._build_specializers()

    # -- configuration (vsetvli) ---------------------------------------------------

    def vlmax(self, sew: int, lmul: int) -> int:
        """Maximum VL for a given SEW/LMUL on this register file."""
        return self.regfile.elements_per_register(sew) * lmul

    def configure(self, avl: int, vtype: int) -> int:
        """Apply a vtype and requested AVL; returns the new VL.

        Reserved vtype encodings raise IllegalInstructionError (hardware
        would set ``vill``; this model treats executing with an ill vtype
        as a fault).
        """
        try:
            parts = decode_vtype(vtype)
        except ValueError as exc:
            raise IllegalInstructionError(
                f"reserved vtype encoding {vtype:#x}: {exc}"
            ) from exc
        sew, lmul = parts["sew"], parts["lmul"]
        new_vl = min(avl, self.vlmax(sew, lmul))
        self.sew = sew
        self.lmul = lmul
        self.vl = new_vl
        return new_vl

    # -- derived quantities -----------------------------------------------------------

    @property
    def elements_per_register(self) -> int:
        """Elements one register holds at the current SEW."""
        return self.regfile.elements_per_register(self.sew)

    @property
    def register_passes(self) -> int:
        """Active register-group passes for the current VL (>= 1)."""
        if self.vl == 0:
            return 1
        return math.ceil(self.vl / self.elements_per_register)

    @property
    def states_per_register(self) -> int:
        """Keccak states held per register pass (local SN)."""
        return min(self.vl, self.elements_per_register) // 5

    def _geometry(self) -> "tuple[int, int]":
        """(elements per register, register passes) without the property
        chain — one call per executed vector instruction, so it is hot."""
        sew = self.sew
        per_reg = self.regfile._per_reg.get(sew)
        if per_reg is None:
            per_reg = self.regfile.elements_per_register(sew)
        vl = self.vl
        return per_reg, (1 if vl == 0 else -(-vl // per_reg))

    def _element_mask(self) -> int:
        return (1 << self.sew) - 1

    def _check_group(self, base: int, what: str,
                     passes: int | None = None) -> None:
        if self.lmul > 1 and base % self.lmul:
            raise IllegalInstructionError(
                f"{what} register v{base} not aligned to LMUL={self.lmul} group"
            )
        if passes is None:
            passes = self.register_passes
        if base + passes > 32:
            raise IllegalInstructionError(
                f"{what} group v{base}.. exceeds the register file"
            )

    def _active(self, vm: int, element_index: int) -> bool:
        """Is ``element_index`` active under the mask policy?"""
        if element_index >= self.vl:
            return False
        if vm == 1:
            return True
        return self.regfile.mask_bit(element_index) == 1

    # -- execution entry point ---------------------------------------------------------

    def execute(self, spec: InstructionSpec, ops: Mapping[str, int],
                scalar_value: Callable[[int], int]) -> int:
        """Execute one vector instruction; returns its cycle cost.

        ``scalar_value`` reads a scalar register (for .vx operands and
        memory base/stride addresses).
        """
        handler = self._handlers.get(spec.mnemonic)
        if handler is None:
            raise IllegalInstructionError(
                f"vector unit does not implement {spec.mnemonic!r}"
            )
        return handler(spec, dict(ops), scalar_value)

    def compile_executor(self, spec: InstructionSpec, ops: Mapping[str, int],
                         scalar_value: Callable[[int], int]
                         ) -> "Callable[[], tuple]":
        """Bind one decoded vector instruction to a zero-argument executor
        returning ``(cycles, None)`` — vector instructions always fall
        through sequentially.

        Used by the predecode engine: the handler lookup and the operand
        dict are resolved once at decode time, so the per-step cost is just
        the handler call.  Semantics are identical to :meth:`execute`
        (including deferring the unknown-mnemonic fault to execution time).

        For the unmasked Keccak hot-path instructions a *specializer* (see
        :meth:`_build_specializers`) compiles a packed-integer fast
        executor bound to the current (VL, SEW, LMUL) configuration; the
        executor re-specializes whenever the configuration changes and
        falls back to the generic handler for any geometry it cannot
        prove safe (partial tail pass, misaligned group, out-of-range
        registers), so faults and masked/partial semantics are untouched.
        """
        handler = self._handlers.get(spec.mnemonic)
        if handler is None:
            mnemonic = spec.mnemonic

            def missing() -> tuple:
                raise IllegalInstructionError(
                    f"vector unit does not implement {mnemonic!r}"
                )

            return missing
        bound_ops = dict(ops)

        builder = self._specializers.get(spec.mnemonic)
        if builder is not None and bound_ops.get("vm") == 1:
            # Per-geometry fast executors (or None for geometries the
            # builder cannot prove safe), keyed on the observable
            # configuration itself (not a generation counter) so direct
            # vl/sew/lmul pokes by tests re-specialize too.  Bounded:
            # a program alternating between more geometries than the
            # capacity just rebuilds on each swing — correctness never
            # depends on residency.
            memo = LRU(_SPECIALIZER_MEMO_SIZE)
            miss = _SPECIALIZER_MISS

            def run_specialized() -> tuple:
                key = (self.vl, self.sew, self.lmul)
                fast = memo.get(key, miss)
                if fast is miss:
                    fast = builder(bound_ops, scalar_value)
                    memo.put(key, fast)
                if fast is not None:
                    return fast()
                return handler(spec, bound_ops, scalar_value), None

            return run_specialized

        def run() -> tuple:
            return handler(spec, bound_ops, scalar_value), None

        return run

    def _build_handlers(self) -> Dict[str, Callable]:
        mask64 = (1 << 64) - 1

        def rotl_sew64(value: int, amount: int) -> int:
            amount %= 64
            if amount == 0:
                return value & mask64
            return ((value << amount) | (value >> (64 - amount))) & mask64

        handlers: Dict[str, Callable] = {}

        def binary(op, raw=None):
            def run(spec, ops, scalar_value):
                return self._exec_binary(spec, ops, scalar_value, op, raw)
            return run

        handlers["vadd.vv"] = handlers["vadd.vx"] = handlers["vadd.vi"] = \
            binary(lambda a, b, m: (a + b) & m)
        handlers["vsub.vv"] = handlers["vsub.vx"] = \
            binary(lambda a, b, m: (a - b) & m)
        # The bitwise ops have no cross-element carries, so on fully
        # active registers they run on the packed VLEN-bit integers
        # directly (`raw`) — the Keccak theta/chi hot path.
        handlers["vand.vv"] = handlers["vand.vx"] = handlers["vand.vi"] = \
            binary(lambda a, b, m: a & b, raw=lambda a, b: a & b)
        handlers["vor.vv"] = handlers["vor.vx"] = handlers["vor.vi"] = \
            binary(lambda a, b, m: a | b, raw=lambda a, b: a | b)
        handlers["vxor.vv"] = handlers["vxor.vx"] = handlers["vxor.vi"] = \
            binary(lambda a, b, m: a ^ b, raw=lambda a, b: a ^ b)
        # Raw (packed-register) forms for the .vv bitwise ops, used by
        # compile_executor to emit a specialized fast executor.
        self._raw_vv = {
            "vand.vv": lambda a, b: a & b,
            "vor.vv": lambda a, b: a | b,
            "vxor.vv": lambda a, b: a ^ b,
        }
        handlers["vsll.vv"] = handlers["vsll.vx"] = handlers["vsll.vi"] = \
            binary(lambda a, b, m: (a << (b % self.sew)) & m)
        handlers["vsrl.vv"] = handlers["vsrl.vx"] = handlers["vsrl.vi"] = \
            binary(lambda a, b, m: (a & m) >> (b % self.sew))

        handlers["vslidedownm.vi"] = self._exec_slide_modulo
        handlers["vslideupm.vi"] = self._exec_slide_modulo
        handlers["vrotup.vi"] = self._exec_vrotup
        handlers["v32lrotup.vv"] = self._exec_v32rotup
        handlers["v32hrotup.vv"] = self._exec_v32rotup
        handlers["v64rho.vi"] = self._exec_v64rho
        handlers["v32lrho.vv"] = self._exec_v32rho
        handlers["v32hrho.vv"] = self._exec_v32rho
        handlers["vpi.vi"] = self._exec_vpi
        handlers["viota.vx"] = self._exec_viota
        handlers["vrhopi.vi"] = self._exec_vrhopi
        handlers["vchi.vi"] = self._exec_vchi

        for mnemonic in ("vle32.v", "vle64.v", "vlse32.v", "vlse64.v",
                         "vluxei32.v", "vluxei64.v"):
            handlers[mnemonic] = self._exec_vload
        for mnemonic in ("vse32.v", "vse64.v", "vsse32.v", "vsse64.v",
                         "vsuxei32.v", "vsuxei64.v"):
            handlers[mnemonic] = self._exec_vstore

        self._rotl64 = rotl_sew64
        return handlers

    # -- compile-time specialization (predecoded hot path) ---------------------------

    def _spec_geometry(self, lanes_of_five: bool):
        """(sew, per_reg, passes) when every pass covers a whole register.

        Returns None — meaning "use the generic handler" — unless VL fills
        an exact number of whole registers (no partial tail pass) and, for
        the five-lane Keccak instructions, registers hold whole lane
        groups.
        """
        vl, sew = self.vl, self.sew
        vlen = self.regfile.vlen_bits
        if vl <= 0 or sew <= 0 or vlen % sew:
            return None
        per_reg = vlen // sew
        if vl % per_reg or (lanes_of_five and per_reg % 5):
            return None
        return sew, per_reg, vl // per_reg

    def _spec_groups_ok(self, passes: int, *bases: int) -> bool:
        """Are all register groups aligned and inside the register file?"""
        lmul = self.lmul
        for base in bases:
            if base + passes > 32:
                return False
            if lmul > 1 and base % lmul:
                return False
        return True

    def _build_specializers(self) -> Dict[str, Callable]:
        """Builders compiling packed-integer executors per configuration.

        Each builder is called with the decoded operands (``vm`` == 1
        guaranteed by the caller) under the *current* vector
        configuration and returns either a zero-argument fast executor
        returning ``(cycles, None)``, or None when any precondition fails
        — misaligned group, partial tail, wrong SEW, reserved operand —
        in which case the generic handler runs (and raises) instead.  The
        fast executors operate on the packed VLEN-bit register integers
        directly, with shift/mask plans precomputed at specialization
        time; results are bit-identical to the element-wise handlers.
        """
        cm = self.cycle_model
        regfile = self.regfile

        def bitwise(raw):
            def build(ops, scalar_value):
                g = self._spec_geometry(False)
                if g is None:
                    return None
                _, _, passes = g
                vd, vs2, vs1 = ops["vd"], ops["vs2"], ops["vs1"]
                if not self._spec_groups_ok(passes, vd, vs2, vs1):
                    return None
                cost = cm.vector_arith(passes)
                if passes == 1:
                    def fast():
                        regs = regfile._regs
                        regs[vd] = raw(regs[vs2], regs[vs1])
                        return cost, None
                else:
                    prange = range(passes)

                    def fast():
                        regs = regfile._regs
                        for p in prange:
                            regs[vd + p] = raw(regs[vs2 + p], regs[vs1 + p])
                        return cost, None
                return fast
            return build

        def slide(down):
            def build(ops, scalar_value):
                g = self._spec_geometry(True)
                if g is None:
                    return None
                sew, per_reg, passes = g
                vd, vs2 = ops["vd"], ops["vs2"]
                if not self._spec_groups_ok(passes, vd, vs2):
                    return None
                offset = ops["imm"] % 5
                emask = (1 << sew) - 1
                pairs = []
                for i in range(per_reg):
                    group, lane = i - i % 5, i % 5
                    src_lane = (lane + offset) % 5 if down \
                        else (lane - offset) % 5
                    pairs.append(((group + src_lane) * sew, i * sew))
                pairs = tuple(pairs)
                cost = cm.vector_arith(passes)
                prange = range(passes)

                def fast():
                    regs = regfile._regs
                    for p in prange:
                        src = regs[vs2 + p]
                        packed = 0
                        for src_shift, dst_shift in pairs:
                            packed |= ((src >> src_shift) & emask) \
                                << dst_shift
                        regs[vd + p] = packed
                    return cost, None
                return fast
            return build

        def rotup(ops, scalar_value):
            if self.sew != 64:
                return None
            g = self._spec_geometry(False)
            if g is None:
                return None
            _, per_reg, passes = g
            vd, vs2 = ops["vd"], ops["vs2"]
            if not self._spec_groups_ok(passes, vd, vs2):
                return None
            amount = ops["imm"] % 64
            cost = cm.vector_arith(passes)
            prange = range(passes)
            if amount == 0:
                def fast_copy():
                    regs = regfile._regs
                    for p in prange:
                        regs[vd + p] = regs[vs2 + p]
                    return cost, None
                return fast_copy
            # Rotate every 64-bit element by the same amount with two
            # whole-register shifts: the bits that stay inside their
            # element after << amount, plus each element's top bits
            # brought down to its own low positions.
            stay = (1 << (64 - amount)) - 1
            wrap = (1 << amount) - 1
            mask_stay = sum(stay << (64 * i) for i in range(per_reg))
            mask_wrap = sum(wrap << (64 * i) for i in range(per_reg))
            down = 64 - amount

            def fast():
                regs = regfile._regs
                for p in prange:
                    x = regs[vs2 + p]
                    regs[vd + p] = ((x & mask_stay) << amount) \
                        | ((x >> down) & mask_wrap)
                return cost, None
            return fast

        def rho_rows(simm, passes):
            """Row schedule for rho/pi, or None to fall back (generic
            handler raises for genuinely invalid immediates)."""
            if simm == -1:
                return [p % 5 for p in range(passes)]
            if 0 <= simm <= 4:
                if self.lmul != 1 and passes > 1:
                    return None
                return [simm] * passes
            return None

        def v64rho(ops, scalar_value):
            if self.sew != 64:
                return None
            g = self._spec_geometry(True)
            if g is None:
                return None
            _, per_reg, passes = g
            vd, vs2 = ops["vd"], ops["vs2"]
            if not self._spec_groups_ok(passes, vd, vs2):
                return None
            rows = rho_rows(ops["imm"], passes)
            if rows is None:
                return None
            m64 = (1 << 64) - 1
            plan = tuple(
                tuple((i * 64, RHO_BY_ROW[row][i % 5])
                      for i in range(per_reg))
                for row in rows
            )
            cost = cm.vector_arith(passes)

            def fast():
                regs = regfile._regs
                for p, elems in enumerate(plan):
                    src = regs[vs2 + p]
                    packed = 0
                    for shift, amount in elems:
                        e = (src >> shift) & m64
                        packed |= (((e << amount) | (e >> (64 - amount)))
                                   & m64) << shift
                    regs[vd + p] = packed
                return cost, None
            return fast

        def vchi(ops, scalar_value):
            if ops["imm"] != 0:
                return None
            g = self._spec_geometry(True)
            if g is None:
                return None
            sew, per_reg, passes = g
            vd, vs2 = ops["vd"], ops["vs2"]
            if not self._spec_groups_ok(passes, vd, vs2):
                return None
            emask = (1 << sew) - 1
            full = regfile._full_mask

            def shuffle_masks(k):
                # Masks for "element j+k (mod 5) of each lane group":
                # near elements arrive via >> (k*sew), wrapped ones via
                # << ((5-k)*sew).
                near = wrapm = 0
                for slot in range(per_reg):
                    j = slot % 5
                    if j + k < 5:
                        near |= emask << (slot * sew)
                    else:
                        wrapm |= emask << (slot * sew)
                return near, wrapm

            near1, wrap1 = shuffle_masks(1)
            near2, wrap2 = shuffle_masks(2)
            d1, u1 = 1 * sew, 4 * sew
            d2, u2 = 2 * sew, 3 * sew
            cost = cm.vector_arith(passes)
            prange = range(passes)

            def fast():
                regs = regfile._regs
                for p in prange:
                    x = regs[vs2 + p]
                    s1 = ((x >> d1) & near1) | ((x << u1) & wrap1)
                    s2 = ((x >> d2) & near2) | ((x << u2) & wrap2)
                    regs[vd + p] = x ^ ((s1 ^ full) & s2)
                return cost, None
            return fast

        def viota(ops, scalar_value):
            g = self._spec_geometry(True)
            if g is None:
                return None
            sew, per_reg, passes = g
            if sew == 64:
                table, what = ROUND_CONSTANTS, "viota"
            elif sew == 32:
                table, what = RC32_TABLE, "viota 32-bit"
            else:
                return None
            vd, vs2 = ops["vd"], ops["vs2"]
            if not self._spec_groups_ok(passes, vd, vs2):
                return None
            rs1 = ops["rs1"]
            # Multiplying by the spread broadcasts the constant to every
            # group's lane-0 slot (slots are 5*sew apart > sew bits, so
            # the products cannot overlap).
            spread = sum(1 << (5 * k * sew) for k in range(per_reg // 5))
            table_len = len(table)
            cost = cm.vector_arith(passes)
            prange = range(passes)

            def fast():
                index = scalar_value(rs1)
                if not 0 <= index < table_len:
                    raise IllegalInstructionError(
                        f"{what} round-constant index out of range: {index}"
                    )
                packed_rc = table[index] * spread
                regs = regfile._regs
                for p in prange:
                    regs[vd + p] = regs[vs2 + p] ^ packed_rc
                return cost, None
            return fast

        def column_write(with_rho):
            """vpi / vrhopi: rotate (optionally) and column-scatter."""
            def build(ops, scalar_value):
                if with_rho and self.sew != 64:
                    return None
                g = self._spec_geometry(True)
                if g is None:
                    return None
                sew, per_reg, passes = g
                vd, vs2 = ops["vd"], ops["vs2"]
                if vd + 5 > 32:
                    return None
                if not self._spec_groups_ok(passes, vs2):
                    return None
                overlap = vs2 < vd + 5 and vd < vs2 + passes
                if overlap and passes > 1:
                    # Multi-pass write-through semantics (a later pass
                    # re-reads what an earlier one wrote): generic only.
                    return None
                rows = rho_rows(ops["imm"], passes)
                if rows is None:
                    return None
                emask = (1 << sew) - 1
                m64 = (1 << 64) - 1
                plan = []
                for row in rows:
                    amounts = RHO_BY_ROW[row]
                    steps = []
                    for i in range(per_reg // 5):
                        for lane in range(5):
                            steps.append((
                                (5 * i + lane) * sew,
                                amounts[lane] if with_rho else 0,
                                (2 * (lane - row)) % 5,
                                (5 * i + row) * sew,
                                ~(emask << ((5 * i + row) * sew)),
                            ))
                    plan.append(tuple(steps))
                plan = tuple(plan)
                cost = cm.vector_pi(passes)

                def fast():
                    regs = regfile._regs
                    acc = regs[vd:vd + 5]
                    for p, steps in enumerate(plan):
                        src = regs[vs2 + p]
                        for src_shift, rot, k, dst_shift, clear in steps:
                            e = (src >> src_shift) & emask
                            if rot:
                                e = ((e << rot) | (e >> (64 - rot))) & m64
                            acc[k] = (acc[k] & clear) | (e << dst_shift)
                    regs[vd:vd + 5] = acc
                    return cost, None
                return fast
            return build

        def v32pair(keep_high, is_rho):
            """v32{l,h}{rho,rotup}.vv: combine hi/lo 32-bit halves, rotate,
            keep one half."""
            def build(ops, scalar_value):
                if self.sew != 32:
                    return None
                g = self._spec_geometry(is_rho)
                if g is None:
                    return None
                _, per_reg, passes = g
                vd, vs2, vs1 = ops["vd"], ops["vs2"], ops["vs1"]
                if not self._spec_groups_ok(passes, vd, vs2, vs1):
                    return None
                m32 = 0xFFFFFFFF
                m64 = (1 << 64) - 1
                if is_rho:
                    plan = tuple(
                        tuple((i * 32, RHO_BY_ROW[p % 5][i % 5])
                              for i in range(per_reg))
                        for p in range(passes)
                    )
                else:
                    plan = tuple(
                        tuple((i * 32, 1) for i in range(per_reg))
                        for _ in range(passes)
                    )
                cost = cm.vector_arith(passes)

                if keep_high:
                    def fast():
                        regs = regfile._regs
                        for p, elems in enumerate(plan):
                            hi, lo = regs[vs2 + p], regs[vs1 + p]
                            packed = 0
                            for shift, amount in elems:
                                w = (((hi >> shift) & m32) << 32) \
                                    | ((lo >> shift) & m32)
                                r = ((w << amount) | (w >> (64 - amount))) \
                                    & m64
                                packed |= (r >> 32) << shift
                            regs[vd + p] = packed
                        return cost, None
                else:
                    def fast():
                        regs = regfile._regs
                        for p, elems in enumerate(plan):
                            hi, lo = regs[vs2 + p], regs[vs1 + p]
                            packed = 0
                            for shift, amount in elems:
                                w = (((hi >> shift) & m32) << 32) \
                                    | ((lo >> shift) & m32)
                                r = ((w << amount) | (w >> (64 - amount))) \
                                    & m64
                                packed |= (r & m32) << shift
                            regs[vd + p] = packed
                        return cost, None
                return fast
            return build

        return {
            "vand.vv": bitwise(lambda a, b: a & b),
            "vor.vv": bitwise(lambda a, b: a | b),
            "vxor.vv": bitwise(lambda a, b: a ^ b),
            "vslidedownm.vi": slide(down=True),
            "vslideupm.vi": slide(down=False),
            "vrotup.vi": rotup,
            "v64rho.vi": v64rho,
            "vchi.vi": vchi,
            "viota.vx": viota,
            "vpi.vi": column_write(with_rho=False),
            "vrhopi.vi": column_write(with_rho=True),
            "v32lrho.vv": v32pair(keep_high=False, is_rho=True),
            "v32hrho.vv": v32pair(keep_high=True, is_rho=True),
            "v32lrotup.vv": v32pair(keep_high=False, is_rho=False),
            "v32hrotup.vv": v32pair(keep_high=True, is_rho=False),
        }

    # -- generic element-wise binary ops -------------------------------------------------

    def _exec_binary(self, spec, ops, scalar_value, op, raw=None) -> int:
        vd = ops["vd"]
        vs2 = ops["vs2"]
        vm = ops["vm"]
        sew = self.sew
        mask = (1 << sew) - 1
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)

        vs1 = None
        scalar = 0
        if spec.fmt == "v_vv":
            vs1 = ops["vs1"]
            self._check_group(vs1, "source", passes)
        elif spec.fmt == "v_vx":
            scalar = _sign_extend_to(scalar_value(ops["rs1"]), 32, sew)
        else:  # v_vi
            imm = ops["imm"]
            if spec.extra.get("signed_imm", True):
                scalar = _sign_extend_to(imm & 0x1F, 5, sew)
            else:
                scalar = imm & 0x1F

        # One whole-register read/modify/write per group pass.  Register
        # groups are LMUL-aligned, so vd's group is either identical to or
        # disjoint from each source group and pass p never reads a register
        # an earlier pass wrote — results match the snapshot-first order.
        vl = self.vl
        regfile = self.regfile
        packed_scalar = None
        if raw is not None and vm == 1 and vs1 is None:
            packed_scalar = 0
            for _ in range(per_reg):
                packed_scalar = (packed_scalar << sew) | scalar
        regs = regfile._regs
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, vl - base_index)
            if count <= 0:
                continue
            if raw is not None and vm == 1 and count == per_reg:
                # Whole register, every element active: operate on the
                # packed integers (bitwise ops have no carries).
                regs[vd + p] = raw(
                    regs[vs2 + p],
                    regs[vs1 + p] if vs1 is not None else packed_scalar,
                )
                continue
            src2 = regfile.read_elements(vs2 + p, sew)
            src1 = regfile.read_elements(vs1 + p, sew) \
                if vs1 is not None else None
            if vm == 1 and count == per_reg:
                # Whole register overwritten: build it, no dst read.
                if src1 is not None:
                    dst = [op(a, b, mask) for a, b in zip(src2, src1)]
                else:
                    dst = [op(a, scalar, mask) for a in src2]
            else:
                dst = regfile.read_elements(vd + p, sew)
                if vm == 1:
                    if src1 is not None:
                        for i in range(count):
                            dst[i] = op(src2[i], src1[i], mask)
                    else:
                        for i in range(count):
                            dst[i] = op(src2[i], scalar, mask)
                else:
                    for i in range(count):
                        if self._active(vm, base_index + i):
                            dst[i] = op(
                                src2[i],
                                src1[i] if src1 is not None else scalar,
                                mask,
                            )
            regfile.write_elements(vd + p, sew, dst)
        return self.cycle_model.vector_arith(passes)

    # -- custom: slide modulo five (Table 1) ----------------------------------------------

    def _exec_slide_modulo(self, spec, ops, scalar_value) -> int:
        vd, vs2, vm = ops["vd"], ops["vs2"], ops["vm"]
        offset = ops["imm"] % 5
        down = spec.mnemonic == "vslidedownm.vi"
        sew = self.sew
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)

        # Source slot for lane j of each state, fixed across states/passes.
        if down:
            rotation = [(j + offset) % 5 for j in range(5)]
        else:
            rotation = [(j - offset) % 5 for j in range(5)]
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, sew)
            if vm == 1 and 5 * local_sn == per_reg:
                dst = [src[slot + rot]
                       for slot in range(0, count, 5) for rot in rotation]
            else:
                dst = self.regfile.read_elements(vd + p, sew)
                if vm == 1:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            dst[slot + j] = src[slot + rotation[j]]
                else:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            if self._active(vm, base_index + slot + j):
                                dst[slot + j] = src[slot + rotation[j]]
            self.regfile.write_elements(vd + p, sew, dst)
        return self.cycle_model.vector_arith(passes)

    # -- custom: rotations (Table 3) ---------------------------------------------------------

    def _exec_vrotup(self, spec, ops, scalar_value) -> int:
        if self.sew != 64:
            raise IllegalInstructionError(
                "vrotup.vi requires the 64-bit architecture (SEW=64)"
            )
        vd, vs2, vm = ops["vd"], ops["vs2"], ops["vm"]
        amount = ops["imm"] % 64
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        vl = self.vl
        rotl = self._rotl64
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, vl - base_index)
            if count <= 0:
                continue
            src = self.regfile.read_elements(vs2 + p, 64)
            if vm == 1 and count == per_reg:
                dst = [rotl(value, amount) for value in src]
            else:
                dst = self.regfile.read_elements(vd + p, 64)
                if vm == 1:
                    for i in range(count):
                        dst[i] = rotl(src[i], amount)
                else:
                    for i in range(count):
                        if self._active(vm, base_index + i):
                            dst[i] = rotl(src[i], amount)
            self.regfile.write_elements(vd + p, 64, dst)
        return self.cycle_model.vector_arith(passes)

    def _exec_v32rotup(self, spec, ops, scalar_value) -> int:
        if self.sew != 32:
            raise IllegalInstructionError(
                f"{spec.mnemonic} requires the 32-bit architecture (SEW=32)"
            )
        vd, vs2, vs1, vm = ops["vd"], ops["vs2"], ops["vs1"], ops["vm"]
        keep_high = spec.mnemonic == "v32hrotup.vv"
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        self._check_group(vs1, "source", passes)
        vl = self.vl
        rotl = self._rotl64
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, vl - base_index)
            if count <= 0:
                continue
            hi = self.regfile.read_elements(vs2 + p, 32)
            lo = self.regfile.read_elements(vs1 + p, 32)
            if vm == 1 and count == per_reg:
                if keep_high:
                    dst = [rotl((h << 32) | l, 1) >> 32
                           for h, l in zip(hi, lo)]
                else:
                    dst = [rotl((h << 32) | l, 1) & 0xFFFFFFFF
                           for h, l in zip(hi, lo)]
            else:
                dst = self.regfile.read_elements(vd + p, 32)
                if vm == 1:
                    for i in range(count):
                        rotated = rotl((hi[i] << 32) | lo[i], 1)
                        dst[i] = (rotated >> 32) if keep_high \
                            else (rotated & 0xFFFFFFFF)
                else:
                    for i in range(count):
                        if self._active(vm, base_index + i):
                            rotated = rotl((hi[i] << 32) | lo[i], 1)
                            dst[i] = (rotated >> 32) if keep_high \
                                else (rotated & 0xFFFFFFFF)
            self.regfile.write_elements(vd + p, 32, dst)
        return self.cycle_model.vector_arith(passes)

    def _rho_row_for_pass(self, simm: int, pass_index: int) -> int:
        """Row index: the immediate, or the hardware lmul_cnt counter."""
        if simm == -1:
            return pass_index % 5
        if not 0 <= simm <= 4:
            raise IllegalInstructionError(
                f"rho/pi row immediate out of range: {simm}"
            )
        if self.lmul != 1 and self.register_passes > 1:
            raise IllegalInstructionError(
                "explicit row immediate requires LMUL=1 (use -1 for groups)"
            )
        return simm

    def _exec_v64rho(self, spec, ops, scalar_value) -> int:
        if self.sew != 64:
            raise IllegalInstructionError(
                "v64rho.vi requires the 64-bit architecture (SEW=64)"
            )
        vd, vs2, vm, simm = ops["vd"], ops["vs2"], ops["vm"], ops["imm"]
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        rotl = self._rotl64
        for p in range(passes):
            row = self._rho_row_for_pass(simm, p)
            amounts = RHO_BY_ROW[row]
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, 64)
            if vm == 1 and 5 * local_sn == per_reg:
                dst = [rotl(src[slot + j], amounts[j])
                       for slot in range(0, count, 5) for j in range(5)]
            else:
                dst = self.regfile.read_elements(vd + p, 64)
                if vm == 1:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            dst[slot + j] = rotl(src[slot + j], amounts[j])
                else:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            if self._active(vm, base_index + slot + j):
                                dst[slot + j] = rotl(
                                    src[slot + j], amounts[j]
                                )
            self.regfile.write_elements(vd + p, 64, dst)
        return self.cycle_model.vector_arith(passes)

    def _exec_v32rho(self, spec, ops, scalar_value) -> int:
        if self.sew != 32:
            raise IllegalInstructionError(
                f"{spec.mnemonic} requires the 32-bit architecture (SEW=32)"
            )
        vd, vs2, vs1, vm = ops["vd"], ops["vs2"], ops["vs1"], ops["vm"]
        keep_high = spec.mnemonic == "v32hrho.vv"
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        self._check_group(vs1, "source", passes)
        rotl = self._rotl64
        for p in range(passes):
            row = p % 5  # lmul_cnt indexes the row automatically
            amounts = RHO_BY_ROW[row]
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            hi = self.regfile.read_elements(vs2 + p, 32)
            lo = self.regfile.read_elements(vs1 + p, 32)
            if vm == 1 and 5 * local_sn == per_reg:
                if keep_high:
                    dst = [rotl((hi[slot + j] << 32) | lo[slot + j],
                                amounts[j]) >> 32
                           for slot in range(0, count, 5) for j in range(5)]
                else:
                    dst = [rotl((hi[slot + j] << 32) | lo[slot + j],
                                amounts[j]) & 0xFFFFFFFF
                           for slot in range(0, count, 5) for j in range(5)]
            else:
                dst = self.regfile.read_elements(vd + p, 32)
                if vm == 1:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            rotated = rotl(
                                (hi[slot + j] << 32) | lo[slot + j],
                                amounts[j],
                            )
                            dst[slot + j] = (rotated >> 32) if keep_high \
                                else (rotated & 0xFFFFFFFF)
                else:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            if self._active(vm, base_index + slot + j):
                                rotated = rotl(
                                    (hi[slot + j] << 32) | lo[slot + j],
                                    amounts[j],
                                )
                                dst[slot + j] = (rotated >> 32) if keep_high \
                                    else (rotated & 0xFFFFFFFF)
            self.regfile.write_elements(vd + p, 32, dst)
        return self.cycle_model.vector_arith(passes)

    # -- custom: pi (Table 4, Fig. 8) ------------------------------------------------------------

    def _exec_vpi(self, spec, ops, scalar_value) -> int:
        vd, vs2, vm, simm = ops["vd"], ops["vs2"], ops["vm"], ops["imm"]
        sew = self.sew
        per_reg, passes = self._geometry()
        self._check_group(vs2, "source", passes)
        if vd + 5 > 32:
            raise IllegalInstructionError(
                f"vpi destination column v{vd}..v{vd + 4} exceeds the "
                "register file"
            )
        if passes == 1 or (vs2 < vd + 5 and vd < vs2 + passes):
            # Source group overlaps the destination column (write each
            # element through immediately — a later pass may read it
            # back), or a single pass, where touching only the five
            # written elements beats buffering five whole registers.
            for p in range(passes):
                row = self._rho_row_for_pass(simm, p)
                base_index = p * per_reg
                count = min(per_reg, self.vl - base_index)
                local_sn = count // 5
                src = self.regfile.read_elements(vs2 + p, sew)
                for i in range(local_sn):
                    for lane in range(5):
                        if not self._active(vm, base_index + 5 * i + lane):
                            continue
                        # pi: lane `lane` of source plane `row` lands in
                        # plane 2*(lane - row) mod 5, at lane position `row`.
                        dest_plane = (2 * (lane - row)) % 5
                        self.regfile.set_element(
                            vd + dest_plane, 5 * i + row, sew,
                            src[5 * i + lane],
                        )
            return self.cycle_model.vector_pi(passes)
        # Disjoint groups: buffer the five destination planes and write
        # each register once.
        dst = [self.regfile.read_elements(vd + k, sew) for k in range(5)]
        for p in range(passes):
            row = self._rho_row_for_pass(simm, p)
            planes = [(2 * (lane - row)) % 5 for lane in range(5)]
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, sew)
            if vm == 1:
                for i in range(local_sn):
                    slot = 5 * i
                    for lane in range(5):
                        dst[planes[lane]][slot + row] = src[slot + lane]
            else:
                for i in range(local_sn):
                    slot = 5 * i
                    for lane in range(5):
                        if self._active(vm, base_index + slot + lane):
                            dst[planes[lane]][slot + row] = src[slot + lane]
        for k in range(5):
            self.regfile.write_elements(vd + k, sew, dst[k])
        return self.cycle_model.vector_pi(passes)

    # -- fused extensions (paper future work, Section 5) -----------------------------

    def _exec_vrhopi(self, spec, ops, scalar_value) -> int:
        """Fused rho+pi: rotate each lane, then column-write it (64-bit)."""
        if self.sew != 64:
            raise IllegalInstructionError(
                "vrhopi.vi requires the 64-bit architecture (SEW=64)"
            )
        vd, vs2, vm, simm = ops["vd"], ops["vs2"], ops["vm"], ops["imm"]
        per_reg, passes = self._geometry()
        rotl = self._rotl64
        self._check_group(vs2, "source", passes)
        if vd + 5 > 32:
            raise IllegalInstructionError(
                f"vrhopi destination column v{vd}..v{vd + 4} exceeds the "
                "register file"
            )
        if passes == 1 or (vs2 < vd + 5 and vd < vs2 + passes):
            for p in range(passes):
                row = self._rho_row_for_pass(simm, p)
                base_index = p * per_reg
                count = min(per_reg, self.vl - base_index)
                local_sn = count // 5
                src = self.regfile.read_elements(vs2 + p, 64)
                for i in range(local_sn):
                    for lane in range(5):
                        if not self._active(vm, base_index + 5 * i + lane):
                            continue
                        rotated = rotl(
                            src[5 * i + lane], RHO_BY_ROW[row][lane]
                        )
                        dest_plane = (2 * (lane - row)) % 5
                        self.regfile.set_element(
                            vd + dest_plane, 5 * i + row, 64, rotated
                        )
            return self.cycle_model.vector_pi(passes)
        dst = [self.regfile.read_elements(vd + k, 64) for k in range(5)]
        for p in range(passes):
            row = self._rho_row_for_pass(simm, p)
            amounts = RHO_BY_ROW[row]
            planes = [(2 * (lane - row)) % 5 for lane in range(5)]
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, 64)
            if vm == 1:
                for i in range(local_sn):
                    slot = 5 * i
                    for lane in range(5):
                        dst[planes[lane]][slot + row] = rotl(
                            src[slot + lane], amounts[lane]
                        )
            else:
                for i in range(local_sn):
                    slot = 5 * i
                    for lane in range(5):
                        if self._active(vm, base_index + slot + lane):
                            dst[planes[lane]][slot + row] = rotl(
                                src[slot + lane], amounts[lane]
                            )
        for k in range(5):
            self.regfile.write_elements(vd + k, 64, dst[k])
        return self.cycle_model.vector_pi(passes)

    def _exec_vchi(self, spec, ops, scalar_value) -> int:
        """Fused chi: the whole row function in one instruction."""
        vd, vs2, vm, simm = ops["vd"], ops["vs2"], ops["vm"], ops["imm"]
        if simm != 0:
            raise IllegalInstructionError(
                f"vchi.vi immediate is reserved and must be 0, got {simm}"
            )
        sew = self.sew
        mask = (1 << sew) - 1
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        offset1 = (1, 2, 3, 4, 0)
        offset2 = (2, 3, 4, 0, 1)
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, sew)
            if vm == 1 and 5 * local_sn == per_reg:
                dst = [src[slot + j]
                       ^ ((~src[slot + offset1[j]] & mask)
                          & src[slot + offset2[j]])
                       for slot in range(0, count, 5) for j in range(5)]
            else:
                dst = self.regfile.read_elements(vd + p, sew)
                if vm == 1:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            dst[slot + j] = src[slot + j] ^ (
                                (~src[slot + offset1[j]] & mask)
                                & src[slot + offset2[j]]
                            )
                else:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            if self._active(vm, base_index + slot + j):
                                dst[slot + j] = src[slot + j] ^ (
                                    (~src[slot + offset1[j]] & mask)
                                    & src[slot + offset2[j]]
                                )
            self.regfile.write_elements(vd + p, sew, dst)
        return self.cycle_model.vector_arith(passes)

    # -- custom: iota (Table 5) --------------------------------------------------------------------

    def _exec_viota(self, spec, ops, scalar_value) -> int:
        vd, vs2, vm = ops["vd"], ops["vs2"], ops["vm"]
        index = scalar_value(ops["rs1"])
        sew = self.sew
        per_reg, passes = self._geometry()
        self._check_group(vd, "destination", passes)
        self._check_group(vs2, "source", passes)
        if sew == 64:
            if not 0 <= index < len(ROUND_CONSTANTS):
                raise IllegalInstructionError(
                    f"viota round-constant index out of range: {index}"
                )
            constant = ROUND_CONSTANTS[index]
        elif sew == 32:
            if not 0 <= index < len(RC32_TABLE):
                raise IllegalInstructionError(
                    f"viota 32-bit round-constant index out of range: {index}"
                )
            constant = RC32_TABLE[index]
        else:
            raise IllegalInstructionError(
                f"viota.vx requires SEW of 32 or 64, have {sew}"
            )
        for p in range(passes):
            base_index = p * per_reg
            count = min(per_reg, self.vl - base_index)
            local_sn = count // 5
            src = self.regfile.read_elements(vs2 + p, sew)
            if vm == 1 and 5 * local_sn == per_reg:
                dst = src[:]
                for slot in range(0, count, 5):
                    dst[slot] ^= constant
            else:
                dst = self.regfile.read_elements(vd + p, sew)
                if vm == 1:
                    for i in range(local_sn):
                        slot = 5 * i
                        dst[slot] = src[slot] ^ constant
                        dst[slot + 1:slot + 5] = src[slot + 1:slot + 5]
                else:
                    for i in range(local_sn):
                        slot = 5 * i
                        for j in range(5):
                            if self._active(vm, base_index + slot + j):
                                value = src[slot + j]
                                if j == 0:
                                    value ^= constant
                                dst[slot + j] = value
            self.regfile.write_elements(vd + p, sew, dst)
        return self.cycle_model.vector_arith(passes)

    # -- memory (VecLSU) ------------------------------------------------------------------------------

    def _memory_addresses(self, spec, ops, scalar_value) -> List[int]:
        base = scalar_value(ops["rs1"]) & 0xFFFFFFFF
        width_bytes = spec.extra["width"] // 8
        mop = spec.extra["mop"]
        if mop == "unit":
            return [base + i * width_bytes for i in range(self.vl)]
        if mop == "strided":
            stride = scalar_value(ops["rs2"]) & 0xFFFFFFFF
            return [base + i * stride for i in range(self.vl)]
        if mop == "indexed":
            vs2 = ops["vs2"]
            index_width = spec.extra["width"]
            return [
                base + self.regfile.get_group_element(vs2, i, index_width)
                for i in range(self.vl)
            ]
        raise IllegalInstructionError(f"unknown addressing mode {mop!r}")

    def _exec_vload(self, spec, ops, scalar_value) -> int:
        vd, vm = ops["vd"], ops["vm"]
        mop = spec.extra["mop"]
        # Indexed loads transfer SEW-wide data; unit/strided use the encoded
        # memory element width for both memory and register elements (EEW).
        data_width = self.sew if mop == "indexed" else spec.extra["width"]
        addresses = self._memory_addresses(spec, ops, scalar_value)
        for i, address in enumerate(addresses):
            if not self._active(vm, i):
                continue
            value = self.memory.load(address, data_width)
            per_reg = self.regfile.elements_per_register(data_width)
            reg, slot = divmod(i, per_reg)
            self.regfile.set_element(vd + reg, slot, data_width, value)
        passes = math.ceil(self.vl / self.regfile.elements_per_register(
            data_width)) if self.vl else 1
        return self.cycle_model.vector_memory(passes)

    def _exec_vstore(self, spec, ops, scalar_value) -> int:
        vs3, vm = ops["vd"], ops["vm"]  # store data register reuses vd field
        mop = spec.extra["mop"]
        data_width = self.sew if mop == "indexed" else spec.extra["width"]
        addresses = self._memory_addresses(spec, ops, scalar_value)
        for i, address in enumerate(addresses):
            if not self._active(vm, i):
                continue
            per_reg = self.regfile.elements_per_register(data_width)
            reg, slot = divmod(i, per_reg)
            value = self.regfile.get_element(vs3 + reg, slot, data_width)
            self.memory.store(address, data_width, value)
        passes = math.ceil(self.vl / self.regfile.elements_per_register(
            data_width)) if self.vl else 1
        return self.cycle_model.vector_memory(passes)

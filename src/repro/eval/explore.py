"""Design-space exploration: ``repro explore`` and ``repro sweep``.

The paper's headline result is a design-space trade-off — cycles vs
FPGA area across (EleNum, ELEN, LMUL).  This module sweeps that grid,
plus the paper's Section 5 fused rho+pi/chi program (the ``64x8f``
variant), and opens the *microarchitecture* axes on top: vector
register bank count, scalar issue width and chaining (the knobs
:class:`~repro.sim.timing.TimingModel` exposes).  It measures every
configuration on the simulator, joins the calibrated
:mod:`repro.arch.area` model, and reduces the cloud to an
area-vs-throughput Pareto front.  ``repro sweep`` is the
default-timing slice of the same grid (:func:`sweep_grid`).

Points fan out over the worker pool through the same span scheduler
``run_many`` uses, pickled a span at a time: a point pickles to about
150 bytes against milliseconds of traced simulation, so a shared-memory
arena would save nothing.

Every measurement is *verified* (the permuted states must match the
NIST-checked reference permutation — timing knobs must never change
digests), and the default-knob rows of every sweep reproduce the
paper's pins exactly: 2564 / 1892 / 3620 cycles per permutation and
103 / 75 / 147 cycles per round.  The committed artifact lives in the
trajectory pipeline (``benchmarks/baseline/EXPLORE_pareto.json``) and
is schema-checked by ``repro stats --check-baseline``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.area import explore_slices
from ..arch.metrics import throughput_e3 as _throughput_e3
from ..keccak.permutation import keccak_f1600
from ..parallel_exec import register_task_kind
from ..parallel_exec.scheduler import plan_spans, run_spans_report
from ..programs import keccak64_fused
from ..programs.factory import build_program
from ..programs.session import default_session
from ..sim.timing import TimingModel
from .measure import VerificationError, _random_states

#: Artifact schema identifier; bump on any layout change.
EXPLORE_SCHEMA = "repro-explore-pareto/2"

#: The paper's published design points: per-permutation cycles and
#: cycles/round for each (ELEN, LMUL) variant — EleNum-independent
#: (register passes scale with VL *per register*), so every default-knob
#: row of a sweep must carry its variant's pin exactly.
PAPER_PINS: Dict[Tuple[int, int], Tuple[int, float]] = {
    (64, 1): (2564, 103.0),
    (64, 8): (1892, 75.0),
    (32, 8): (3620, 147.0),
}

#: The architecture variants the paper programs exist for.
VARIANTS: Tuple[Tuple[int, int], ...] = ((64, 1), (64, 8), (32, 8))

#: The paper's Section 5 fused rho+pi/chi program (64-bit, LMUL=8) as a
#: ``variants`` entry; the CLI spells it ``64x8f``.
FUSED_VARIANT: Tuple[int, int, bool] = (64, 8, True)

_EXPLORE_TASK_KIND = "repro.explore"


@dataclass(frozen=True)
class ExplorePoint:
    """One swept configuration: architecture plus timing knobs."""

    elen: int
    lmul: int
    elenum: int
    num_states: int
    register_banks: int = 1
    issue_width: int = 1
    chaining: bool = False
    #: Run the fused rho+pi/chi program instead of the paper program.
    fused: bool = False

    @property
    def variant(self) -> str:
        """The ``ELENxLMUL`` spelling, ``f``-suffixed for fused points."""
        return f"{self.elen}x{self.lmul}{'f' if self.fused else ''}"

    @property
    def label(self) -> str:
        fused = " fused" if self.fused else ""
        bits = [f"{self.elen}-bit LMUL={self.lmul}{fused} "
                f"EleNum={self.elenum}"]
        if self.register_banks != 1:
            bits.append(f"banks={self.register_banks}")
        if self.issue_width != 1:
            bits.append(f"issue={self.issue_width}")
        if self.chaining:
            bits.append("chained")
        return " ".join(bits)

    @property
    def is_default_timing(self) -> bool:
        """True when the timing knobs are the paper's calibrated model."""
        return self.timing_model().is_default

    def timing_model(self) -> TimingModel:
        return TimingModel(
            register_banks=self.register_banks,
            issue_width=self.issue_width,
            chaining=self.chaining,
        )


@dataclass(frozen=True)
class ExploreResult:
    """Measured + modelled outcome of one :class:`ExplorePoint`."""

    point: ExplorePoint
    permutation_cycles: int
    cycles_per_round: float
    timing_fingerprint: str

    @property
    def throughput_e3(self) -> float:
        return _throughput_e3(self.permutation_cycles,
                              self.point.num_states)

    @property
    def area_slices(self) -> float:
        return explore_slices(
            self.point.elen, self.point.elenum,
            register_banks=self.point.register_banks,
            issue_width=self.point.issue_width,
        )

    @property
    def throughput_per_kslice(self) -> float:
        return 1000.0 * self.throughput_e3 / self.area_slices


def _variant_key(variant: Sequence) -> Tuple[int, int, bool]:
    """``(elen, lmul)`` or ``(elen, lmul, fused)`` as a checked triple."""
    elen, lmul, *flag = variant
    key = (elen, lmul, bool(flag and flag[0]))
    if (elen, lmul) not in VARIANTS or (key[2] and key != FUSED_VARIANT):
        raise ValueError(f"no program for variant {tuple(variant)!r}")
    return key


def _check_axis(name: str, values: Sequence) -> None:
    if not values:
        raise ValueError(f"{name} axis is empty")
    if len(set(values)) != len(values):
        raise ValueError(f"{name} axis repeats a value: {list(values)}")


def explore_grid(elenums: Sequence[int] = (5, 15, 30),
                 variants: Sequence[Sequence] = VARIANTS,
                 banks: Sequence[int] = (1, 2),
                 issue_widths: Sequence[int] = (1, 2),
                 chaining: Sequence[bool] = (False,)) -> List[ExplorePoint]:
    """The cartesian sweep grid, default timing knobs first.

    Every EleNum must hold an integral number of states (a multiple of
    5); each point runs fully occupied.  ``variants`` entries are
    ``(elen, lmul)`` pairs from :data:`VARIANTS`, or
    :data:`FUSED_VARIANT` for the fused program.  Every axis must be
    non-empty and free of repeats.  The default grid covers the paper's
    published design points (EleNum 5/15/30 across all three variants,
    one bank, single issue) plus the banked and dual-issue
    microarchitectures around them.
    """
    for elenum in elenums:
        if elenum < 5 or elenum % 5:
            raise ValueError(
                f"EleNum must be a positive multiple of 5, got {elenum}")
    keys = [_variant_key(variant) for variant in variants]
    for name, values in (("elenums", list(elenums)), ("variants", keys),
                         ("banks", list(banks)),
                         ("issue_widths", list(issue_widths)),
                         ("chaining", list(chaining))):
        _check_axis(name, values)
    points = []
    for elenum in elenums:
        for elen, lmul, fused in keys:
            for bank_count in banks:
                for issue in issue_widths:
                    for chain in chaining:
                        points.append(ExplorePoint(
                            elen=elen, lmul=lmul, elenum=elenum,
                            num_states=elenum // 5,
                            register_banks=bank_count,
                            issue_width=issue, chaining=chain,
                            fused=fused,
                        ))
    points.sort(key=lambda p: not p.is_default_timing)
    return points


def sweep_grid() -> List[ExplorePoint]:
    """The ``repro sweep`` grid: default timing, 24 points.

    Every EleNum from 5 to 30 in steps of 5 across all four variants —
    the three paper programs plus the fused one — on one bank with
    single issue.
    """
    return explore_grid(elenums=range(5, 31, 5),
                        variants=VARIANTS + (FUSED_VARIANT,),
                        banks=(1,), issue_widths=(1,))


# -- measurement (runs in workers and serially) ---------------------------------


def measure_point(point: ExplorePoint) -> ExploreResult:
    """Run one configuration traced, verify digests, extract cycles.

    Runs on the shared default session for the point's timing model —
    the LRU-bounded session cache is what makes a sweep over many
    timing configurations safe (evicted sessions release their
    processors and predecode caches).
    """
    model = point.timing_model()
    program = (keccak64_fused.build(point.elenum) if point.fused
               else build_program(point.elen, point.lmul, point.elenum))
    states = _random_states(point.num_states)
    result = default_session(model).run(program, states, trace=True)
    if result.states != [keccak_f1600(s) for s in states]:
        raise VerificationError(
            f"{point.label}: timing model {model.fingerprint()} changed "
            "the permutation result — timing knobs must never affect "
            "digests"
        )
    return ExploreResult(
        point=point,
        permutation_cycles=result.permutation_cycles,
        cycles_per_round=result.cycles_per_round,
        timing_fingerprint=model.fingerprint(),
    )


def _measure_points(points: Sequence[ExplorePoint]) -> List[ExploreResult]:
    """Pool task body: measure one span of points, in order."""
    return [measure_point(point) for point in points]


register_task_kind(_EXPLORE_TASK_KIND, _measure_points)


def explore(points: Sequence[ExplorePoint], *,
            workers: int = 1) -> List[ExploreResult]:
    """Measure every point, fanning out over the worker pool.

    ``workers <= 1`` measures serially in-process; parallel runs hand
    the points to the span scheduler, pickled a span at a time.  Results
    always come back in input order, bit-identical across worker counts
    — cycle counts are simulated, not measured wall-clock.
    """
    points = list(points)
    if workers <= 1:
        return [measure_point(p) for p in points]
    report = run_spans_report(
        _EXPLORE_TASK_KIND, len(points), workers=workers,
        payload=lambda start, stop: points[start:stop],
        collect=lambda _start, _stop, results: results,
        spans=plan_spans([0] * len(points), workers), transport="pickle")
    return report.flat()


# -- Pareto reduction and the committed artifact --------------------------------


def pareto_frontier(results: Sequence[ExploreResult]
                    ) -> List[ExploreResult]:
    """Results not dominated in (throughput up, area down)."""
    frontier = []
    for p in results:
        dominated = any(
            q.throughput_e3 >= p.throughput_e3
            and q.area_slices <= p.area_slices
            and (q.throughput_e3 > p.throughput_e3
                 or q.area_slices < p.area_slices)
            for q in results
        )
        if not dominated:
            frontier.append(p)
    return sorted(frontier, key=lambda p: p.area_slices)


def build_artifact(results: Sequence[ExploreResult]) -> dict:
    """The committed Pareto-front artifact (deterministic JSON value).

    Contains every swept point (``points``), the non-dominated subset
    flagged ``on_frontier``, the sweep axes, and the paper pins the
    default-timing rows must reproduce.  No timestamps: regenerating
    the artifact from the same grid yields a byte-identical file.
    """
    results = list(results)
    if not results:
        raise ValueError("cannot build an artifact from zero results")
    on_frontier = {id(r) for r in pareto_frontier(results)}
    rows = []
    for r in results:
        row = dict(asdict(r.point))
        row.update(
            label=r.point.label,
            default_timing=r.point.is_default_timing,
            timing_fingerprint=r.timing_fingerprint,
            permutation_cycles=r.permutation_cycles,
            cycles_per_round=r.cycles_per_round,
            throughput_e3=round(r.throughput_e3, 6),
            area_slices=round(r.area_slices, 3),
            throughput_per_kslice=round(r.throughput_per_kslice, 6),
            on_frontier=id(r) in on_frontier,
        )
        rows.append(row)
    axes = {
        "elenum": sorted({r.point.elenum for r in results}),
        "variant": sorted({r.point.variant for r in results}),
        "register_banks": sorted({r.point.register_banks
                                  for r in results}),
        "issue_width": sorted({r.point.issue_width for r in results}),
        "chaining": sorted({r.point.chaining for r in results}),
    }
    return {
        "schema": EXPLORE_SCHEMA,
        "axes": axes,
        "pins": {f"{elen}x{lmul}": {"permutation_cycles": cycles,
                                    "cycles_per_round": cpr}
                 for (elen, lmul), (cycles, cpr)
                 in sorted(PAPER_PINS.items())},
        "points": rows,
        "frontier": [row["label"] for row in rows if row["on_frontier"]],
    }


_ROW_REQUIRED = {
    "label": str, "elen": int, "lmul": int, "elenum": int,
    "num_states": int, "register_banks": int, "issue_width": int,
    "chaining": bool, "fused": bool, "default_timing": bool,
    "timing_fingerprint": str,
    "permutation_cycles": int, "cycles_per_round": (int, float),
    "throughput_e3": (int, float), "area_slices": (int, float),
    "throughput_per_kslice": (int, float), "on_frontier": bool,
}


def validate_artifact(doc: object, path: str = "<artifact>") -> dict:
    """Schema-check a parsed artifact; raises ``ValueError`` on problems."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: artifact must be a JSON object")
    if doc.get("schema") != EXPLORE_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {EXPLORE_SCHEMA!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise ValueError(f"{path}: points must be a non-empty list")
    for index, row in enumerate(points):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: points[{index}] is not an object")
        for key, kind in _ROW_REQUIRED.items():
            value = row.get(key)
            if isinstance(value, bool) and kind in (int, (int, float)):
                raise ValueError(
                    f"{path}: points[{index}].{key} must be numeric")
            if not isinstance(value, kind):
                raise ValueError(
                    f"{path}: points[{index}].{key} missing or mistyped")
    frontier = doc.get("frontier")
    if not isinstance(frontier, list) or not frontier:
        raise ValueError(f"{path}: frontier must be a non-empty list")
    labels = {row["label"] for row in points}
    for label in frontier:
        if label not in labels:
            raise ValueError(
                f"{path}: frontier entry {label!r} is not a swept point")
    if not isinstance(doc.get("axes"), dict):
        raise ValueError(f"{path}: missing axes object")
    return doc


def check_pins(doc: dict, path: str = "<artifact>") -> List[str]:
    """Problems with the artifact's default-timing rows vs. the pins.

    Every default-timing row must carry its variant's published cycle
    counts exactly (they are EleNum-independent), and at least one
    default-timing row must exist per published variant.  Fused rows
    are skipped: the pins belong to the three paper programs.
    """
    problems: List[str] = []
    seen: Dict[Tuple[int, int], int] = {}
    for row in doc.get("points", ()):
        if not row.get("default_timing") or row.get("fused"):
            continue
        variant = (row["elen"], row["lmul"])
        pin = PAPER_PINS.get(variant)
        if pin is None:
            continue
        seen[variant] = seen.get(variant, 0) + 1
        cycles, cpr = pin
        if row["permutation_cycles"] != cycles:
            problems.append(
                f"{path}: {row['label']}: permutation_cycles "
                f"{row['permutation_cycles']} != paper pin {cycles}")
        if row["cycles_per_round"] != cpr:
            problems.append(
                f"{path}: {row['label']}: cycles_per_round "
                f"{row['cycles_per_round']} != paper pin {cpr}")
    for variant in PAPER_PINS:
        if variant not in seen and _variant_swept(doc, variant):
            problems.append(
                f"{path}: no default-timing row for variant "
                f"{variant[0]}x{variant[1]}")
    return problems


def _variant_swept(doc: dict, variant: Tuple[int, int]) -> bool:
    return any((row.get("elen"), row.get("lmul")) == variant
               and not row.get("fused")
               for row in doc.get("points", ()))


def validate_artifact_file(path: str, *,
                           require_pins: bool = True) -> dict:
    """Load, schema-check and (optionally) pin-check an artifact file."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    validate_artifact(doc, path)
    if require_pins:
        problems = check_pins(doc, path)
        if problems:
            raise ValueError("; ".join(problems))
    return doc


def write_artifact(doc: dict, path: str) -> str:
    """Write an artifact deterministically (sorted keys, trailing \\n)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def default_artifact_path() -> str:
    """The committed artifact: ``benchmarks/baseline/EXPLORE_pareto.json``.

    Lives next to the BENCH_* trajectory records (same resolution rules
    as :func:`repro.observability.trajectory.default_baseline_dir`); the
    ``BENCH_`` loader ignores it by prefix, and ``repro stats
    --check-baseline`` schema-checks it when present.
    """
    import os

    from ..observability.trajectory import default_baseline_dir

    return os.path.join(default_baseline_dir(), "EXPLORE_pareto.json")


def render_explore(results: Sequence[ExploreResult],
                   top: Optional[int] = None) -> str:
    """Human-readable sweep table: frontier first, then dominated points."""
    frontier = pareto_frontier(results)
    on_frontier = {id(r) for r in frontier}
    header = (f"{'Configuration':52s} {'cyc/perm':>9s} {'cyc/rnd':>8s} "
              f"{'tput e3':>9s} {'slices':>9s} {'tput/kslice':>12s}  front")
    lines = ["Design-space exploration", "=" * len(header), header,
             "-" * len(header)]
    ordered = sorted(results, key=lambda r: (id(r) not in on_frontier,
                                             r.area_slices))
    if top is not None:
        ordered = ordered[:top]
    for r in ordered:
        marker = "  *" if id(r) in on_frontier else ""
        lines.append(
            f"{r.point.label[:52]:52s} {r.permutation_cycles:9d} "
            f"{r.cycles_per_round:8.0f} "
            f"{r.throughput_e3:9.2f} {r.area_slices:9.0f} "
            f"{r.throughput_per_kslice:12.2f}{marker}"
        )
    return "\n".join(lines)

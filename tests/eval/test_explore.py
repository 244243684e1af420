"""The design-space sweeper: grid construction, measurement, serial vs
pooled identity, Pareto reduction, artifact schema, the paper pins and
the ``repro sweep`` grid with the fused program."""

import copy
import json

import pytest

from repro.arch.area import (
    AREA_ANCHORS,
    IBEX_SLICES,
    explore_slices,
    slices,
)
from repro.eval.explore import (
    EXPLORE_SCHEMA,
    FUSED_VARIANT,
    PAPER_PINS,
    VARIANTS,
    ExplorePoint,
    build_artifact,
    check_pins,
    default_artifact_path,
    explore,
    explore_grid,
    measure_point,
    pareto_frontier,
    render_explore,
    sweep_grid,
    validate_artifact,
    validate_artifact_file,
    write_artifact,
)

#: A small grid reused across tests: one EleNum, one variant, the
#: bank/issue microarchitecture axes (4 points, 1 default-timing).
SMALL_GRID = explore_grid(elenums=(5,), variants=((64, 8),),
                          banks=(1, 2), issue_widths=(1, 2))


#: The sweep grid at the paper's three EleNums: 3 paper variants plus
#: the fused program, default timing (12 points).
SWEEP_GRID = explore_grid(elenums=(5, 15, 30),
                          variants=VARIANTS + (FUSED_VARIANT,),
                          banks=(1,), issue_widths=(1,))


@pytest.fixture(scope="module")
def small_results():
    return explore(SMALL_GRID)


@pytest.fixture(scope="module")
def points():
    return explore(SWEEP_GRID)


class TestGrid:
    def test_default_grid_shape(self):
        grid = explore_grid()
        # 3 elenums x 3 variants x 2 banks x 2 issue widths
        assert len(grid) == 36
        assert sum(p.is_default_timing for p in grid) == 9

    def test_default_timing_points_sort_first(self):
        grid = explore_grid()
        defaults = [p.is_default_timing for p in grid]
        assert defaults == sorted(defaults, reverse=True)

    def test_rejects_bad_elenum(self):
        with pytest.raises(ValueError):
            explore_grid(elenums=(7,))
        with pytest.raises(ValueError):
            explore_grid(elenums=(0,))

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            explore_grid(variants=((128, 8),))
        with pytest.raises(ValueError):
            explore_grid(variants=((64, 1, True),))  # no fused LMUL=1

    @pytest.mark.parametrize("axis", [
        "elenums", "variants", "banks", "issue_widths", "chaining"])
    def test_rejects_empty_axis(self, axis):
        with pytest.raises(ValueError, match=f"{axis} axis is empty"):
            explore_grid(**{axis: ()})

    @pytest.mark.parametrize("axis,values", [
        ("elenums", (5, 5)),
        ("variants", ((64, 8), (64, 8, False))),
        ("banks", (1, 2, 1)),
        ("issue_widths", (2, 2)),
        ("chaining", (False, False)),
    ])
    def test_rejects_repeated_axis_values(self, axis, values):
        with pytest.raises(ValueError, match=f"{axis} axis repeats"):
            explore_grid(**{axis: values})

    def test_fused_variant_selects_the_fused_program(self):
        grid = explore_grid(elenums=(5,), variants=(FUSED_VARIANT,),
                            banks=(1,), issue_widths=(1,))
        [point] = grid
        assert point.fused and (point.elen, point.lmul) == (64, 8)
        assert point.variant == "64x8f"
        assert point.label == "64-bit LMUL=8 fused EleNum=5"

    def test_sweep_grid_shape(self):
        grid = sweep_grid()
        # EleNum 5..30 step 5 x (3 paper variants + fused), default timing
        assert len(grid) == 24
        assert all(p.is_default_timing for p in grid)
        assert sum(p.fused for p in grid) == 6

    def test_points_run_fully_occupied(self):
        for point in explore_grid(elenums=(5, 15)):
            assert point.num_states == point.elenum // 5


class TestMeasurement:
    def test_default_points_reproduce_every_pin(self):
        for (elen, lmul), (cycles, cpr) in PAPER_PINS.items():
            result = measure_point(ExplorePoint(
                elen=elen, lmul=lmul, elenum=5, num_states=1))
            assert result.permutation_cycles == cycles
            assert result.cycles_per_round == cpr

    def test_pins_are_elenum_independent(self):
        for elenum in (5, 15):
            result = measure_point(ExplorePoint(
                elen=64, lmul=8, elenum=elenum,
                num_states=elenum // 5))
            assert result.permutation_cycles == 1892

    def test_knobs_reduce_cycles(self, small_results):
        by_knobs = {(r.point.register_banks, r.point.issue_width): r
                    for r in small_results}
        default = by_knobs[(1, 1)].permutation_cycles
        assert default == 1892
        assert by_knobs[(2, 1)].permutation_cycles < default
        assert by_knobs[(1, 2)].permutation_cycles < default
        assert by_knobs[(2, 2)].permutation_cycles \
            < by_knobs[(2, 1)].permutation_cycles


class TestTransportIdentity:
    """Serial and pooled runs must agree bit for bit."""

    def test_parallel_matches_serial(self, small_results):
        parallel = explore(SMALL_GRID, workers=2)
        assert parallel == small_results

    def test_unknown_transport_rejected(self):
        # Points always travel pickled over the span scheduler; there
        # is no transport to choose.
        with pytest.raises(TypeError):
            explore(SMALL_GRID, workers=2, transport="shm")

    def test_empty_grid(self):
        assert explore([]) == []


class TestAreaModel:
    def test_defaults_reduce_to_calibrated_anchors(self):
        for elen, anchors in AREA_ANCHORS.items():
            for elenum, expected in anchors:
                assert explore_slices(elen, elenum) \
                    == slices(elen, elenum) == expected

    def test_knobs_grow_area(self):
        base = explore_slices(64, 5)
        assert explore_slices(64, 5, register_banks=2) > base
        assert explore_slices(64, 5, issue_width=2) \
            == base + 0.25 * IBEX_SLICES

    def test_validation(self):
        with pytest.raises(ValueError):
            explore_slices(64, 5, register_banks=0)
        with pytest.raises(ValueError):
            explore_slices(64, 5, issue_width=0)


class TestArtifact:
    def test_round_trips_and_validates(self, small_results, tmp_path):
        doc = build_artifact(small_results)
        path = write_artifact(doc, str(tmp_path / "pareto.json"))
        loaded = validate_artifact_file(path)
        assert loaded == doc
        assert loaded["schema"] == EXPLORE_SCHEMA
        assert check_pins(loaded) == []

    def test_writes_deterministically(self, small_results, tmp_path):
        doc = build_artifact(small_results)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_artifact(doc, str(a))
        write_artifact(build_artifact(explore(SMALL_GRID)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            build_artifact([])

    def test_frontier_labels_are_swept_points(self, small_results):
        doc = build_artifact(small_results)
        labels = {row["label"] for row in doc["points"]}
        assert doc["frontier"]
        assert set(doc["frontier"]) <= labels

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.update(schema="bogus/9"), "schema"),
        (lambda d: d.pop("points"), "points"),
        (lambda d: d["points"][0].pop("permutation_cycles"), "mistyped"),
        (lambda d: d["points"][0].update(permutation_cycles=True),
         "numeric"),
        (lambda d: d["frontier"].append("not a point"), "frontier"),
        (lambda d: d.pop("axes"), "axes"),
    ])
    def test_validation_rejects_corruption(self, small_results, mutate,
                                           fragment):
        doc = copy.deepcopy(build_artifact(small_results))
        mutate(doc)
        with pytest.raises(ValueError, match=fragment):
            validate_artifact(doc)

    def test_check_pins_catches_wrong_cycles(self, small_results):
        doc = copy.deepcopy(build_artifact(small_results))
        for row in doc["points"]:
            if row["default_timing"]:
                row["permutation_cycles"] += 1
        problems = check_pins(doc)
        assert problems and "1893 != paper pin 1892" in problems[0]

    def test_check_pins_skips_fused_rows(self, points):
        doc = build_artifact(points)
        fused = [row for row in doc["points"] if row["fused"]]
        assert fused and all(row["permutation_cycles"] == 1172
                             for row in fused)
        assert "64x8f" in doc["axes"]["variant"]
        assert check_pins(doc) == []
        only_fused = dict(doc, points=fused)
        assert check_pins(only_fused) == []

    def test_check_pins_requires_default_row_per_variant(
            self, small_results):
        doc = copy.deepcopy(build_artifact(small_results))
        for row in doc["points"]:
            row["default_timing"] = False
        assert any("no default-timing row" in p for p in check_pins(doc))


class TestCommittedArtifact:
    """The artifact in benchmarks/baseline/ is the acceptance evidence:
    schema-valid, and its default rows reproduce the pins exactly."""

    def test_committed_artifact_validates_with_pins(self):
        doc = validate_artifact_file(default_artifact_path())
        assert len(doc["points"]) == 36
        defaults = [row for row in doc["points"] if row["default_timing"]]
        assert len(defaults) == 9
        for row in defaults:
            cycles, cpr = PAPER_PINS[(row["elen"], row["lmul"])]
            assert row["permutation_cycles"] == cycles
            assert row["cycles_per_round"] == cpr

    def test_committed_artifact_is_regenerable(self):
        """Byte-identical regeneration: same grid -> same file."""
        with open(default_artifact_path(), encoding="utf-8") as handle:
            committed = handle.read()
        doc = build_artifact(explore(explore_grid()))
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" \
            == committed


class TestPareto:
    def test_frontier_is_non_dominated(self, small_results):
        frontier = pareto_frontier(small_results)
        assert frontier
        for p in frontier:
            assert not any(
                q.throughput_e3 >= p.throughput_e3
                and q.area_slices <= p.area_slices
                and (q.throughput_e3 > p.throughput_e3
                     or q.area_slices < p.area_slices)
                for q in small_results)

    def test_frontier_sorted_by_area(self, small_results):
        areas = [r.area_slices for r in pareto_frontier(small_results)]
        assert areas == sorted(areas)


class TestSweep:
    """The default-timing sweep with the fused program (``repro sweep``)."""

    def test_point_count(self, points):
        # 3 EleNums x (3 paper configs + 1 fused).
        assert len(points) == 12

    def test_latency_constant_across_elenum(self, points):
        for lmul, elen in ((1, 64), (8, 64), (8, 32)):
            rounds = {p.cycles_per_round for p in points
                      if p.point.lmul == lmul and p.point.elen == elen
                      and not p.point.fused}
            assert len(rounds) == 1

    def test_throughput_scales_with_states(self, points):
        lmul8_64 = sorted(
            (p for p in points if p.point.elen == 64 and p.point.lmul == 8
             and not p.point.fused),
            key=lambda p: p.point.num_states,
        )
        base = lmul8_64[0].throughput_e3
        for p in lmul8_64:
            assert p.throughput_e3 == pytest.approx(
                base * p.point.num_states, rel=0.001)

    def test_fused_fastest_at_every_elenum(self, points):
        for elenum in (5, 15, 30):
            group = [p for p in points if p.point.elenum == elenum]
            best = max(group, key=lambda p: p.throughput_e3)
            assert best.point.fused

    def test_fused_cycles(self, points):
        fused = [p for p in points if p.point.fused]
        assert len(fused) == 3
        assert all(p.cycles_per_round == 45 for p in fused)
        assert all(p.permutation_cycles == 1172 for p in fused)

    def test_paper_variants_exclude_fused(self):
        grid = explore_grid(elenums=(5,), banks=(1,), issue_widths=(1,))
        assert len(grid) == 3
        assert not any(p.fused for p in grid)

    def test_efficiency_metric(self, points):
        p = points[0]
        assert p.throughput_per_kslice == pytest.approx(
            1000 * p.throughput_e3 / p.area_slices)


class TestSweepPareto:
    def test_frontier_subset(self, points):
        frontier = pareto_frontier(points)
        labels = {p.point.label for p in points}
        assert {p.point.label for p in frontier} <= labels
        assert frontier

    def test_frontier_sorted_by_area(self, points):
        areas = [p.area_slices for p in pareto_frontier(points)]
        assert areas == sorted(areas)

    def test_no_point_dominates_frontier_member(self, points):
        for f in pareto_frontier(points):
            for p in points:
                dominates = (p.throughput_e3 > f.throughput_e3
                             and p.area_slices <= f.area_slices)
                assert not dominates, (p.point.label, f.point.label)

    def test_fused_on_frontier(self, points):
        assert any(p.point.fused for p in pareto_frontier(points))


class TestSweepRendering:
    def test_render(self, points):
        text = render_explore(points)
        assert "Design-space exploration" in text
        assert "tput/kslice" in text
        assert "64-bit LMUL=8 fused" in text

"""Raster cleanup pipeline: repair, lunar scaling, floor, 5x5 smoothing."""

import math

import numpy as np
import pytest

from gridgap.errors import ParameterError, SchemaError
from gridgap.ingest.schema import InputFile
from gridgap.ntl import (
    Raster,
    load_raster,
    lowpass_5x5,
    lunar_scale,
    process_raster,
    read_grid,
    repair_pixels,
    threshold_floor,
    write_grid,
    write_metadata,
)

from helpers import brute_lowpass, moon_angle_grid, reference_repair


def hand_raster_8x8():
    # mixed magnitudes and awkward fractions so rounding actually matters
    return np.array([
        [12.5, 0.1, 33.0, 7.25, 19.0, 4.4, 28.75, 11.1],
        [3.3, 45.0, 9.9, 21.5, 0.0, 17.2, 6.8, 30.0],
        [25.0, 8.8, 14.14, 2.2, 38.0, 10.0, 23.3, 5.5],
        [0.5, 29.0, 16.6, 41.0, 12.12, 7.7, 34.0, 20.2],
        [18.0, 6.6, 27.5, 3.9, 22.0, 44.4, 9.0, 15.15],
        [31.0, 13.13, 0.25, 24.0, 8.08, 19.9, 40.0, 2.75],
        [10.5, 36.0, 21.21, 5.05, 28.0, 1.1, 17.77, 26.0],
        [7.07, 15.0, 4.04, 32.32, 11.0, 39.0, 0.75, 23.23],
    ])


class TestRepair:
    def test_no_flags_is_identity(self):
        grid = hand_raster_8x8()
        fixed, repaired, isolated = repair_pixels(grid, np.zeros((8, 8), dtype=int))
        assert np.array_equal(fixed, grid)
        assert repaired == ()
        assert isolated == ()

    def test_single_flagged_amid_equals(self):
        grid = np.full((3, 3), 10.0)
        grid[1, 1] = 999.0
        flags = np.zeros((3, 3), dtype=int)
        flags[1, 1] = 1
        fixed, repaired, _ = repair_pixels(grid, flags)
        assert fixed[1, 1] == 10.0
        assert repaired == ((1, 1),)

    def test_mixed_neighborhood_mean(self):
        grid = np.array([
            [0.0, 0.0, 0.0],
            [0.0, 50.0, 8.0],
            [8.0, 8.0, 8.0],
        ])
        flags = np.zeros((3, 3), dtype=int)
        flags[1, 1] = 7
        fixed, _, _ = repair_pixels(grid, flags)
        # neighbors (0,0,0,0,8,8,8,8) -> 4
        assert fixed[1, 1] == 4.0

    def test_isolated_block_zeroed_and_reported(self):
        grid = np.full((4, 4), 5.0)
        flags = np.zeros((4, 4), dtype=int)
        flags[:2, :2] = 1  # corner pixel (0,0) has only flagged neighbors
        fixed, repaired, isolated = repair_pixels(grid.copy(), flags)
        assert fixed[0, 0] == 0.0
        assert (0, 0) in isolated
        # the other three have at least one good neighbor
        assert set(repaired) == {(0, 1), (1, 0), (1, 1)}
        assert fixed[1, 1] == 5.0

    def test_good_pixels_untouched(self):
        grid = hand_raster_8x8()
        flags = np.zeros((8, 8), dtype=int)
        flags[3, 4] = 2
        fixed, _, _ = repair_pixels(grid, flags)
        mask = np.ones((8, 8), dtype=bool)
        mask[3, 4] = False
        assert np.array_equal(fixed[mask], grid[mask])

    def test_repair_uses_original_values_not_repaired_ones(self):
        # two adjacent flagged pixels: each must average only good originals
        grid = np.array([
            [1.0, 2.0, 3.0, 4.0],
            [5.0, -100.0, -200.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
        ])
        flags = np.zeros((3, 4), dtype=int)
        flags[1, 1] = flags[1, 2] = 1
        fixed, _, _ = repair_pixels(grid, flags)
        assert fixed[1, 1] == pytest.approx((1 + 2 + 3 + 5 + 9 + 10 + 11) / 7)
        assert fixed[1, 2] == pytest.approx((2 + 3 + 4 + 8 + 10 + 11 + 12) / 7)

    def test_fractional_flag_marks_pixel_unusable(self, tmp_path):
        grid = np.full((5, 5), 10.0)
        grid[2, 2] = 999.0
        flags = np.zeros((5, 5))
        flags[2, 2] = 0.5
        write_grid(tmp_path / "scene.txt", grid)
        write_grid(tmp_path / "scene.flags.txt", flags)
        write_metadata(tmp_path / "scene.meta", {"flags_grid": "scene.flags.txt"})
        raster = load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")
        fixed, repaired, isolated = process_raster(raster, floor=0.0, smooth=False)
        assert repaired == ((2, 2),) and isolated == ()
        assert np.array_equal(fixed, np.full((5, 5), 10.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pixel_loop_bit_exact(self, seed):
        # 60 seeded rasters per seed: sizes 1-13, flag densities 0-80%, signed
        # zeros, magnitudes from 1e-300 to 6e307, flags of mixed nonzero values
        rng = np.random.default_rng([20261020, seed])
        for _ in range(60):
            h, w = rng.integers(1, 14, size=2)
            scale = 10.0 ** rng.choice([-300, 0, 2, 300, 306])  # 1e306 sums overflow
            grid = rng.uniform(-1.0, 60.0, (h, w)) * scale
            grid[rng.random((h, w)) < 0.1] = -0.0
            grid[rng.random((h, w)) < 0.05] = 0.0
            flagged = rng.random((h, w)) < rng.uniform(0.0, 0.8)
            flags = np.where(flagged, rng.choice([0.5, 1.0, 7.0], (h, w)), 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                fixed, repaired, isolated = repair_pixels(grid, flags)
                want, want_repaired, want_isolated = reference_repair(grid, flags)
            assert fixed.tobytes() == want.tobytes()
            assert (repaired, isolated) == (want_repaired, want_isolated)


class TestLunarScale:
    def test_new_moon_identity(self):
        grid = hand_raster_8x8()
        assert np.array_equal(lunar_scale(grid, 0.0, moon_angle_grid((8, 8), 0.0)), grid)

    def test_full_moon_overhead_halves(self):
        grid = hand_raster_8x8()
        assert np.array_equal(lunar_scale(grid, 1.0, moon_angle_grid((8, 8), 0.0)), grid / 2.0)

    def test_angle_factor_clamped_below_horizon(self):
        grid = np.full((5, 5), 20.0)
        assert np.array_equal(lunar_scale(grid, 1.0, moon_angle_grid((5, 5), 180.0)), grid)

    def test_partial_angle(self):
        grid = np.full((5, 5), 30.0)
        expected = 30.0 / (1.0 + 0.5 * math.cos(math.radians(60.0)))
        assert lunar_scale(grid, 0.5, moon_angle_grid((5, 5), 60.0))[2, 2] == pytest.approx(
            expected, rel=1e-15
        )

    def test_zero_raster_stays_zero(self):
        scaled = lunar_scale(np.zeros((5, 5)), 0.9, moon_angle_grid((5, 5), 10.0))
        assert np.array_equal(scaled, np.zeros((5, 5)))

    def test_missing_metadata_rejected(self, tmp_path):
        # an angle grid without its fraction is refused where the raster is loaded
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        write_grid(tmp_path / "scene.angle.txt", moon_angle_grid((8, 8), 60.0))
        write_metadata(tmp_path / "scene.meta", {"lunar_angle_grid": "scene.angle.txt"})
        with pytest.raises(SchemaError):
            load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")

    def test_fraction_bounds(self, tmp_path):
        write_grid(tmp_path / "scene.txt", np.ones((5, 5)))
        write_grid(tmp_path / "scene.angle.txt", moon_angle_grid((5, 5), 0.0))
        meta = tmp_path / "scene.meta"
        write_metadata(meta, {"lunar_angle_grid": "scene.angle.txt", "lunar_fraction": 1.5})
        with pytest.raises(SchemaError) as exc:
            load_raster(tmp_path / "scene.txt", meta)
        assert str(exc.value) == f"{meta}: lunar_fraction must lie in [0, 1], got 1.5"


class TestThresholdFloor:
    def test_just_below_floor_zeroed(self):
        out = threshold_floor(np.array([[9.99, 10.0, 10.01, 0.0, 200.0]] * 5))
        assert out[0, 0] == 0.0
        assert out[0, 1] == 10.0
        assert out[0, 2] == 10.01

    def test_idempotent(self):
        once = threshold_floor(hand_raster_8x8())
        assert np.array_equal(once, threshold_floor(once))

    def test_zero_raster_unchanged(self):
        assert np.array_equal(threshold_floor(np.zeros((5, 5))), np.zeros((5, 5)))

    def test_custom_floor(self):
        grid = np.full((5, 5), 3.0)
        assert np.array_equal(threshold_floor(grid, floor=2.5), grid)
        assert np.array_equal(threshold_floor(grid, floor=3.5), np.zeros((5, 5)))


class TestLowpass:
    def test_constant_unchanged(self):
        assert np.array_equal(lowpass_5x5(np.full((6, 7), 7.0)), np.full((6, 7), 7.0))

    def test_center_impulse_spreads_evenly(self):
        grid = np.zeros((9, 9))
        grid[4, 4] = 1.0
        out = lowpass_5x5(grid)
        inside = out[2:7, 2:7]
        assert np.all(inside == 1.0 / 25.0)
        outside = out.copy()
        outside[2:7, 2:7] = 0.0
        assert not outside.any()
        # interior impulse mass is redistributed, not lost
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_golden_8x8_matches_double_loop_bit_exact(self):
        grid = hand_raster_8x8()
        assert np.array_equal(lowpass_5x5(grid), brute_lowpass(grid))

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            lowpass_5x5(np.ones((4, 5)))
        lowpass_5x5(np.ones((5, 5)))  # boundary size is fine

    def test_edge_replication_on_corner_impulse(self):
        grid = np.zeros((8, 8))
        grid[0, 0] = 25.0
        out = lowpass_5x5(grid)
        # corner window sees the impulse replicated 3x3 times
        assert out[0, 0] == 9.0
        assert out[2, 2] == 1.0


class TestPipeline:
    def _flagged_lunar_raster(self):
        grid = hand_raster_8x8() * 2.0
        flags = np.zeros((8, 8), dtype=int)
        flags[2, 3] = 1
        flags[6, 6] = 1
        angle = moon_angle_grid((8, 8), 45.0)
        return Raster(grid, flags, 0.6, angle)

    def test_runs_all_stages_in_order(self):
        raster = self._flagged_lunar_raster()
        grid, repaired, _ = process_raster(raster, floor=10.0)
        by_hand = repair_pixels(raster.intensity, raster.flags)[0]
        by_hand = lunar_scale(by_hand, raster.lunar_fraction, raster.lunar_angle)
        by_hand = threshold_floor(by_hand, 10.0)
        by_hand = lowpass_5x5(by_hand)
        assert np.array_equal(grid, by_hand)
        assert repaired == ((2, 3), (6, 6))

    def test_output_nonnegative(self):
        grid, _, _ = process_raster(self._flagged_lunar_raster())
        assert np.all(grid >= 0.0)

    def test_skips_lunar_without_metadata(self):
        grid = hand_raster_8x8()
        out, _, _ = process_raster(Raster(grid, None, None, None), floor=0.0, smooth=False)
        assert np.array_equal(out, grid)

    @pytest.mark.parametrize(
        "fraction, angle", [(0.5, None), (None, np.zeros((8, 8)))], ids=["no-angle", "no-fraction"]
    )
    def test_skips_lunar_with_half_the_metadata(self, fraction, angle):
        grid = hand_raster_8x8()
        out, _, _ = process_raster(Raster(grid, None, fraction, angle), floor=0.0, smooth=False)
        assert np.array_equal(out, grid)


class TestGridText:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = np.concatenate([
            rng.uniform(0, 100, (4, 6)),
            np.array([[0.1, 1 / 3, 1e-17, 2**53 + 1.0, -7.25, math.pi]]),
        ])
        path = tmp_path / "grid.txt"
        write_grid(path, grid)
        back = read_grid(path)
        assert np.array_equal(back, grid)
        assert path.read_text().splitlines()[0] == "6 5"

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid = hand_raster_8x8() / 3.0
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_grid(a, grid)
        write_grid(b, read_grid(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_shape_validation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(SchemaError):
            read_grid(path)
        path.write_text("3 2\n1 2 3\n")
        with pytest.raises(SchemaError):
            read_grid(path)
        path.write_text("2 1\n1 2 3\n")
        with pytest.raises(SchemaError):
            read_grid(path)
        path.write_text("2 1\n1 oops\n")
        with pytest.raises(SchemaError):
            read_grid(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_refused_naming_file_and_row(self, tmp_path, cell):
        path = tmp_path / "grid.txt"
        path.write_text(f"2 2\n1.0 2.0\n3.0 {cell}\n")
        with pytest.raises(SchemaError) as exc:
            read_grid(path)
        assert str(exc.value) == f"{path}: row 2 holds a non-finite cell"

    def test_metadata_round_trip(self, tmp_path):
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        write_grid(tmp_path / "scene.angle.txt", moon_angle_grid((8, 8), 60.0))
        meta = {"lunar_fraction": 0.25, "lunar_angle_grid": "scene.angle.txt"}
        write_metadata(tmp_path / "scene.meta", meta)
        raster = load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")
        assert raster.lunar_fraction == 0.25 and raster.flags is None
        assert np.array_equal(raster.lunar_angle, moon_angle_grid((8, 8), 60.0))

    def test_metadata_line_without_equals_names_file_and_line(self, tmp_path):
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        path = tmp_path / "scene.meta"
        path.write_text("# sidecar\nlunar_fraction = 0.5\ncolormap magma\n")
        with pytest.raises(SchemaError) as exc:
            load_raster(tmp_path / "scene.txt", path)
        assert str(exc.value) == f"{path}: line 3: expected 'key = value', got 'colormap magma'"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("lunar_fraction = half", "lunar_fraction: expected a number, got 'half'"),
            ("flags_grid = gone.txt", "flags_grid: file not found: "),
        ],
        ids=["bad-number", "missing-grid"],
    )
    def test_sidecar_refusal_names_file_and_key(self, tmp_path, line, message):
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        path = tmp_path / "scene.meta"
        path.write_text(line + "\n")
        with pytest.raises(SchemaError) as exc:
            load_raster(tmp_path / "scene.txt", path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_input_files_are_read_once_and_companions_recorded(self, tmp_path):
        grid = hand_raster_8x8()
        write_grid(tmp_path / "scene.txt", grid)
        write_grid(tmp_path / "scene.flags.txt", np.eye(8))
        (tmp_path / "scene.meta").write_text("flags_grid = scene.flags.txt\n")
        recorded = []

        def record(path, data):
            recorded.append((path, data))

        scene, meta = (InputFile(tmp_path / name, record) for name in ("scene.txt", "scene.meta"))
        raster = load_raster(scene, meta, record)
        assert np.array_equal(raster.intensity, grid)
        assert np.array_equal(raster.flags, np.eye(8, dtype=int))
        # each file once, with its bytes: the sidecar's companion grid too
        files = [tmp_path / name for name in ("scene.txt", "scene.meta", "scene.flags.txt")]
        assert recorded == [(path, path.read_bytes()) for path in files]

    def test_load_raster_with_sidecar(self, tmp_path):
        grid = hand_raster_8x8()
        flags = np.zeros((8, 8), dtype=int)
        flags[1, 1] = 1
        angle = moon_angle_grid((8, 8), 30.0)
        write_grid(tmp_path / "scene.txt", grid)
        write_grid(tmp_path / "scene.flags.txt", flags.astype(float))
        write_grid(tmp_path / "scene.angle.txt", angle)
        write_metadata(tmp_path / "scene.meta", {
            "flags_grid": "scene.flags.txt",
            "lunar_angle_grid": "scene.angle.txt",
            "lunar_fraction": "0.75",
        })
        raster = load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")
        assert np.array_equal(raster.intensity, grid)
        assert raster.flags[1, 1] == 1
        assert raster.lunar_fraction == 0.75
        assert np.array_equal(raster.lunar_angle, angle)

    @pytest.mark.parametrize("key", ["flags_grid", "lunar_angle_grid"])
    def test_sidecar_grid_of_another_shape_refused_naming_both_files(self, tmp_path, key):
        scene, side = tmp_path / "scene.txt", tmp_path / "side.txt"
        write_grid(scene, hand_raster_8x8())
        write_grid(side, np.zeros((8, 7)))
        write_metadata(tmp_path / "scene.meta", {key: "side.txt", "lunar_fraction": 0.5})
        with pytest.raises(SchemaError) as exc:
            load_raster(scene, tmp_path / "scene.meta")
        assert str(exc.value) == f"{side}: shape (8, 7) differs from {scene}'s (8, 8)"

    def test_load_raster_lunar_fields_must_pair(self, tmp_path):
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        write_metadata(tmp_path / "scene.meta", {"lunar_fraction": "0.5"})
        with pytest.raises(SchemaError):
            load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")

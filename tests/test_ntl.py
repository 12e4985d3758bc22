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

from helpers import moon_angle_grid


def brute_lowpass(grid):
    """Straightforward double loop; clamped indices replicate the edges."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr in range(-2, 3):
                for dc in range(-2, 3):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    acc += grid[rr, cc]
            out[r, c] = acc / 25.0
    return out


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
        result = repair_pixels(Raster(grid))
        assert np.array_equal(result.raster.intensity, grid)
        assert result.repaired == ()
        assert result.isolated == ()
        assert not result.raster.flags.any()

    def test_single_flagged_amid_equals(self):
        grid = np.full((3, 3), 10.0)
        grid[1, 1] = 999.0
        flags = np.zeros((3, 3), dtype=int)
        flags[1, 1] = 1
        result = repair_pixels(Raster(grid, flags))
        assert result.raster.intensity[1, 1] == 10.0
        assert result.repaired == ((1, 1),)

    def test_mixed_neighborhood_mean(self):
        grid = np.array([
            [0.0, 0.0, 0.0],
            [0.0, 50.0, 8.0],
            [8.0, 8.0, 8.0],
        ])
        flags = np.zeros((3, 3), dtype=int)
        flags[1, 1] = 7
        result = repair_pixels(Raster(grid, flags))
        # neighbors (0,0,0,0,8,8,8,8) -> 4
        assert result.raster.intensity[1, 1] == 4.0

    def test_isolated_block_zeroed_and_reported(self):
        grid = np.full((4, 4), 5.0)
        flags = np.zeros((4, 4), dtype=int)
        flags[:2, :2] = 1  # corner pixel (0,0) has only flagged neighbors
        result = repair_pixels(Raster(grid.copy(), flags))
        assert result.raster.intensity[0, 0] == 0.0
        assert (0, 0) in result.isolated
        # the other three have at least one good neighbor
        assert set(result.repaired) == {(0, 1), (1, 0), (1, 1)}
        assert result.raster.intensity[1, 1] == 5.0

    def test_good_pixels_untouched(self):
        grid = hand_raster_8x8()
        flags = np.zeros((8, 8), dtype=int)
        flags[3, 4] = 2
        result = repair_pixels(Raster(grid, flags))
        mask = np.ones((8, 8), dtype=bool)
        mask[3, 4] = False
        assert np.array_equal(result.raster.intensity[mask], grid[mask])

    def test_repair_uses_original_values_not_repaired_ones(self):
        # two adjacent flagged pixels: each must average only good originals
        grid = np.array([
            [1.0, 2.0, 3.0, 4.0],
            [5.0, -100.0, -200.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
        ])
        flags = np.zeros((3, 4), dtype=int)
        flags[1, 1] = flags[1, 2] = 1
        result = repair_pixels(Raster(grid, flags))
        assert result.raster.intensity[1, 1] == pytest.approx((1 + 2 + 3 + 5 + 9 + 10 + 11) / 7)
        assert result.raster.intensity[1, 2] == pytest.approx((2 + 3 + 4 + 8 + 10 + 11 + 12) / 7)


class TestLunarScale:
    def test_new_moon_identity(self):
        grid = hand_raster_8x8()
        r = Raster(grid, None, 0.0, moon_angle_grid((8, 8), 0.0))
        assert np.array_equal(lunar_scale(r).intensity, grid)

    def test_full_moon_overhead_halves(self):
        grid = hand_raster_8x8()
        r = Raster(grid, None, 1.0, moon_angle_grid((8, 8), 0.0))
        assert np.array_equal(lunar_scale(r).intensity, grid / 2.0)

    def test_angle_factor_clamped_below_horizon(self):
        grid = np.full((5, 5), 20.0)
        r = Raster(grid, None, 1.0, moon_angle_grid((5, 5), 180.0))
        assert np.array_equal(lunar_scale(r).intensity, grid)

    def test_partial_angle(self):
        grid = np.full((5, 5), 30.0)
        r = Raster(grid, None, 0.5, moon_angle_grid((5, 5), 60.0))
        expected = 30.0 / (1.0 + 0.5 * math.cos(math.radians(60.0)))
        assert lunar_scale(r).intensity[2, 2] == pytest.approx(expected, rel=1e-15)

    def test_zero_raster_stays_zero(self):
        r = Raster(np.zeros((5, 5)), None, 0.9, moon_angle_grid((5, 5), 10.0))
        assert np.array_equal(lunar_scale(r).intensity, np.zeros((5, 5)))

    def test_missing_metadata_rejected(self):
        with pytest.raises(SchemaError):
            lunar_scale(Raster(np.ones((5, 5))))
        with pytest.raises(SchemaError):
            lunar_scale(Raster(np.ones((5, 5)), None, 0.5, None))

    def test_fraction_bounds(self):
        with pytest.raises(ParameterError):
            Raster(np.ones((5, 5)), None, 1.5, moon_angle_grid((5, 5), 0.0))


class TestThresholdFloor:
    def test_just_below_floor_zeroed(self):
        r = threshold_floor(Raster(np.array([[9.99, 10.0, 10.01, 0.0, 200.0]] * 5)))
        assert r.intensity[0, 0] == 0.0
        assert r.intensity[0, 1] == 10.0
        assert r.intensity[0, 2] == 10.01

    def test_idempotent(self):
        grid = hand_raster_8x8()
        once = threshold_floor(Raster(grid))
        twice = threshold_floor(once)
        assert np.array_equal(once.intensity, twice.intensity)

    def test_zero_raster_unchanged(self):
        r = threshold_floor(Raster(np.zeros((5, 5))))
        assert np.array_equal(r.intensity, np.zeros((5, 5)))

    def test_custom_floor(self):
        r = threshold_floor(Raster(np.full((5, 5), 3.0)), floor=2.5)
        assert np.array_equal(r.intensity, np.full((5, 5), 3.0))
        r = threshold_floor(Raster(np.full((5, 5), 3.0)), floor=3.5)
        assert np.array_equal(r.intensity, np.zeros((5, 5)))


class TestLowpass:
    def test_constant_unchanged(self):
        r = lowpass_5x5(Raster(np.full((6, 7), 7.0)))
        assert np.array_equal(r.intensity, np.full((6, 7), 7.0))

    def test_center_impulse_spreads_evenly(self):
        grid = np.zeros((9, 9))
        grid[4, 4] = 1.0
        out = lowpass_5x5(Raster(grid)).intensity
        inside = out[2:7, 2:7]
        assert np.all(inside == 1.0 / 25.0)
        outside = out.copy()
        outside[2:7, 2:7] = 0.0
        assert not outside.any()
        # interior impulse mass is redistributed, not lost
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_golden_8x8_matches_double_loop_bit_exact(self):
        grid = hand_raster_8x8()
        ours = lowpass_5x5(Raster(grid)).intensity
        oracle = brute_lowpass(grid)
        assert np.array_equal(ours, oracle)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            lowpass_5x5(Raster(np.ones((4, 5))))
        lowpass_5x5(Raster(np.ones((5, 5))))  # boundary size is fine

    def test_edge_replication_on_corner_impulse(self):
        grid = np.zeros((8, 8))
        grid[0, 0] = 25.0
        out = lowpass_5x5(Raster(grid)).intensity
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
        result = process_raster(raster, floor=10.0)
        by_hand = repair_pixels(raster).raster
        by_hand = lunar_scale(by_hand)
        by_hand = threshold_floor(by_hand, 10.0)
        by_hand = lowpass_5x5(by_hand)
        assert np.array_equal(result.raster.intensity, by_hand.intensity)
        assert result.repaired == ((2, 3), (6, 6))

    def test_output_nonnegative(self):
        result = process_raster(self._flagged_lunar_raster())
        assert np.all(result.raster.intensity >= 0.0)

    def test_skips_lunar_without_metadata(self):
        grid = hand_raster_8x8()
        result = process_raster(Raster(grid), floor=0.0, smooth=False)
        assert np.array_equal(result.raster.intensity, grid)


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

    def test_load_raster_lunar_fields_must_pair(self, tmp_path):
        write_grid(tmp_path / "scene.txt", hand_raster_8x8())
        write_metadata(tmp_path / "scene.meta", {"lunar_fraction": "0.5"})
        with pytest.raises(SchemaError):
            load_raster(tmp_path / "scene.txt", tmp_path / "scene.meta")

"""Night-light raster cleanup: repair, lunar scaling, floor, smoothing.

Grids travel as plain text (width/height header, row-major reals printed
with ``repr``) so outputs round-trip bit-exactly; a sidecar key-value file
(``SIDECAR_KEYS``) names the flag and lunar-angle grids and carries the
lunar illumination fraction.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SchemaError
from .ingest.schema import decode_text, read_keyfile


class Raster(NamedTuple):
    """An intensity grid with optional quality flags and lunar metadata, as
    ``load_raster`` checks them.

    ``flags`` holds True for unusable pixels. ``lunar_angle`` is in radians,
    one value per pixel; ``lunar_fraction`` lies in [0, 1].
    """

    intensity: np.ndarray
    flags: np.ndarray | None
    lunar_fraction: float | None
    lunar_angle: np.ndarray | None


def _cells(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(map(tuple, np.argwhere(mask).tolist()))


def repair_pixels(grid: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """Fill flagged pixels from their good 8-neighborhoods.

    A flagged pixel becomes the mean of its unflagged neighbors; a pixel
    whose whole neighborhood is flagged too has no information left and is
    zeroed. Returns the repaired grid and the row-major (row, col) lists of
    repaired and isolated pixels. The eight shifted neighbor grids are added
    in row-major kernel order, a flagged or off-grid neighbor as 0.0: the
    running total starts at +0.0 and so is never -0.0, and adding 0.0 leaves
    it as the per-pixel loop that skips those neighbors would.
    """
    bad = flags != 0
    h, w = grid.shape
    values = np.pad(np.where(bad, 0.0, grid), 1)
    good = np.pad(~bad, 1)
    total = np.zeros(grid.shape)
    count = np.zeros(grid.shape, dtype=int)
    for dr in range(3):
        for dc in range(3):
            if (dr, dc) != (1, 1):
                total = total + values[dr : dr + h, dc : dc + w]
                count += good[dr : dr + h, dc : dc + w]
    repaired, isolated = bad & (count > 0), bad & (count == 0)
    fixed = grid.copy()
    fixed[repaired] = total[repaired] / count[repaired]
    fixed[isolated] = 0.0
    return fixed, _cells(repaired), _cells(isolated)


def lunar_scale(grid: np.ndarray, fraction: float, angle: np.ndarray) -> np.ndarray:
    """Divide out moonlight: divisor 1 + fraction * clamp(cos angle, 0, 1).

    A new moon (fraction 0) or a moon below the horizon (cos <= 0) leaves
    the pixel untouched; a full moon overhead halves it.
    """
    return grid / (1.0 + fraction * np.clip(np.cos(angle), 0.0, 1.0))


def threshold_floor(grid: np.ndarray, floor: float = 10.0) -> np.ndarray:
    """Zero out pixels strictly below ``floor``; the boundary value stays."""
    if not 0 <= floor < np.inf:
        raise ParameterError(f"floor must be nonnegative and finite, got {floor}")
    return np.where(grid < floor, 0.0, grid)


def lowpass_5x5(grid: np.ndarray) -> np.ndarray:
    """Uniform 5x5 mean filter with edge-replication padding.

    The 25 neighbor adds happen in row-major kernel order for every pixel,
    so the result is bit-identical to a scalar double loop that accumulates
    the same way.
    """
    h, w = grid.shape
    if h < 5 or w < 5:
        raise ParameterError(f"5x5 filter needs at least a 5x5 grid, got {h}x{w}")
    padded = np.pad(grid, 2, mode="edge")
    acc = np.zeros_like(grid)
    for dr in range(5):
        for dc in range(5):
            acc = acc + padded[dr : dr + h, dc : dc + w]
    return acc / 25.0


def process_raster(
    raster: Raster, floor: float = 10.0, smooth: bool = True
) -> tuple[np.ndarray, tuple, tuple]:
    """Repair, de-moonlight (when metadata exists), floor, then smooth.

    Returns the final grid and the repair step's repaired and isolated lists.
    """
    grid = raster.intensity
    flags = np.zeros(grid.shape, dtype=bool) if raster.flags is None else raster.flags
    grid, repaired, isolated = repair_pixels(grid, flags)
    if raster.lunar_fraction is not None and raster.lunar_angle is not None:
        grid = lunar_scale(grid, raster.lunar_fraction, raster.lunar_angle)
    grid = threshold_floor(grid, floor)
    if smooth:
        grid = lowpass_5x5(grid)
    return grid, repaired, isolated


# -------------------------------------------------------------------- text

def write_grid(path, grid: np.ndarray) -> None:
    """Plain-text grid: first line "<width> <height>", then one row per line."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ParameterError(f"grid must be 2-D, got shape {grid.shape}")
    h, w = grid.shape
    lines = [f"{w} {h}"]
    for row in grid:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_grid(path) -> np.ndarray:
    """A ``write_grid`` file at ``path``, a ``Path`` or an ``InputFile``; a
    non-finite cell is refused."""
    lines = [ln for ln in decode_text(path.read_bytes(), path).splitlines() if ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty grid file")
    header = lines[0].split()
    if len(header) != 2:
        raise SchemaError(f"{path}: header must be '<width> <height>', got {lines[0]!r}")
    try:
        w, h = int(header[0]), int(header[1])
    except ValueError:
        raise SchemaError(f"{path}: non-integer dimensions {lines[0]!r}") from None
    if w <= 0 or h <= 0 or len(lines) - 1 != h:
        raise SchemaError(f"{path}: expected {h} rows of width {w}, got {len(lines) - 1} rows")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split()
        if len(cells) != w:
            raise SchemaError(f"{path}: row {i} has {len(cells)} cells, expected {w}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise SchemaError(f"{path}: row {i} holds a non-numeric cell") from None
        if not all(map(math.isfinite, rows[-1])):
            raise SchemaError(f"{path}: row {i} holds a non-finite cell")
    return np.array(rows, dtype=float)


def write_metadata(path, meta: dict) -> None:
    """Sidecar key-value text, one ``key = value`` per line, keys sorted."""
    lines = [f"{k} = {meta[k]}" for k in sorted(meta)]
    Path(path).write_text("\n".join(lines) + "\n")


# the sidecar's key table (see ``ingest.schema.parse_keys``); grids resolve against its directory
SIDECAR_KEYS = {
    "flags_grid": (Path, None),
    "lunar_angle_grid": (Path, None),
    "lunar_fraction": (float, None),
}


def load_raster(grid, meta=None, record=None) -> Raster:
    """The intensity grid ``grid`` with the flags and lunar metadata of sidecar
    ``meta``; the companion grids it names are recorded through ``record``.

    Any nonzero flag marks its pixel. A companion grid of another shape than
    ``grid``, or a lunar fraction outside [0, 1], is refused naming its file.
    """
    intensity = read_grid(grid)
    values = {} if meta is None else read_keyfile(meta, SIDECAR_KEYS, record)
    grids = {k: read_grid(values[k]) for k in ("flags_grid", "lunar_angle_grid") if k in values}
    for key, side in grids.items():
        if side.shape != intensity.shape:
            shapes = f"shape {side.shape} differs from {grid}'s {intensity.shape}"
            raise SchemaError(f"{values[key]}: {shapes}")
    flags, angle = grids.get("flags_grid"), grids.get("lunar_angle_grid")
    fraction = values.get("lunar_fraction")
    if (fraction is None) != (angle is None):
        raise SchemaError(f"{meta}: lunar_fraction and lunar_angle_grid must appear together")
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise SchemaError(f"{meta}: lunar_fraction must lie in [0, 1], got {fraction}")
    return Raster(intensity, None if flags is None else flags != 0, fraction, angle)

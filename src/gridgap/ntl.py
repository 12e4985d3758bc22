"""Night-light raster cleanup: repair, lunar scaling, floor, smoothing.

Grids travel as plain text (width/height header, row-major reals printed
with ``repr``) so outputs round-trip bit-exactly; a sidecar key-value file
(``SIDECAR_KEYS``) names the flag and lunar-angle grids and carries the
lunar illumination fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, SchemaError
from .ingest.schema import decode_text, read_keyfile


@dataclass(frozen=True)
class Raster:
    """Intensity grid with optional quality flags and lunar metadata.

    ``flags`` uses 0 for good pixels; any nonzero value marks a pixel as
    unusable. ``lunar_angle`` is in radians, one value per pixel.
    """

    intensity: np.ndarray
    flags: np.ndarray | None = None
    lunar_fraction: float | None = None
    lunar_angle: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.intensity, dtype=float)
        if grid.ndim != 2 or grid.size == 0:
            raise ParameterError(f"intensity must be a non-empty 2-D grid, got shape {grid.shape}")
        object.__setattr__(self, "intensity", grid)
        if self.flags is not None:
            flags = np.asarray(self.flags, dtype=int)
            if flags.shape != grid.shape:
                raise ParameterError(
                    f"flags shape {flags.shape} != intensity shape {grid.shape}"
                )
            object.__setattr__(self, "flags", flags)
        if self.lunar_angle is not None:
            angle = np.asarray(self.lunar_angle, dtype=float)
            if angle.shape != grid.shape:
                raise ParameterError(
                    f"lunar angle shape {angle.shape} != intensity shape {grid.shape}"
                )
            object.__setattr__(self, "lunar_angle", angle)
        if self.lunar_fraction is not None:
            f = float(self.lunar_fraction)
            if not 0.0 <= f <= 1.0:
                raise ParameterError(f"illumination fraction must lie in [0, 1], got {f}")
            object.__setattr__(self, "lunar_fraction", f)

    @property
    def height(self) -> int:
        return self.intensity.shape[0]

    @property
    def width(self) -> int:
        return self.intensity.shape[1]


@dataclass(frozen=True)
class RepairResult:
    raster: Raster
    repaired: tuple[tuple[int, int], ...]
    isolated: tuple[tuple[int, int], ...]


def repair_pixels(raster: Raster) -> RepairResult:
    """Fill flagged pixels from their good 8-neighborhoods.

    A flagged pixel becomes the mean of its unflagged neighbors; a pixel
    whose whole neighborhood is flagged too has no information left and is
    zeroed, with its coordinates reported. Output flags are all clear.
    """
    grid = raster.intensity
    if raster.flags is None:
        clean = np.zeros(grid.shape, dtype=int)
        out = Raster(grid.copy(), clean, raster.lunar_fraction, raster.lunar_angle)
        return RepairResult(out, (), ())
    bad = raster.flags != 0
    fixed = grid.copy()
    repaired = []
    isolated = []
    h, w = grid.shape
    for r, c in zip(*np.nonzero(bad)):
        total = 0.0
        count = 0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and not bad[rr, cc]:
                    total += grid[rr, cc]
                    count += 1
        if count:
            fixed[r, c] = total / count
            repaired.append((int(r), int(c)))
        else:
            fixed[r, c] = 0.0
            isolated.append((int(r), int(c)))
    out = Raster(fixed, np.zeros(grid.shape, dtype=int), raster.lunar_fraction, raster.lunar_angle)
    return RepairResult(out, tuple(repaired), tuple(isolated))


def lunar_scale(raster: Raster) -> Raster:
    """Divide out moonlight: divisor 1 + fraction * clamp(cos angle, 0, 1).

    A new moon (fraction 0) or a moon below the horizon (cos <= 0) leaves
    the pixel untouched; a full moon overhead halves it.
    """
    if raster.lunar_fraction is None or raster.lunar_angle is None:
        raise SchemaError("raster lacks lunar metadata (fraction and per-pixel angle)")
    factor = np.clip(np.cos(raster.lunar_angle), 0.0, 1.0)
    divisor = 1.0 + raster.lunar_fraction * factor
    return Raster(
        raster.intensity / divisor,
        raster.flags,
        raster.lunar_fraction,
        raster.lunar_angle,
    )


def threshold_floor(raster: Raster, floor: float = 10.0) -> Raster:
    """Zero out pixels strictly below ``floor``; the boundary value stays."""
    if not 0 <= floor < np.inf:
        raise ParameterError(f"floor must be nonnegative and finite, got {floor}")
    grid = raster.intensity.copy()
    grid[grid < floor] = 0.0
    return Raster(grid, raster.flags, raster.lunar_fraction, raster.lunar_angle)


def lowpass_5x5(raster: Raster) -> Raster:
    """Uniform 5x5 mean filter with edge-replication padding.

    The 25 neighbor adds happen in row-major kernel order for every pixel,
    so the result is bit-identical to a scalar double loop that accumulates
    the same way.
    """
    grid = raster.intensity
    h, w = grid.shape
    if h < 5 or w < 5:
        raise ParameterError(f"5x5 filter needs at least a 5x5 grid, got {h}x{w}")
    padded = np.pad(grid, 2, mode="edge")
    acc = np.zeros_like(grid)
    for dr in range(5):
        for dc in range(5):
            acc = acc + padded[dr : dr + h, dc : dc + w]
    return Raster(acc / 25.0, raster.flags, raster.lunar_fraction, raster.lunar_angle)


def process_raster(raster: Raster, floor: float = 10.0, smooth: bool = True) -> RepairResult:
    """Repair, de-moonlight (when metadata exists), floor, then smooth.

    The result holds the final raster and the repair step's pixel lists.
    """
    step = repair_pixels(raster)
    current = step.raster
    if current.lunar_fraction is not None and current.lunar_angle is not None:
        current = lunar_scale(current)
    current = threshold_floor(current, floor)
    if smooth:
        current = lowpass_5x5(current)
    return RepairResult(current, step.repaired, step.isolated)


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
    """A ``write_grid`` file at ``path``, a ``Path`` or an ``InputFile``."""
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
    ``meta``; the companion grids it names are recorded through ``record``."""
    intensity = read_grid(grid)
    values = {} if meta is None else read_keyfile(meta, SIDECAR_KEYS, record)
    flags = read_grid(values["flags_grid"]).astype(int) if "flags_grid" in values else None
    angle = read_grid(values["lunar_angle_grid"]) if "lunar_angle_grid" in values else None
    fraction = values.get("lunar_fraction")
    if (fraction is None) != (angle is None):
        raise SchemaError(f"{meta}: lunar_fraction and lunar_angle_grid must appear together")
    return Raster(intensity, flags, fraction, angle)

"""Snapshot datasets: the analytic gaussian-bump generator and CSV exchange.

Snapshot files hold one state per column.  Layout: a header line
``# n0=<rows> S=<cols>`` followed by ``n0`` rows of ``S`` comma-separated
decimal floats.  Values are written with ``repr`` so a save/load round
trip is bit-exact.  Generating parameters ride along in an optional
sibling ``<name>.params.csv`` with the same column convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataFormatError",
    "SnapshotSet",
    "PGA_GRID_POINTS",
    "gaussian_bump",
    "generate_pga",
    "save_snapshots",
    "load_snapshots",
]

PGA_GRID_POINTS = 514  # uniform grid i/513, i = 0..513, on [0, 1]
_PGA_MU_RANGE = (0.3, 0.7)
_HEADER_RE = re.compile(r"^# n0=(\d+) S=(\d+)\s*$")
# ASCII control bytes other than tab, \n and \r: str.splitlines breaks lines
# at some of them, and np.loadtxt strips some that float() does not
_CONTROL_BYTES = bytes(sorted(set(range(32)) - {9, 10, 13})) + b"\x7f"


class DataFormatError(ValueError):
    """A snapshot file failed to parse or carries invalid values."""


@dataclass(frozen=True)
class SnapshotSet:
    U: np.ndarray
    param_values: np.ndarray | None = None
    source: str = ""

    def __post_init__(self):
        if self.param_values is not None and self.param_values.shape[1] != self.U.shape[1]:
            raise ValueError(
                f"parameter columns {self.param_values.shape[1]} != snapshots {self.U.shape[1]}"
            )


def gaussian_bump(x, mu):
    """Traveling-bump profile ``exp(-400 (x - mu)^2)`` on the unit interval."""
    return np.exp(-400.0 * (np.asarray(x, dtype=np.float64) - mu) ** 2)


def generate_pga(S: int, seed: int) -> SnapshotSet:
    """Sample the parameterized gaussian dataset.

    Each column is the bump profile on the 514-node uniform grid with its
    center drawn uniformly from [0.3, 0.7].
    """
    if S < 1:
        raise ValueError("need at least one sample")
    x = np.arange(PGA_GRID_POINTS, dtype=np.float64) / (PGA_GRID_POINTS - 1)
    mu = np.random.default_rng(seed).uniform(*_PGA_MU_RANGE, size=S)
    U = gaussian_bump(x[:, None], mu[None, :])
    return SnapshotSet(U=U, param_values=mu[None, :].copy(), source=f"pga(S={S}, seed={seed})")


def _params_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".params.csv")


def _write_matrix(path: Path, M: np.ndarray):
    with open(path, "w") as fh:
        fh.write(f"# n0={M.shape[0]} S={M.shape[1]}\n")
        for row in M:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")


def save_snapshots(snapshots: SnapshotSet, path):
    """Write the snapshot CSV (and the params sibling when present)."""
    _write_matrix(Path(path), snapshots.U)
    if snapshots.param_values is not None:
        _write_matrix(_params_path(path), snapshots.param_values)


def _read_matrix(path: Path) -> np.ndarray:
    """The snapshot matrix in ``path``; raises :class:`DataFormatError`."""
    fast = _read_plain_matrix(path)
    return fast if fast is not None else _parse_lines(path)


def _has_control_byte(raw: bytes) -> bool:
    """Whether ``raw`` holds a byte of ``_CONTROL_BYTES``, by one ``translate``
    pass over 64 KiB slices, so that no copy of the whole file is made."""
    step = 1 << 16
    for i in range(0, len(raw), step):
        chunk = raw[i : i + step]
        if len(chunk.translate(None, _CONTROL_BYTES)) != len(chunk):
            return True
    return False


def _read_plain_matrix(path: Path) -> np.ndarray | None:
    """``np.loadtxt``'s reading of a plain file, or None to parse it line by line.

    A plain file holds printable ASCII, tabs and ``\\n``/``\\r`` line
    breaks only, so ``np.loadtxt`` and ``str.splitlines`` see the same lines
    and the same spaces, and starts with a valid header.  The result is
    kept only when it has the header's shape and finite values; numpy's
    float parsing is correctly rounded and accepts no plain cell that
    ``float`` rejects, so whatever passes is bitwise what
    :func:`_parse_lines` returns.  Everything else, errors included, goes
    to :func:`_parse_lines`.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    end = raw.find(b"\n")
    if end < 0 or not raw.isascii() or _has_control_byte(raw):
        return None
    header = _HEADER_RE.match(raw[:end].decode("ascii"))
    del raw
    if header is None:
        return None
    n0, S = int(header.group(1)), int(header.group(2))
    if n0 == 0:  # np.loadtxt warns on a file without data
        return None
    try:
        M = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except (ValueError, OSError):
        return None
    return M if M.shape == (n0, S) and np.all(np.isfinite(M)) else None


def _parse_lines(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise DataFormatError(
            f"{path}:1: expected header '# n0=<int> S=<int>', got {lines[0]!r}"
        )
    n0, S = int(header.group(1)), int(header.group(2))
    # (line number in the file, text) of each non-blank body line
    body = [(number, line) for number, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != n0:
        raise DataFormatError(
            f"{path}: header promises n0={n0} rows, found {len(body)}"
        )
    # Nothing is allocated on the header's word: it may promise more than the file holds.
    rows = []
    for number, line in body:
        cells = line.split(",")
        if len(cells) != S:
            raise DataFormatError(
                f"{path}:{number}: expected {S} columns, found {len(cells)}"
            )
        try:
            rows.append(np.array([float(c) for c in cells]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{number}: {exc}") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise DataFormatError(f"{path}:{number}: non-finite value")
    return np.array(rows).reshape(n0, S)


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot CSV; picks up the params sibling when it exists.

    Raises :class:`DataFormatError` naming both files when the sibling's
    column count differs from the snapshot count.
    """
    path = Path(path)
    U = _read_matrix(path)
    params_file = _params_path(path)
    params = _read_matrix(params_file) if params_file.exists() else None
    try:
        return SnapshotSet(U=U, param_values=params, source=str(path))
    except ValueError as exc:
        raise DataFormatError(f"{params_file} does not match {path}: {exc}") from None

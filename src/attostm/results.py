"""Scan containers and deterministic CSV/JSON serialization.

CSV layout: '#'-prefixed metadata comment lines, a header row, then rows
with full round-trip float precision. Every scan is written as a CSV/JSON
pair whose file names embed the scan kind and a config hash, and whose
metadata suffices to re-run the scan bit-identically.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import JunctionConfig, LaserConfig
from .grid import AbsorberSpec, GridSpec
from .solver import WaveState


@dataclass(frozen=True)
class ScanResult:
    """One observable tabulated against one swept parameter."""

    swept_parameter: str
    swept_unit: str
    values: np.ndarray
    observable: str
    observable_unit: str
    results: np.ndarray
    metadata: dict = field(default_factory=dict)
    extra_columns: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        r = np.asarray(self.results, dtype=float)
        if v.ndim != 1 or r.shape != v.shape:
            raise ValueError("values and results must be 1-D of equal length")
        dv = np.diff(v)
        if v.size > 1 and not (np.all(dv > 0) or np.all(dv < 0)):
            raise ValueError("swept values must be strictly monotone")
        for name, col in self.extra_columns.items():
            if np.asarray(col).shape != v.shape:
                raise ValueError(f"extra column {name!r} length mismatch")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "results", r)


# snapshot key -> config class, in the order of config_snapshot's arguments
_SNAPSHOT_PARTS = {"junction": JunctionConfig, "laser": LaserConfig,
                   "grid": GridSpec, "absorber": AbsorberSpec}


def config_snapshot(cfg=None, laser=None, grid=None, absorber=None,
                    **extra) -> dict:
    """JSON-ready snapshot of the configs given, then the code version and
    the `extra` entries; configs_from_snapshot is its inverse."""
    parts = zip(_SNAPSHOT_PARTS, (cfg, laser, grid, absorber))
    snap = {key: asdict(part) for key, part in parts if part is not None}
    if grid is not None and absorber is None:
        snap["absorber"] = None  # a grid's run records that it had none
    return dict(snap, code_version=__version__, **extra)


def configs_from_snapshot(snap: dict):
    """(junction, laser, grid, absorber) of a config_snapshot, None for
    each part it does not hold."""
    return tuple(cls(**snap[key]) if snap.get(key) else None
                 for key, cls in _SNAPSHOT_PARTS.items())


def config_hash(metadata: dict) -> str:
    """Short deterministic hash of a metadata snapshot; volatile bookkeeping
    (wall time) is excluded so identical configs hash identically."""
    stable = {k: v for k, v in metadata.items() if k != "wall_time_s"}
    blob = json.dumps(stable, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path, columns: dict, comments: dict | None = None) -> None:
    """Comma-separated table with '#' metadata comments and repr floats;
    creates the parent directory."""
    path = Path(path)
    lines = []
    for key, val in (comments or {}).items():
        lines.append(f"# {key}: {val}")
    names = list(columns)
    cols = [np.asarray(columns[n]) for n in names]
    lines.append(",".join(names))
    for i in range(cols[0].shape[0]):
        lines.append(",".join(_fmt(c[i]) for c in cols))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv: (columns dict, comments dict)."""
    comments, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            comments[key.strip()] = val.strip()
        elif header is None:
            header = [h.strip() for h in line.split(",")]
        elif line.strip():
            rows.append([float(x) for x in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    return {h: data[:, i] for i, h in enumerate(header)}, comments


def write_json(path, payload: dict) -> None:
    """Sorted, indented JSON; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def save_scan(scan: ScanResult, out_dir) -> tuple[Path, Path]:
    """Write the CSV/JSON pair; returns (csv_path, json_path)."""
    out_dir = Path(out_dir)
    kind = scan.metadata.get("kind", "scan")
    h = config_hash(scan.metadata)
    stem = f"{kind}_{h}"
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    columns = {f"{scan.swept_parameter}_{scan.swept_unit}": scan.values}
    columns.update(scan.extra_columns)
    columns[f"{scan.observable}_{scan.observable_unit}"] = scan.results
    write_csv(csv_path, columns, comments={"scan": kind, "config_hash": h,
                                           "code_version": __version__})
    write_json(json_path, {"metadata": scan.metadata,
                           "swept_parameter": scan.swept_parameter,
                           "swept_unit": scan.swept_unit,
                           "observable": scan.observable,
                           "observable_unit": scan.observable_unit,
                           "config_hash": h,
                           "code_version": __version__})
    return csv_path, json_path


def record_to_csv(record, path, comments: dict | None = None) -> None:
    """Current record as (time_fs, j_per_fs) columns."""
    base = {"probe_z_nm": repr(float(record.probe_z))}
    base.update(comments or {})
    write_csv(path, {"time_fs": record.times,
                     "j_per_fs": record.current_density}, base)


def state_to_json(state, path) -> None:
    """Binary-free wavefunction snapshot: grid metadata plus re/im pairs."""
    payload = {
        "grid": config_snapshot(grid=state.grid)["grid"],
        "time_fs": state.time,
        "energy_eV": state.energy,
        "psi": np.stack([state.psi.real, state.psi.imag], axis=1),
    }
    write_json(path, payload)


def state_from_json(path):
    payload = json.loads(Path(path).read_text())
    grid = configs_from_snapshot(payload)[2]
    pairs = np.asarray(payload["psi"])
    psi = pairs[:, 0] + 1j * pairs[:, 1]
    return WaveState(grid, psi, payload["time_fs"], payload.get("energy_eV"))

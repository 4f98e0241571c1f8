"""Scan containers and deterministic CSV/JSON serialization.

CSV layout: '#'-prefixed metadata comment lines, a header row, then rows
with full round-trip float precision. Every scan is written as a CSV/JSON
pair whose file names embed the scan kind and a config hash, and whose
metadata suffices to re-run the scan bit-identically.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import JunctionConfig, LaserConfig
from .grid import AbsorberSpec, GridSpec


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
                   "grid": GridSpec}


def config_snapshot(cfg=None, laser=None, grid=None, **extra) -> dict:
    """JSON-ready snapshot of the configs given, then the code version and
    the `extra` entries; configs_from_snapshot is its inverse. A grid's
    absorber nests under it, None for none."""
    parts = zip(_SNAPSHOT_PARTS, (cfg, laser, grid))
    snap = {key: asdict(part) for key, part in parts if part is not None}
    return dict(snap, code_version=__version__, **extra)


def configs_from_snapshot(snap: dict):
    """(junction, laser, grid) of a config_snapshot, None for each part it
    does not hold. A key its class no longer has, or the top-level absorber
    of a snapshot older than the grid's, raises ValueError naming it and
    the snapshot's version, so that no scan reruns without its absorber."""
    grid = dict(snap.get("grid") or {})
    sections = [(key, snap.get(key), cls) for key, cls in _SNAPSHOT_PARTS.items()]
    sections.append(("grid.absorber", grid.get("absorber"), AbsorberSpec))
    stale = ["absorber"] if "absorber" in snap else []
    for key, data, cls in sections:
        known = {f.name for f in fields(cls)}
        stale += [f"{key}.{name}" for name in sorted(set(data or ()) - known)]
    if stale:
        raise ValueError(
            f"snapshot key {stale[0]} is not read by attostm {__version__}; "
            f"the snapshot was written by code_version "
            f"{snap.get('code_version')!r}")
    if grid.get("absorber"):
        grid["absorber"] = AbsorberSpec(**grid["absorber"])
    parts = (snap.get("junction"), snap.get("laser"), grid)
    return tuple(cls(**part) if part else None
                 for cls, part in zip(_SNAPSHOT_PARTS.values(), parts))


def config_hash(metadata: dict) -> str:
    """Short deterministic hash of a metadata snapshot; volatile bookkeeping
    (wall time) is excluded so identical configs hash identically."""
    stable = {k: v for k, v in metadata.items() if k != "wall_time_s"}
    blob = json.dumps(stable, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


# rows of a table that write_csv stacks at a time
_CSV_ROWS = 256


def write_csv(path, columns: dict, comments: dict | None = None) -> None:
    """Comma-separated table with '#' metadata comments and repr floats;
    creates the parent directory. Columns of unequal length raise
    ValueError."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    for name, col in zip(names, arrays):
        if len(col) != len(arrays[0]):
            raise ValueError(f"column {name!r} has {len(col)} rows, column "
                             f"{names[0]!r} has {len(arrays[0])}")
    path.parent.mkdir(parents=True, exist_ok=True)
    # row by row from blocks of _CSV_ROWS rows: the whole table as Python
    # floats, as one string or as one stacked array would take several
    # times the memory of its columns
    with path.open("w") as fh:
        for key, val in (comments or {}).items():
            fh.write(f"# {key}: {val}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(arrays[0]), _CSV_ROWS):
            block = np.column_stack([a[lo:lo + _CSV_ROWS] for a in arrays])
            for row in block:
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_csv(path):
    """Inverse of write_csv: (columns dict, comments dict); a row that is
    not one number per header cell is a ValueError naming its line."""
    comments, header, rows = {}, None, []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            comments[key.strip()] = val.strip()
        elif header is None:
            header = [h.strip() for h in line.split(",")]
        elif line.strip():
            cells = line.split(",")
            try:
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, the header has "
                                     f"{len(header)}")
                rows.append([float(x) for x in cells])
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
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
        "code_version": __version__,
        "time_fs": state.time,
        "energy_eV": state.energy,
        "psi": np.stack([state.psi.real, state.psi.imag], axis=1),
    }
    write_json(path, payload)

"""Parameter sweeps over the solver and strong-field model.

Every sweep point owns its propagations; points run one after another in
parameter order, and results are returned in that order. A net current
pairs a waveform with its negation (LaserConfig.flipped), which by parity
carries the sample -> tip transport. The two halves of a pair run at the
same time, the negation in a child forked by _fork.run_pair, so this
module needs a platform with os.fork: once per point in the TDSE scans
(_wall_charges), once per scan in delay_scan_strongfield. ScanResult
metadata snapshots all inputs for exact re-runs.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._fork import LostRunError, run_pair
from .config import JunctionConfig, LaserConfig
from .grid import GridSpec
from .kernels import SolverError
from .laser import _parabolic_refine, field_crest_time, pulse_onset
from .results import ScanResult, config_snapshot, configs_from_snapshot
from .solver import (CurrentRecord, initial_state, propagate,
                     transferred_charge)
from . import strongfield


class BurstError(ValueError):
    """No burst stands out of the noise floor."""


class DirectionalityError(ValueError):
    """A direction's transferred charge is negative, so Delta would leave
    [0, 1]."""


@dataclass(frozen=True)
class BurstMetrics:
    """Main current burst at a probe: duration and timing in attoseconds."""

    fwhm: float          # as
    peak_time: float     # as, relative to the field crest
    peak_height: float   # 1/fs

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ValueError("fwhm must be positive")


def burst_metrics(record: CurrentRecord, *, crest_time: float,
                  cycle_fs: float) -> BurstMetrics:
    """FWHM and timing of the main burst (largest |j| within one optical
    cycle of the field crest), half-maximum crossings linearly interpolated.

    The noise floor is the RMS of the leading 5% of the record (pre-pulse);
    a peak below 10x that floor raises BurstError.
    """
    t = record.times
    j = record.current_density
    window = np.abs(t - crest_time) <= cycle_fs
    if not np.any(window):
        raise BurstError("record does not cover the field crest")
    floor = float(np.sqrt(np.mean(j[: max(2, j.size // 20)] ** 2)))
    aj = np.abs(j)
    iw = np.nonzero(window)[0]
    ipk = iw[np.argmax(aj[iw])]
    peak = aj[ipk]
    if peak < 10.0 * floor:
        raise BurstError(f"peak {peak:.3e} below 10x noise floor {floor:.3e}")
    half = 0.5 * peak
    lo = ipk
    while lo > 0 and aj[lo - 1] >= half:
        lo -= 1
    hi = ipk
    while hi < aj.size - 1 and aj[hi + 1] >= half:
        hi += 1
    if lo == 0 or hi == aj.size - 1:
        raise BurstError("half-maximum crossings fall outside the record")
    t_lo = np.interp(half, [aj[lo - 1], aj[lo]], [t[lo - 1], t[lo]])
    t_hi = np.interp(half, [aj[hi + 1], aj[hi]], [t[hi + 1], t[hi]])
    tpk = _parabolic_refine(t, aj, ipk)
    return BurstMetrics(fwhm=float((t_hi - t_lo) * 1e3),
                        peak_time=float((tpk - crest_time) * 1e3),
                        peak_height=float(peak))


def default_time_span(laser: LaserConfig, *, burst_only: bool = False):
    """(t_start, t_end) in fs: start at the pulse onset (`pulse_onset`,
    the first colour's envelope at ONSET_LEVEL of its amplitude); end
    2.5 max(tau1, tau2) after zero, when the last current has cleared, or
    10 fs past the field crest for burst runs."""
    t0 = pulse_onset(laser)
    if burst_only:
        return t0, field_crest_time(laser) + 10.0
    return t0, 2.5 * max(laser.duration_tau1, laser.duration_tau2)


def _wall_charges(cfg, laser, grid, *,
                  initial=None) -> list[tuple[float, float]]:
    """[(Q(0), Q(d)) under laser, (Q(0), Q(d)) under its negation]: each
    run's signed transferred charge through the tip wall z = 0 and the
    sample wall z = d.

    The initial state, built here unless given, serves both runs. The run
    under the negation steps in a child forked by _fork.run_pair while
    this process steps the run under laser; the child's exception and
    warnings reach the caller, and a child that dies without a result
    raises SolverError.
    """
    t0, t1 = default_time_span(laser)
    if initial is None:
        initial = initial_state(cfg, grid)

    def charges(las):
        res = propagate(cfg, las, grid, t0, t1, probes=(0.0, None),
                        initial=initial)
        return (transferred_charge(res.records[0]),
                transferred_charge(res.records[1]))

    return run_pair(charges, laser, laser.flipped(),
                    theirs_name="the run under the negated waveform",
                    lost=SolverError)


def net_delay_charge(cfg, laser, grid, *, initial=None) -> float:
    """Net laser-induced charge per pulse: tip->sample minus sample->tip.

    Both electrodes carry a Fermi sea; in the symmetric zero-bias junction
    the sample electron's transport is, by parity, the tip run under the
    negated waveform. Each run's transferred charge is averaged over the
    two junction walls. By continuity Q(0) - Q(d) is the change of the gap
    population over the run, so the two walls can disagree by that much,
    which may exceed the transfer itself.

    This is what the experiment's delay scans measure: symmetric around
    zero over a delay period and sign-inverting under waveform flip.
    Single-electrode quantities (the Fig-4c-style bursts) use one run.
    """
    (q0p, qdp), (q0m, qdm) = _wall_charges(cfg, laser, grid, initial=initial)
    return 0.5 * (q0p + qdp) - 0.5 * (q0m + qdm)


# swept parameter -> (unit, the (junction, laser) pair at value v): the
# robustness parameters and the power, width and ratio scans' axes
ROBUSTNESS_PARAMETERS = {
    "field": ("V_per_nm", lambda c, l, v: (c, replace(l, field_F1=float(v)))),
    "ratio": ("dimensionless",
              lambda c, l, v: (c, replace(l, ratio_eta=float(np.sqrt(v))))),
    "width": ("nm", lambda c, l, v: (replace(c, width_d=float(v)), l)),
    "workfunction": ("eV",
                     lambda c, l, v: (replace(c, workfunction_tip=float(v)), l)),
}


def _sweep_points(parameter, cfg, laser, values):
    """The (junction, laser) pair of every swept value, all built (and so
    validated) before the first point is computed. An unknown parameter
    raises ValueError, and so does an invalid point, naming the parameter
    and the value."""
    if parameter not in ROBUSTNESS_PARAMETERS:
        raise ValueError(f"parameter must be one of {tuple(ROBUSTNESS_PARAMETERS)}")
    vary = ROBUSTNESS_PARAMETERS[parameter][1]
    points = []
    for v in values:
        try:
            points.append(vary(cfg, laser, v))
        except ValueError as exc:
            raise ValueError(f"{parameter} = {v}: {exc}") from None
    return points


def delay_scan_tdse(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
                    tau0_values) -> ScanResult:
    """Net laser-induced charge versus two-colour base delay."""
    tau0_values = np.asarray(tau0_values, dtype=float)
    shared = initial_state(cfg, grid)
    charges = [net_delay_charge(cfg, replace(laser, base_delay_tau0=float(tau0)),
                                grid, initial=shared)
               for tau0 in tau0_values]
    return ScanResult("tau0", "fs", tau0_values, "net_charge", "electrons",
                      np.asarray(charges),
                      config_snapshot(cfg, laser, grid, kind="delay",
                                      tau0_values=tau0_values.tolist()))


def modulation_amplitude(cfg, laser, grid, *, n_delays: int = 12) -> float:
    """Half the peak-to-peak of a one-SH-period delay scan."""
    taus = np.arange(n_delays) * (laser.sh_period / n_delays)
    scan = delay_scan_tdse(cfg, laser, grid, taus)
    return float(0.5 * (np.max(scan.results) - np.min(scan.results)))


def power_scan(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
               field_values, *, enhancement: float = 1.0,
               n_delays: int = 12) -> ScanResult:
    """Two-colour modulation amplitude versus field strength, with an
    equivalent incident-power axis (F1/enhancement)^2, enhancement the
    fundamental's near-field enhancement factor."""
    field_values = np.asarray(field_values, dtype=float)
    amps = [modulation_amplitude(c, l, grid, n_delays=n_delays)
            for c, l in _sweep_points("field", cfg, laser, field_values)]
    power = (field_values / enhancement) ** 2
    return ScanResult(
        "field_F1", "V_per_nm", field_values, "modulation_amplitude",
        "electrons", np.asarray(amps),
        config_snapshot(cfg, laser, grid, kind="power",
                        field_values=field_values.tolist(),
                        enhancement_fund=enhancement, n_delays=n_delays),
        extra_columns={"power_equiv": power})


def loglog_slopes(power, amplitude) -> np.ndarray:
    """Pairwise log-log slopes d ln A / d ln P between consecutive points."""
    lp, la = np.log(power), np.log(amplitude)
    return np.diff(la) / np.diff(lp)


def width_scan(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
               d_values, *, n_delays: int = 12) -> ScanResult:
    """Modulation amplitude versus junction width at fixed field, with a
    least-squares exponential fit A0 exp(-d/L) in the metadata."""
    d_values = np.asarray(d_values, dtype=float)
    amps = np.asarray(
        [modulation_amplitude(c, l, grid, n_delays=n_delays)
         for c, l in _sweep_points("width", cfg, laser, d_values)])
    fit = exponential_fit(d_values, amps)
    return ScanResult(
        "width_d", "nm", d_values, "modulation_amplitude", "electrons", amps,
        config_snapshot(cfg, laser, grid, kind="width",
                        d_values=d_values.tolist(), n_delays=n_delays, fit=fit))


def exponential_fit(x, y) -> dict:
    """Linear least squares on ln y = ln A0 - x/L; returns A0, L, R^2.
    L is None when the amplitudes do not decay, and all three are None
    when an amplitude is not positive, so that a fit writes as strict
    JSON."""
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0):
        return dict.fromkeys(("amplitude", "decay_length", "r_squared"))
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * np.asarray(x) + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    return {"amplitude": float(np.exp(intercept)),
            "decay_length": float(-1.0 / slope) if slope < 0 else None,
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0}


def directionality(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
                   ratio_values) -> ScanResult:
    """Directionality Delta = |(J+ - J-)/(J+ + J-)| versus SH/fundamental
    intensity ratio (eta = sqrt(ratio)).

    J+ and J- are the charges that reach the sample wall z = d in the run
    under the pulse (tip->sample) and under its negation (sample->tip, by
    parity). The wall average of net_delay_charge is not used: it
    carries the change of gap population, which can push Delta above 1.
    A negative J+ or J- means charge flowed back through the sample wall,
    as amplitude reflected from the sample-side grid end does; it raises
    DirectionalityError, so a returned Delta lies in [0, 1].

    Delta ~ 0 for a single colour only when the pulse is symmetric under
    negation, i.e. multi-cycle: a sub-cycle fundamental differs from its
    negation and gives a large Delta on its own. A sign-split of one run's
    instantaneous boundary current is no substitute: it gives Delta = 0.6
    for a symmetric single-colour pulse (one-sided emission) while the net
    current's split never saturates.
    """
    ratio_values = np.asarray(ratio_values, dtype=float)
    points = _sweep_points("ratio", cfg, laser, ratio_values)
    shared = initial_state(cfg, grid)

    def one(ratio, las):
        (_, jp), (_, jm) = _wall_charges(cfg, las, grid, initial=shared)
        for direction, q in (("tip->sample", jp), ("sample->tip", jm)):
            if q < 0.0:
                raise DirectionalityError(
                    f"{direction} charge at the sample wall is {q:.3e} < 0 "
                    f"at intensity ratio {ratio:g}: charge flowed back from "
                    "the sample-side grid end (reflection risk); widen the "
                    "grid or use the desk preset, whose grid carries an "
                    "absorber")
        return abs(jp - jm) / (jp + jm) if jp + jm > 0 else 0.0

    deltas = [one(ratio, las) for ratio, (_, las) in zip(ratio_values, points)]
    return ScanResult("intensity_ratio", "dimensionless", ratio_values,
                      "directionality", "dimensionless", np.asarray(deltas),
                      config_snapshot(cfg, laser, grid, kind="ratio",
                                      ratio_values=ratio_values.tolist()))


def robustness_sweep(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
                     values, *, parameter: str = "field") -> ScanResult:
    """Burst FWHM at the vacuum-sample boundary versus one parameter
    around the anchor point (field / intensity ratio / width / tip
    workfunction)."""
    values = np.asarray(values, dtype=float)
    points = _sweep_points(parameter, cfg, laser, values)
    unit = ROBUSTNESS_PARAMETERS[parameter][0]

    def one(c, l):
        t0, t1 = default_time_span(l, burst_only=True)
        res = propagate(c, l, grid, t0, t1, probes=(None,))
        bm = burst_metrics(res.records[0], crest_time=field_crest_time(l),
                           cycle_fs=2.0 * np.pi / l.omega)
        return bm.fwhm

    fwhms = [one(c, l) for c, l in points]
    return ScanResult(parameter, unit, values, "burst_fwhm", "as",
                      np.asarray(fwhms),
                      config_snapshot(cfg, laser, grid, kind="robustness",
                                      parameter=parameter,
                                      values=values.tolist()))


def delay_scan_strongfield(cfg: JunctionConfig, laser: LaserConfig,
                           tau0_values, *, energies=None) -> ScanResult:
    """Net directional weight of the strong-field model versus two-colour
    delay: strongfield.directional_weight under each pulse (tip -> sample)
    minus under its negation (sample -> tip), over the final energies
    `energies` (eV, by default strongfield.DEFAULT_ENERGIES), normalised
    by its peak magnitude (the prefactor eta = 1 leaves absolute
    magnitudes undefined). The negated batch runs in a child forked by
    _fork.run_pair; a child that dies without a result raises LostRunError.
    """
    tau0_values = np.asarray(tau0_values, dtype=float)
    energies = strongfield.DEFAULT_ENERGIES if energies is None \
        else np.asarray(energies, dtype=float)
    lasers = [replace(laser, base_delay_tau0=float(tau0))
              for tau0 in tau0_values]

    def weights(batch):
        # through the module, so that a wrapped directional_weight is called
        return strongfield.directional_weight(batch, cfg, energies)

    forward, backward = run_pair(
        weights, lasers, [las.flipped() for las in lasers],
        theirs_name="the backward (sample -> tip) run", lost=LostRunError)
    net = forward - backward
    peak = np.max(np.abs(net))
    return ScanResult("tau0", "fs", tau0_values, "net_directional_weight",
                      "normalized", net / peak if peak > 0 else net,
                      config_snapshot(cfg, laser, kind="delay_sf",
                                      tau0_values=tau0_values.tolist(),
                                      energies_eV=energies.tolist()))


class ScanKind(NamedTuple):
    """How `attostm scan` and rerun_from_metadata call one scan kind."""
    function: str    # name in this module, looked up at call time
    swept: str       # keyword of the swept values, also their metadata key
    # scan-section key, also its metadata key -> (keyword, YAML type)
    options: dict
    tdse: bool = True  # takes a grid, which carries any absorber
    net: bool = True  # a net current: sample -> tip is the flipped laser
    # the ROBUSTNESS_PARAMETERS key the swept values set, if any; a
    # robustness sweep's parameter option, when given, takes its place
    axis: str | None = None


SCAN_KINDS = {
    "delay": ScanKind("delay_scan_tdse", "tau0_values", {}),
    "power": ScanKind("power_scan", "field_values",
                      {"enhancement_fund": ("enhancement", float),
                       "n_delays": ("n_delays", int)}, axis="field"),
    "width": ScanKind("width_scan", "d_values",
                      {"n_delays": ("n_delays", int)}, axis="width"),
    "ratio": ScanKind("directionality", "ratio_values", {}, axis="ratio"),
    "robustness": ScanKind("robustness_sweep", "values",
                           {"parameter": ("parameter", str)}, net=False,
                           axis="field"),
    "delay_sf": ScanKind("delay_scan_strongfield", "tau0_values",
                         {"energies_eV": ("energies", [float])}, tdse=False),
}


def check_sweep(kind: str, cfg: JunctionConfig, laser: LaserConfig, values,
                **options) -> None:
    """The checks scan `kind` makes before it computes, with the options
    run_scan would pass: ValueError for an unknown robustness parameter, a
    swept value the junction or laser refuses, or a strong-field energy
    grid directional_weight refuses (named as its scan key,
    scan.energies_eV)."""
    parameter = options.get("parameter", SCAN_KINDS[kind].axis)
    if parameter is not None:
        _sweep_points(parameter, cfg, laser, values)
    if "energies" in options:
        strongfield.check_energies(options["energies"], "scan.energies_eV")


def run_scan(kind: str, cfg: JunctionConfig, laser: LaserConfig, grid,
             values, **options) -> ScanResult:
    """Run scan `kind` of SCAN_KINDS over `values` with `options`, keywords
    that SCAN_KINDS[kind].options maps to."""
    spec = SCAN_KINDS[kind]
    if spec.tdse:
        options["grid"] = grid
    # through the module namespace, so that a wrapped function is called
    return globals()[spec.function](cfg=cfg, laser=laser,
                                    **{spec.swept: values}, **options)


def rerun_from_metadata(scan: ScanResult) -> ScanResult:
    """Re-execute a scan from its own metadata snapshot."""
    md = scan.metadata
    spec = SCAN_KINDS.get(md["kind"])
    if spec is None:
        raise ValueError(f"unknown scan kind {md['kind']!r}")
    cfg, laser, grid = configs_from_snapshot(md)
    options = {keyword: md[key] for key, (keyword, _) in spec.options.items()}
    return run_scan(md["kind"], cfg, laser, grid, md[spec.swept], **options)

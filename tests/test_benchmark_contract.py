"""What the benchmark under perfbench/ needs from the package: the
functions its tracer wraps, the names its runner and workloads import, and
the propagation.json keys its desk check reads. The benchmark's files are
only read here."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest
import yaml

from attostm import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("span, target", sorted(_tracing_targets().items()))
def test_every_traced_function_resolves(span, target):
    module, attribute, _ = target
    assert callable(getattr(importlib.import_module(module), attribute)), span


def test_names_the_benchmark_imports_resolve():
    imported = set()
    for name in ("run.py", "workloads.py"):
        text = (PERFBENCH / name).read_text()
        for module, names in re.findall(
                r"^\s*from (attostm[\w.]*) import ([\w, ]+)$", text, re.M):
            imported |= {(module, n.strip()) for n in names.split(",")}
    assert ("attostm.kernels", "default_backend_name") in imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_propagation_sidecar_keeps_the_keys_the_benchmark_reads(tmp_path):
    text = (PERFBENCH / "workloads.py").read_text()
    desk_check = re.search(r"^def desk_check\(.*?(?=^def )", text,
                           re.M | re.S).group(0)
    read = set(re.findall(r'side\["(\w+)"\]', desk_check))
    assert "backend" in read
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({
        "junction": {"width_nm": 1.0},
        "laser": {"field_V_per_nm": 7.0, "duration_fund_fwhm_fs": 4.0,
                  "duration_sh_fwhm_fs": 5.0},
        "grid": {"preset": "desk", "z_min_nm": -20.0, "z_max_nm": 20.0},
        "propagate": {"t_start_fs": -25.0, "t_end_fs": -24.0},
    }))
    out = tmp_path / "prop"
    assert cli.main(["propagate", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    assert read <= json.loads((out / "propagation.json").read_text()).keys()

"""Golden digests: the sha256 of every output of a fixed list of command-line
runs, compared with the committed table ``golden_digests.json``.

Each case runs in-process through ``csit.cli.main`` into a directory of its
own.  Every file the run writes is hashed; a manifest is hashed with its
``created_utc`` and ``duration_seconds`` removed and the run's directory
replaced by ``<root>``, so only what the run computed enters its digest.
The bits depend on numpy's pocketfft and on the C library's ``exp``,
``cexp``, ``csin``, ``ccos`` and ``sin``, so the table records the numpy
version and the platform it was made on; on any other, each case is skipped
with both named.

A change that moves bits on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden.py --regenerate

which prints every digest that moved, appeared or went.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from csit.cli import main

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden_digests.json"
CALIBRATION = HERE.parent / "calibration"

# the volatile fields of a manifest
_RUN_FIELDS = ("created_utc", "duration_seconds")


def _series_csv(path: Path, n: int = 4096) -> None:
    """An ``(x, value)`` input of ``n`` rows on [0, 2*pi), cells written by ``repr``."""
    dx = 2.0 * math.pi / n
    rows = [f"{j * dx!r},{math.sin(j * dx) + 0.25 * math.cos(7 * j * dx + 0.5)!r}" for j in range(n)]
    path.write_text("x,value\n" + "\n".join(rows) + "\n")


def _advect(scheme: str):
    return lambda root, out: ["advect", "--scheme", scheme, "--out-dir", str(out)]


def _transform(mode: str):
    def argv(root: Path, out: Path) -> list[str]:
        src = root / "series.csv"
        if not src.exists():
            _series_csv(src)
        return ["transform", str(src), "--mode", mode, "--H", "0.003", "--Z", "0.002",
                "--out", str(out / "transform.csv")]
    return argv


def _replay(scheme: str):
    manifest = str(CALIBRATION / f"advect_{scheme}" / "manifest.json")
    return lambda root, out: ["replay", manifest, "--out-dir", str(out)]


# case name -> argv(root, out): the run writes into ``out``; ``root`` holds inputs
CASES = {
    **{f"advect_{scheme}": _advect(scheme) for scheme in ("csit", "fd", "pseudospectral")},
    "ifreq_chirp": lambda root, out: ["ifreq", "--demo", "chirp", "--out", str(out / "ifreq.csv")],
    "ifreq_chirp_fd": lambda root, out: ["ifreq", "--demo", "chirp", "--backend", "fd",
                                         "--out", str(out / "ifreq.csv")],
    "ifreq_chirp_midpoint": lambda root, out: [
        "ifreq", "--demo", "chirp", "--n", "4097", "--n-eta", "6", "--n-tau", "5",
        "--rule", "midpoint", "--out", str(out / "ifreq.csv")],
    "transform_quadrature": _transform("quadrature"),
    "transform_symbol": _transform("symbol"),
    "derive_logistic": lambda root, out: ["derive", "--demo", "logistic", "--out", str(out / "derive.csv")],
    "symbol": lambda root, out: ["symbol", "--out", str(out / "symbol.csv")],
    "table1": lambda root, out: ["table1", "--out", str(out / "table1.csv")],
    **{f"replay_advect_{scheme}": _replay(scheme) for scheme in ("csit", "fd", "pseudospectral")},
}


def environment() -> dict:
    """What the digests depend on beyond the package: numpy and the platform."""
    libc = " ".join(part for part in platform.libc_ver() if part)
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()} {libc}".strip()}


def _digest(path: Path, root: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json" or path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        for key in _RUN_FIELDS:
            manifest.pop(key)
        data = json.dumps(manifest, indent=2).replace(str(root), "<root>").encode()
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, root: Path) -> dict[str, str]:
    """Run case ``name`` under ``root``: ``{"name/file": sha256}`` of every file it wrote."""
    root = root.resolve()
    out = root / name
    argv = CASES[name](root, out)
    code = main(argv)
    assert code == 0, f"{name}: csit {' '.join(argv)} exited {code}"
    return {f"{name}/{path.name}": _digest(path, root) for path in sorted(out.iterdir())}


def _table() -> dict:
    return json.loads(TABLE.read_text())


def test_table_lists_only_known_cases():
    assert sorted({key.split("/")[0] for key in _table()["digests"]}) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_table(name, tmp_path):
    table = _table()
    if table["made_on"] != environment():
        pytest.skip(f"digests made on {table['made_on']}, this is {environment()}")
    got = run_case(name, tmp_path)
    want = {key: value for key, value in table["digests"].items() if key.split("/")[0] == name}
    moved = sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))
    assert not moved, f"outputs that differ from {TABLE.name}: {moved}"


def regenerate() -> None:
    """Rewrite the table from this tree and print each digest that changed."""
    old = _table()["digests"] if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: value for name in CASES for key, value in run_case(name, Path(tmp)).items()}
    for key in sorted(old.keys() | digests.keys()):
        if key not in old:
            print(f"new    {key}")
        elif key not in digests:
            print(f"gone   {key}")
        elif old[key] != digests[key]:
            print(f"moved  {key}")
    TABLE.write_text(json.dumps({"made_on": environment(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regenerate", action="store_true", help="rewrite the table from this tree")
    if not parser.parse_args().regenerate:
        parser.error("nothing to do; run the comparison under pytest")
    regenerate()

"""Golden outputs: every CLI subcommand at a tiny config, and ``mc`` in
JSON form, byte for byte.

Each subcommand runs in its own process with BLAS threads pinned to 1,
once on two workers and once on one. The SHA-256 digest of every file it
writes must equal the recorded one; ``config.txt`` is hashed without an
``outdir`` line, which older trees wrote and which named the temporary
directory, and with the worker count it echoes read as the recorded two. A refactor that changes any
floating-point operation or its order shows up here.

The digests hold on one kernel path: the core numpy's bundled OpenBLAS
picks for the CPU, and numpy's dispatch targets. ``kernel_path()`` names
it, with the thread count OpenBLAS runs with.

Run this file as a script to print the kernel path and, for each file whose
digest differs from ``GOLDEN``, the recorded and the current digest::

    PYTHONPATH=src python tests/test_golden.py [--parent PATH]

With ``--parent`` every case also runs on the ``src/`` of the checkout at
PATH, and each file that differs between the two trees is summarised: how
many cells changed, in which columns, and the worst change relative to the
parent's value.
"""

import argparse
import ctypes
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    "run",
    "sweep",
    "mc",
    "sparsity",
    "astringency",
    "beta-sweep",
    "weights",
    "spectrum",
)

# Each case is a subcommand, then any flags it takes beyond FLAGS.
CASES = COMMANDS + ("mc --format json",)

HALF_PI = "1.5707963267948966"

FLAGS = [
    "--n", "20",
    "--len-adev", "8",
    "--len-train", "40",
    "--len-test", "10",
    "--lambda-grid", "1,4",
    "--rho-grid", "0.3,1.5",
    "--trials", "2",
    "--density-grid", "0.1,0.3",
    f"--beta-grid=-{HALF_PI},0,{HALF_PI}",
    "--weight-inits", "1,1;5,1",
    f"--weight-betas=-{HALF_PI},0",
    "--bins", "5",
    "--k-max", "5",
    "--length", "64",
]

GOLDEN = {
    "astringency": {
        "aggregates.csv": "5a1509311e536f4768422d85b7d1b19b32819f8cf309b5d3cbd575458ef5baae",
        "config.txt": "e4182b7940de721f282f2fd02c07709961f14f12eed6e17a2faf00ce7178637a",
        "records.csv": "c2798582e1c6e9430f0003b11d25923a48d6cad18a588a636a68950d2fc13b03",
    },
    "beta-sweep": {
        "aggregates.csv": "5b511db34cfa81bc493e04636b617b37ecc9e498fcf0c9def330ef07996163b7",
        "config.txt": "a16bd87947f7d4847aacdc4d8f97dc49603339ac6d045df9c83a9cd77f3f6593",
        "records.csv": "1bf0e3347b306065b56bc12b2700979d8fed23934d5636b0d7412647943da4ec",
    },
    "mc --format json": {
        "config.txt": "034d74686aff0549223fa17b8b04a1d1af263b64ec89a01da02ebdb1cd7ee172",
        "result.json": "6ecea0f0e0956c395f087eaaecd9e5124f2a4ad95b93168e1d6f44bc35551b77",
    },
    "mc": {
        "aggregates.csv": "d5a31944e72ed46c8047e83c68207fcea507183ce24f5786b04b450444ec006c",
        "config.txt": "d9913afa4628f9c23e14564527e04ccda56262e072c1530780024ec7e32366dd",
        "records.csv": "b4f5051e9df92c9b27932b21086a3cf4793095a2f55b9953b73a951161512aea",
        "table_mc_curve.csv": "5b9fb0a26f293df2a990146d710b774acd11e439808a7407607332384145b182",
    },
    "run": {
        "aggregates.csv": "263f63a0c68e6dedae138a2aad25fe1a8ec8f2a7a96862252f2e9c5f9cda0741",
        "config.txt": "eec80baed5eb2e3d3dfc6f57a3409cf2dfd4c8d263185c594b169809c348c3f0",
        "records.csv": "57eb40b8e029d1a1e6429a37f0b592c77d52156fc2948d1d4b479df44269da3b",
        "table_predictions.csv": "d785f0a5ff44665d2c1f0c5e1e6eaaafae3133122f951258d511d577a3364181",
    },
    "sparsity": {
        "aggregates.csv": "25d62bcf9b63868d8b90f6ddc5d61eac398aff294ece8d84fa399c16dc6f8490",
        "config.txt": "7a635f664bd95833813926c61f29e58cec74b548fd9d667f7dd928dde732a34b",
        "records.csv": "5d42d9c2c2afa1319abbf53306052d8daf1208ed8247e16435ad3f46dfc9e376",
    },
    "spectrum": {
        "aggregates.csv": "28502f004fc24f096054efc8b0d0d133cce708998b4a4232408f51b13bb69a9a",
        "config.txt": "2df61f56a3d041a69afbc4fd1f67c9562bf45e40c16271abe466bf06d6f44bd4",
        "records.csv": "00c26ad9ee9f34f6eccfae145aef04878fa6927469665781b7efb9d9b41e5a12",
    },
    "sweep": {
        "aggregates.csv": "cac32b4f140e674b1e3239f5706069617ba138b402d81daa2f5e813fce3a0f76",
        "config.txt": "c2c376f76d34a1c82d9b25ea33f2203166ecdb724d91f53e2a1d9e9d87f49660",
        "records.csv": "37bdf3a7ed60a1352672fbabc9cc54ca49c44928bcb7261f6176616800856a46",
    },
    "weights": {
        "aggregates.csv": "fee298f90c2e9be88cb415bd0da10893e832fc7ad07293f43e9e9efb7fde61ac",
        "config.txt": "7180591993e31142d495c2d6482d006c2bac683da7a585e342f213614db3dd18",
        "records.csv": "bf3f414207ce2717f6dffcd4fe07ffc0563cefbf5bbf0998686da974879aec34",
        "table_final_hist.csv": "90e4fdef7400fc7c55616a47d29cf63a603e77e302c74b45cefca7666ef495b6",
        "table_snapshots.csv": "a13c4eb6a85a4090ecf606381dcdd0a9c0d6d377d8f33752e61588feb509e6c0",
    },
}


def kernel_path() -> str:
    """The kernels that compute the outputs here, beyond the numpy release:
    the core name numpy's bundled OpenBLAS chose for this CPU and the
    thread count it runs with ("unknown" without the library or a getter),
    then the dispatch targets numpy found available."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    core = threads = "unknown"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
        # Set when the library loads: an OPENBLAS_NUM_THREADS exported
        # after ``import numpy`` does not change it.
        count = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        threads = "unknown" if count is None else str(count())
        break
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        targets = ["unknown"]
    dispatch = " ".join(targets) or "none"
    return f"OpenBLAS core numpy {core} threads {threads}; numpy dispatch {dispatch}"


def run_command(
    case: str, outdir: Path, src: Path = SRC, workers: str = "2"
) -> dict[str, str]:
    """Run one case into ``outdir`` with the package under ``src`` on
    ``workers`` workers; digest of every file written."""
    command, *extra = case.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "kuramoto_rc", command, *FLAGS, *extra]
        + ["--workers", workers, "--outdir", str(outdir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        path.name: hashlib.sha256(_content(path)).hexdigest()
        for path in sorted(outdir.iterdir())
    }


def _content(path: Path) -> bytes:
    """A file's bytes; for ``config.txt`` without an ``outdir`` line, so that
    ``--parent`` runs against older trees compare equal."""
    data = path.read_bytes()
    if path.name == "config.txt":
        data = b"".join(
            line
            for line in data.splitlines(keepends=True)
            if not line.startswith(b"outdir =")
        )
    return data


def _cells(path: Path) -> dict[tuple, str]:
    """Every cell of an output file by (column, position): CSV cells by
    header and row, JSON leaves by their key path, other files by line."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        return {
            (c, i): row[j] for i, row in enumerate(rows) for j, c in enumerate(header)
        }
    if path.suffix == ".json":
        cells = {}

        def walk(value, key):
            if isinstance(value, dict):
                for k in value:
                    walk(value[k], (*key, k))
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(v, (*key, i))
            else:
                cells[(key[-1], key)] = json.dumps(value)

        walk(json.loads(path.read_text(encoding="utf-8")), ("",))
        return cells
    lines = _content(path).decode().splitlines()
    return {("line", i): line for i, line in enumerate(lines)}


def compare_outputs(old: Path, new: Path) -> tuple[int, list, float]:
    """Changed cells between two versions of an output file: their count,
    their columns, and the worst |new - old| / |old| (inf when a cell is
    not numeric, is added or removed, or moves off zero)."""
    a, b = _cells(old), _cells(new)
    changed, columns, worst = 0, [], 0.0
    for key in sorted(a.keys() | b.keys(), key=repr):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        changed += 1
        if key[0] not in columns:
            columns.append(key[0])
        try:
            fx, fy = float(x), float(y)
            rel = abs(fy - fx) / abs(fx) if fx else math.inf
        except (TypeError, ValueError):
            rel = math.inf
        worst = max(worst, rel)
    return changed, columns, worst


# Two workers keep the case's own id; one worker runs every job serially.
@pytest.mark.parametrize(
    "case, workers",
    [pytest.param(case, "2", id=case) for case in CASES]
    + [pytest.param(case, "1", id=f"{case}-1-worker") for case in CASES],
)
def test_outputs_match_golden(case, workers, tmp_path):
    out = tmp_path / "out"
    digests = run_command(case, out, workers=workers)
    # config.txt echoes the worker count; GOLDEN records two.
    echoed = _content(out / "config.txt").replace(
        f"\nworkers = {workers}\n".encode(), b"\nworkers = 2\n"
    )
    digests["config.txt"] = hashlib.sha256(echoed).hexdigest()
    assert digests == GOLDEN[case]
    assert b"\noutdir =" not in (out / "config.txt").read_bytes()


def test_kernel_path_names_the_openblas_threads_in_use():
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas*"))
    if not paths:
        pytest.skip("numpy bundles no OpenBLAS")
    get = ctypes.CDLL(str(paths[0])).scipy_openblas_get_num_threads64_
    assert f" threads {get()};" in kernel_path()
    # The variable counts only when it is set before numpy loads OpenBLAS.
    proc = subprocess.run(
        [sys.executable, "-c", "from test_golden import kernel_path; print(kernel_path())"],
        cwd=Path(__file__).parent,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert " threads 1;" in proc.stdout, proc.stderr


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description="Compare outputs with GOLDEN.")
    parser.add_argument(
        "--parent", type=Path, help="checkout whose src/ to compare outputs with"
    )
    args = parser.parse_args()
    print(f"kernel path: {kernel_path()}")
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(CASES):
            new_dir = Path(tmp) / str(i)
            old, new = GOLDEN[case], run_command(case, new_dir)
            if args.parent is not None:
                parent_dir = Path(tmp) / f"{i}-parent"
                parent = run_command(case, parent_dir, args.parent.resolve() / "src")
                for name in sorted(parent.keys() | new.keys()):
                    if parent.get(name) != new.get(name):
                        count, columns, worst = compare_outputs(
                            parent_dir / name, new_dir / name
                        )
                        print(
                            f"{case} {name}: {count} changed cells in "
                            f"{', '.join(map(str, columns))}; "
                            f"worst relative change {worst:.2e}"
                        )
            for name in sorted(old.keys() | new.keys()):
                if old.get(name) != new.get(name):
                    print(f"{case} {name}: {old.get(name)} -> {new.get(name)}")

"""Golden outputs: every CLI subcommand at a tiny config, and ``mc`` in
JSON form, byte for byte.

Each subcommand runs in its own process with BLAS threads pinned to 1 and
two workers. The SHA-256 digest of every file it writes must equal the
recorded one; ``config.txt`` is hashed without its ``outdir`` line, which
names the temporary directory. A refactor that changes any floating-point
operation or its order shows up here.

Run this file as a script to print, for each file whose digest differs
from ``GOLDEN``, the recorded and the current digest::

    PYTHONPATH=src python tests/test_golden.py [--parent PATH]

With ``--parent`` every case also runs on the ``src/`` of the checkout at
PATH, and each file that differs between the two trees is summarised: how
many cells changed, in which columns, and the worst change relative to the
parent's value.
"""

import argparse
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
    "--workers", "2",
]

GOLDEN = {
    "astringency": {
        "aggregates.csv": "5a1509311e536f4768422d85b7d1b19b32819f8cf309b5d3cbd575458ef5baae",
        "config.txt": "3785a94627518990e1baea128b3263b521effecbf3b6e0fa0355b9a28681496f",
        "records.csv": "c2798582e1c6e9430f0003b11d25923a48d6cad18a588a636a68950d2fc13b03",
    },
    "beta-sweep": {
        "aggregates.csv": "073ed6c7f3e1a9b4da1fe35433d442745438add06f24881474a3182f868de08f",
        "config.txt": "a16bd87947f7d4847aacdc4d8f97dc49603339ac6d045df9c83a9cd77f3f6593",
        "records.csv": "f54fe9639c64c5547bd4df0df8ce000df702bc7612efc369f1a0159c0fb431af",
    },
    "mc --format json": {
        "config.txt": "034d74686aff0549223fa17b8b04a1d1af263b64ec89a01da02ebdb1cd7ee172",
        "result.json": "bde1cf6c17504c5f5fcbd1651770bf35140d3aa249fb7f930da6afad4d1007bb",
    },
    "mc": {
        "aggregates.csv": "a82ee4ec945efa5737d045129528c8fceab1da213988565126ca60f28547df4b",
        "config.txt": "d9913afa4628f9c23e14564527e04ccda56262e072c1530780024ec7e32366dd",
        "records.csv": "a1704d44278d9ffe34c1be036b7f36d48c6f3de9929968f3f8c60b10bd7551ae",
        "table_mc_curve.csv": "f471b2b03e8ad0c5bb840ec18c92a28f4268a31779cb56d87683f4cba50f70de",
    },
    "run": {
        "aggregates.csv": "426faecdaa311423fa079cf9116b509eb56cc4aa3678639f6f058dad4639ffbd",
        "config.txt": "eec80baed5eb2e3d3dfc6f57a3409cf2dfd4c8d263185c594b169809c348c3f0",
        "records.csv": "d4f801c1d659aa50228c6ff9191d98556522b27ee7ead592bc443e26963cb541",
        "table_predictions.csv": "5526a0d92fa628dcfe983e926309d5802532e5505d7994bb7cf94c0297a54540",
    },
    "sparsity": {
        "aggregates.csv": "34e2724a9ebfb338448a0b7af0df2870a891e92f7f7179728e75df2e79ee4afd",
        "config.txt": "7a635f664bd95833813926c61f29e58cec74b548fd9d667f7dd928dde732a34b",
        "records.csv": "8230ba79a9624c1877d3fbfab5c0f3660778ed8213b8b61700d5ad363739223c",
    },
    "spectrum": {
        "aggregates.csv": "28502f004fc24f096054efc8b0d0d133cce708998b4a4232408f51b13bb69a9a",
        "config.txt": "2df61f56a3d041a69afbc4fd1f67c9562bf45e40c16271abe466bf06d6f44bd4",
        "records.csv": "00c26ad9ee9f34f6eccfae145aef04878fa6927469665781b7efb9d9b41e5a12",
    },
    "sweep": {
        "aggregates.csv": "dd83517d4f357debece871ca9709754bc98b27ee99dfda683dc2ff0415ff637c",
        "config.txt": "c2c376f76d34a1c82d9b25ea33f2203166ecdb724d91f53e2a1d9e9d87f49660",
        "records.csv": "a166dbfd6876de6fb3c706e8d98840b697a291529c4afbf268a389d8c3bd3539",
    },
    "weights": {
        "aggregates.csv": "fee298f90c2e9be88cb415bd0da10893e832fc7ad07293f43e9e9efb7fde61ac",
        "config.txt": "7180591993e31142d495c2d6482d006c2bac683da7a585e342f213614db3dd18",
        "records.csv": "bf3f414207ce2717f6dffcd4fe07ffc0563cefbf5bbf0998686da974879aec34",
        "table_final_hist.csv": "90e4fdef7400fc7c55616a47d29cf63a603e77e302c74b45cefca7666ef495b6",
        "table_snapshots.csv": "a13c4eb6a85a4090ecf606381dcdd0a9c0d6d377d8f33752e61588feb509e6c0",
    },
}


def run_command(case: str, outdir: Path, src: Path = SRC) -> dict[str, str]:
    """Run one case into ``outdir`` with the package under ``src``; digest
    of every file written."""
    command, *extra = case.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "kuramoto_rc", command, *FLAGS, *extra]
        + ["--outdir", str(outdir)],
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
    """A file's bytes; for ``config.txt`` without its ``outdir`` line."""
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


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, tmp_path):
    assert run_command(case, tmp_path / "out") == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description="Compare outputs with GOLDEN.")
    parser.add_argument(
        "--parent", type=Path, help="checkout whose src/ to compare outputs with"
    )
    args = parser.parse_args()
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

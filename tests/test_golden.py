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
        "aggregates.csv": "54b3696c9bd99b2ccfff16549a19683f31e13cda89d745b22223bdcb5d6577ea",
        "config.txt": "3785a94627518990e1baea128b3263b521effecbf3b6e0fa0355b9a28681496f",
        "records.csv": "9a7299cc4b63b9a9766ec87b5a99f54883f56292c3419f61cdf296c701fcdb2c",
    },
    "beta-sweep": {
        "aggregates.csv": "d94ca1a2c3ba53b55084e032eb02ee5590ed72e9aa10af73416df305cd707bf0",
        "config.txt": "a16bd87947f7d4847aacdc4d8f97dc49603339ac6d045df9c83a9cd77f3f6593",
        "records.csv": "beba0474102706be769a90a02719c14ea630917d2e0284e6ad9643da4e7d9e9f",
    },
    "mc --format json": {
        "config.txt": "034d74686aff0549223fa17b8b04a1d1af263b64ec89a01da02ebdb1cd7ee172",
        "result.json": "fb7584dc6a2dfdde939ab880e87b49d0282f7420498f59e928b0b893f9f04024",
    },
    "mc": {
        "aggregates.csv": "1992af5fa5616a6dad95dbdaa22d183da372297814a5ae8456dba8bd5a7ead93",
        "config.txt": "d9913afa4628f9c23e14564527e04ccda56262e072c1530780024ec7e32366dd",
        "records.csv": "f3dc4ec76b758cb600158755416a51a0b84ddbd9f42ba6befc2c7d72fc8f9760",
        "table_mc_curve.csv": "3aa7b19bef4050ffb4b7cd19b646c73e5f04c0aacfbf58cf8e308749b532e271",
    },
    "run": {
        "aggregates.csv": "426faecdaa311423fa079cf9116b509eb56cc4aa3678639f6f058dad4639ffbd",
        "config.txt": "eec80baed5eb2e3d3dfc6f57a3409cf2dfd4c8d263185c594b169809c348c3f0",
        "records.csv": "d4f801c1d659aa50228c6ff9191d98556522b27ee7ead592bc443e26963cb541",
        "table_predictions.csv": "5526a0d92fa628dcfe983e926309d5802532e5505d7994bb7cf94c0297a54540",
    },
    "sparsity": {
        "aggregates.csv": "d766e4a59bf47240db76962fdb21a0600e9d2dfaf68def16c84e578a55cc2099",
        "config.txt": "7a635f664bd95833813926c61f29e58cec74b548fd9d667f7dd928dde732a34b",
        "records.csv": "8b1bb6535e4bd7556707c926560b04b4edab31330a86456516b38e4abaf42652",
    },
    "spectrum": {
        "aggregates.csv": "28502f004fc24f096054efc8b0d0d133cce708998b4a4232408f51b13bb69a9a",
        "config.txt": "2df61f56a3d041a69afbc4fd1f67c9562bf45e40c16271abe466bf06d6f44bd4",
        "records.csv": "00c26ad9ee9f34f6eccfae145aef04878fa6927469665781b7efb9d9b41e5a12",
    },
    "sweep": {
        "aggregates.csv": "76fdba2836d54a4cb4761ded6045caab2a8fba5fa0289fe64a0bad3152f975fd",
        "config.txt": "c2c376f76d34a1c82d9b25ea33f2203166ecdb724d91f53e2a1d9e9d87f49660",
        "records.csv": "af4c719cc86af428625e09c3cbefaca626f809c222a3e7883bd5297826bc863b",
    },
    "weights": {
        "aggregates.csv": "d5372557540f9635ccdbce717acecd3ef0f458a8ac7be67dde30ff6c87bd5cd6",
        "config.txt": "7180591993e31142d495c2d6482d006c2bac683da7a585e342f213614db3dd18",
        "records.csv": "5570001a7ea817c76ece2f2ffeb422ec5e15cd830ad742dfe999437eabfbda72",
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

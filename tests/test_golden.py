"""Golden outputs: every CLI subcommand at a tiny config, and ``mc`` in
JSON form, byte for byte.

Each subcommand runs in its own process with BLAS threads pinned to 1 and
two workers. The SHA-256 digest of every file it writes must equal the
recorded one; ``config.txt`` is hashed without its ``outdir`` line, which
names the temporary directory. A refactor that changes any floating-point
operation or its order shows up here.

Run this file as a script to print, for each file whose digest differs
from ``GOLDEN``, the recorded and the current digest::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
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
        "aggregates.csv": "b327d09be1da50c83b94c44d6007452123ad5322a6a747be349a6bc891b41c71",
        "config.txt": "a16bd87947f7d4847aacdc4d8f97dc49603339ac6d045df9c83a9cd77f3f6593",
        "records.csv": "2a3c78cfcf8b9e3ecd0ca817485015629e1ae5a6eb0ce445e49694f3caa63d1a",
    },
    "mc --format json": {
        "config.txt": "034d74686aff0549223fa17b8b04a1d1af263b64ec89a01da02ebdb1cd7ee172",
        "result.json": "d10e9b9dc535fb5b0d71b4f2216b839546153fb8cb7a3be61ce0fc816567ac4c",
    },
    "mc": {
        "aggregates.csv": "436657ec9a5b2ccf4a95fa95e33120615e7a783880d51830a9c39230235cc9a4",
        "config.txt": "d9913afa4628f9c23e14564527e04ccda56262e072c1530780024ec7e32366dd",
        "records.csv": "7c83778eb987443cd59ad6e6e862e9e27b2cf9712c3159f389f8862d0d8ade6b",
        "table_mc_curve.csv": "fea4f55f2fd9e35a6afd0a3903e5c60a950964a37b1020bd1fe66c60fb5edad7",
    },
    "run": {
        "aggregates.csv": "ad98cdbe54367bf39995e35e1b7a688d50bc17c2d883e1655a3bb804b58791fd",
        "config.txt": "eec80baed5eb2e3d3dfc6f57a3409cf2dfd4c8d263185c594b169809c348c3f0",
        "records.csv": "f772c8f27095f767e3f14818d58d18e688eacca21eb370d7a8f7edc575dcf48b",
        "table_predictions.csv": "b968e9a2548bfbc42f04a9eeba2a4a36461abb13c5449f182d2fcc1ebc5b0275",
    },
    "sparsity": {
        "aggregates.csv": "89face20ded1dc6172988e57327649cbd4248be68ff2cb7c56b4e506e9c96a5e",
        "config.txt": "7a635f664bd95833813926c61f29e58cec74b548fd9d667f7dd928dde732a34b",
        "records.csv": "104c0d7b47d3b9ea58e16441e4a029469e9d57023673032233afa9d6280e1521",
    },
    "spectrum": {
        "aggregates.csv": "28502f004fc24f096054efc8b0d0d133cce708998b4a4232408f51b13bb69a9a",
        "config.txt": "2df61f56a3d041a69afbc4fd1f67c9562bf45e40c16271abe466bf06d6f44bd4",
        "records.csv": "00c26ad9ee9f34f6eccfae145aef04878fa6927469665781b7efb9d9b41e5a12",
    },
    "sweep": {
        "aggregates.csv": "05d5aee05e84df78b05b76b312b8a2a229b3108e45b6b88f1e4768f356433bc5",
        "config.txt": "c2c376f76d34a1c82d9b25ea33f2203166ecdb724d91f53e2a1d9e9d87f49660",
        "records.csv": "b16e9104d73c3028304fe84f3beb57a8c417ba65e3a637b8db2a7925a0793a86",
    },
    "weights": {
        "aggregates.csv": "d5372557540f9635ccdbce717acecd3ef0f458a8ac7be67dde30ff6c87bd5cd6",
        "config.txt": "7180591993e31142d495c2d6482d006c2bac683da7a585e342f213614db3dd18",
        "records.csv": "5570001a7ea817c76ece2f2ffeb422ec5e15cd830ad742dfe999437eabfbda72",
        "table_final_hist.csv": "90e4fdef7400fc7c55616a47d29cf63a603e77e302c74b45cefca7666ef495b6",
        "table_snapshots.csv": "a13c4eb6a85a4090ecf606381dcdd0a9c0d6d377d8f33752e61588feb509e6c0",
    },
}


def run_command(case: str, outdir: Path) -> dict[str, str]:
    """Run one case into ``outdir``; digest of every file written."""
    command, *extra = case.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
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
    digests = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "config.txt":
            data = b"".join(
                line
                for line in data.splitlines(keepends=True)
                if not line.startswith(b"outdir =")
            )
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, tmp_path):
    assert run_command(case, tmp_path / "out") == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(CASES):
            old, new = GOLDEN[case], run_command(case, Path(tmp) / str(i))
            for name in sorted(old.keys() | new.keys()):
                if old.get(name) != new.get(name):
                    print(f"{case} {name}: {old.get(name)} -> {new.get(name)}")

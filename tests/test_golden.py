"""Golden outputs: every CLI subcommand at a tiny config, byte for byte.

Each subcommand runs in its own process with BLAS threads pinned to 1 and
two workers. The SHA-256 digest of every file it writes must equal the
recorded one; ``config.txt`` is hashed without its ``outdir`` line, which
names the temporary directory. A refactor that changes any floating-point
operation or its order shows up here.

Run this file as a script to print the digests of the current code::

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
        "aggregates.csv": "d6041abde49af4104a7356b013065c6430174c6106323fa374513c15509e5235",
        "config.txt": "3785a94627518990e1baea128b3263b521effecbf3b6e0fa0355b9a28681496f",
        "records.csv": "704ef7152b18ef87f8fe99549c5845be0d0c4595e074dec9907cb8196d7a0462",
    },
    "beta-sweep": {
        "aggregates.csv": "fe359a25a79424e06b34ac00e3afe4cf8a1eab68047e43c1fee94710e71195db",
        "config.txt": "a16bd87947f7d4847aacdc4d8f97dc49603339ac6d045df9c83a9cd77f3f6593",
        "records.csv": "2fe77348b967b0a12f2ff5dd9e104f6ff0c07f3a1ab61c19fa13c0f5decb0ca4",
    },
    "mc": {
        "aggregates.csv": "e45f6c0c5228e6f4ee2d5c064afec0af56cd310e357c189636b4af8dc7b25c25",
        "config.txt": "d9913afa4628f9c23e14564527e04ccda56262e072c1530780024ec7e32366dd",
        "records.csv": "b918f37ab3499d14d2d63b46fdc1457d819545c893cc14ac25d8683594c3e810",
        "table_mc_curve.csv": "49c2294b6fc1dd361b86ab8048d7570c0af83a203f46ce5539039a5644dd7a02",
    },
    "run": {
        "aggregates.csv": "5d89e6b67263fea4466663824ec26e2e76995c06d8c06e4ff5a7c957815cda27",
        "config.txt": "eec80baed5eb2e3d3dfc6f57a3409cf2dfd4c8d263185c594b169809c348c3f0",
        "records.csv": "63597c2d1847e3b2a427d202e7ef15a5fde66118eb21342f6149b894ec8b05d0",
        "table_predictions.csv": "69d46409b34b0b91e7e4649f3ff7a49d41c57503710f6d798f85f8d93cef5c1c",
    },
    "sparsity": {
        "aggregates.csv": "6335f0c9df0d4c27f4aa755d02a4fce0904e502cc7dc6ac2cc63b69c2624edce",
        "config.txt": "7a635f664bd95833813926c61f29e58cec74b548fd9d667f7dd928dde732a34b",
        "records.csv": "0d385ce1f770773615eae3c2221d86f2e7dec0246bf712eeee898f315c7d3d0e",
    },
    "spectrum": {
        "aggregates.csv": "28502f004fc24f096054efc8b0d0d133cce708998b4a4232408f51b13bb69a9a",
        "config.txt": "2df61f56a3d041a69afbc4fd1f67c9562bf45e40c16271abe466bf06d6f44bd4",
        "records.csv": "00c26ad9ee9f34f6eccfae145aef04878fa6927469665781b7efb9d9b41e5a12",
    },
    "sweep": {
        "aggregates.csv": "e9e301df6dfd2243de16da68c2499e1244c7bfc5d6fd416fb2dffb782bfdd514",
        "config.txt": "c2c376f76d34a1c82d9b25ea33f2203166ecdb724d91f53e2a1d9e9d87f49660",
        "records.csv": "8de1c92c68fb891d32f48551b5965c749e6d0569a1a55d9798dc7db47f0f6126",
    },
    "weights": {
        "aggregates.csv": "b6153b5fa2b5e8129ed4bcc30b171b3d07b22cdad1a8a59be606ebf3b7a1af97",
        "config.txt": "7180591993e31142d495c2d6482d006c2bac683da7a585e342f213614db3dd18",
        "records.csv": "6c5ffa69ca021f94c76f8095153a1a3c4aed6e3cfc2b3f67eda46e286ac455e9",
        "table_final_hist.csv": "90e4fdef7400fc7c55616a47d29cf63a603e77e302c74b45cefca7666ef495b6",
        "table_snapshots.csv": "a13c4eb6a85a4090ecf606381dcdd0a9c0d6d377d8f33752e61588feb509e6c0",
    },
}


def run_command(command: str, outdir: Path) -> dict[str, str]:
    """Run one subcommand into ``outdir``; digest of every file written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "kuramoto_rc", command, *FLAGS, "--outdir", str(outdir)],
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


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden(command, tmp_path):
    assert run_command(command, tmp_path / command) == GOLDEN[command]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(
            {c: run_command(c, Path(tmp) / c) for c in COMMANDS}, width=100
        )

"""Golden digests: every CSV of small fixed-seed runs of all experiments.

Each case runs one CLI command and compares the sha256 of every CSV it
writes with a pinned digest, so a refactor of the measurement path must
keep every seed path, batch and circuit exactly as it was. The digests
were captured with numpy 2.4 (its random streams and float formatting
decide the bytes). A change that alters output bytes on purpose updates
the affected digests and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from parvqe.cli import main as cli_main

# 8 qubits on a ring with one chord: greedy and matching selections differ,
# selected pairs can be neighbours (crosstalk) and readout errors vary
SMALL_CALIBRATION = {
    "name": "golden-ring8",
    "qubits": list(range(8)),
    "edges": [[0, 1, 0.97], [1, 2, 0.93], [2, 3, 0.95], [3, 4, 0.88],
              [4, 5, 0.96], [5, 6, 0.91], [6, 7, 0.94], [0, 7, 0.89],
              [1, 6, 0.92]],
    "readout": {str(q): [0.01 + 0.004 * q, 0.03 + 0.003 * q] for q in range(8)},
}

CASES = {
    "benchmark-pairs": ["benchmark-pairs", "--seed", "3", "--shots", "100"],
    "benchmark-pairs-ring": ["benchmark-pairs", "--seed", "3", "--shots", "200",
                             "--crosstalk", "0.02", "--small"],
    "heatmap-matching": ["heatmap", "--seed", "4", "--grid", "5", "--pairs", "4",
                         "--shots", "200", "--select", "matching"],
    "heatmap-ni": ["heatmap", "--seed", "4", "--grid", "4", "--pairs", "3",
                   "--shots", "200", "--mitigation", "ni", "--workers", "2"],
    "heatmap-tflo": ["heatmap", "--seed", "4", "--grid", "4", "--pairs", "3",
                     "--shots", "200", "--mitigation", "tflo", "--cap", "0.95"],
    "heatmap-none": ["heatmap", "--seed", "5", "--grid", "4", "--pairs", "3",
                     "--shots", "200", "--mitigation", "none", "--crosstalk", "0.05",
                     "--small"],
    "vqe-spsa": ["vqe", "--seed", "6", "--optimizer", "spsa", "--pairs", "3",
                 "--iterations", "4", "--repeats", "2", "--shots", "200"],
    "vqe-mgd-tflo": ["vqe", "--seed", "7", "--optimizer", "mgd", "--pairs", "4",
                     "--iterations", "4", "--repeats", "2", "--shots", "200",
                     "--mitigation", "tflo", "--workers", "2"],
    "vqe-mgd-eta": ["vqe", "--seed", "8", "--optimizer", "mgd", "--pairs", "1",
                    "--iterations", "3", "--eta", "1.0", "--mitigation", "ni",
                    "--start", "0.3", "0.5", "--shots", "200"],
    "vqe-spsa-none": ["vqe", "--seed", "9", "--optimizer", "spsa", "--pairs", "2",
                      "--iterations", "3", "--mitigation", "none", "--select",
                      "matching", "--crosstalk", "0.05", "--small"],
    "vqe-speedup-sweep": ["speedup-sweep", "--seed", "1", "--pair-counts", "2,5"],
    "shots-sweep": ["shots-sweep", "--seed", "5", "--pairs", "3", "--iterations", "4",
                    "--shots-list", "50,200"],
    "shots-sweep-none": ["shots-sweep", "--seed", "5", "--pairs", "2",
                         "--iterations", "3", "--shots-list", "100",
                         "--mitigation", "none", "--cap", "0.9", "--small"],
    "optimizer-compare": ["optimizer-compare", "--seed", "6", "--shots", "100",
                          "--pair-counts", "2,3"],
}

GOLDEN = {
    "benchmark-pairs": {
        "individual_pairs.csv":
            "8a5f2c1d4c0254c3f06356f8242a75fc0e86ddc4c110a7fd20c9aa4158d059b3",
        "pair_by_p_matrix.csv":
            "29a416b4ab1d4fad25b45d7240904a3fe0c7e335e9b2f45de8159070310d08c2",
        "parallel_sweep.csv":
            "fab0389415b704a3ce8013b07504b065e009897668f5881861382c4a4913c3c6",
    },
    "benchmark-pairs-ring": {
        "individual_pairs.csv":
            "a84d8a534147c1c0dae3b2f31947f05fab5ace2cba8b0db3b7a6fc857de78cde",
        "pair_by_p_matrix.csv":
            "8322ed1582951d74109f47ba6d5addb8d0de36561eee4f601ee8d23bcda391e2",
        "parallel_sweep.csv":
            "185eed76be5ed9a748c1a60af217cd1deab868d5ed85dd3d8c06ae254408ab8d",
    },
    "heatmap-matching": {
        "heatmap_exact.csv":
            "74fb30637c40f90bda7cb20c27ea72463a505df0c49d5ba388f523fcfb57ff34",
        "heatmap_simulated.csv":
            "4683eb0be7607dcd8fb5ccd9e7b35ac6fea4010add00e3b1beb95c1c35a0544d",
    },
    "heatmap-ni": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "c1673a86398dee1ebf90df0a677a396a1a458f0ca3eaddd82b18a4da1094a309",
    },
    "heatmap-none": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "57f135837522b018a04d4ba569f6aad612cc34cf9f7ff17b15a4fd69496d1506",
    },
    "heatmap-tflo": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "c2b4403c6b36003bf04797a3642310cf6205a007c07e619d3f7d5884fff07c0f",
    },
    "optimizer-compare": {
        "compare_runs.csv":
            "01632baefa16485305874e41da6caa3ef63f44ff1c045f7d01506b1dcc81c402",
        "compare_summary.csv":
            "9b881d792d0acc701ba9599854960bafa1d9d26a82bb1b4254dde65abbb8bcf5",
    },
    "shots-sweep": {
        "shots_summary.csv":
            "2db580497f335151e580e59dc4e2d760b695f2ef7ee918d511fda884f6ed179e",
        "trace_shots200.csv":
            "d884d0e384d922bfc5b012c7ed94793a700e3eb86e90d2a2f6d2d3fef74b47f8",
        "trace_shots50.csv":
            "d6383bb86f7594c3b1c72b64194575d24a51e77cc5771ee92a11223853aba893",
    },
    "shots-sweep-none": {
        "shots_summary.csv":
            "6cb5579f4c5a6132e8637c549a2a3c73b45b5e2f71994f6ad49b69f493430fb6",
        "trace_shots100.csv":
            "e67c9acaf4c20e0cedc71633478170179dd3d7c460adc5c05b302f7487ae3459",
    },
    "vqe-mgd-eta": {
        "summary.csv":
            "109302ba098ef2658dd4d9c0cea3991bb8bdaddf6efe955f95b493dacebdfa60",
        "trace_rep0.csv":
            "bdc0bf0e644df6c7df1b06f68a557b8ea90b9539ed71ebd73ed4bb255ce2ec0e",
    },
    "vqe-mgd-tflo": {
        "summary.csv":
            "eceeb39897395496c4559e77d9dd7f4c38d826d28ecc0c9d4ac89ec05cc75918",
        "trace_rep0.csv":
            "aa11ec36ce1715087b3a2dc1ae8658463f9803022bf302e6717abc614cb34e42",
        "trace_rep1.csv":
            "fc9c6b08458ea9b66417cd4c8cb4b843d5b8dfa94e372dc897dfa23591e73ace",
    },
    "vqe-speedup-sweep": {
        "speedup_sweep.csv":
            "0914f20fb0e80a0de0dc2d195b41eb73df1e4c5b01fbe267a1f7bcd5ea6dda45",
    },
    "vqe-spsa": {
        "summary.csv":
            "beb30c7e9919a9230385c2aacfbc5dc04c78fdd95a432fbc30e3112efb75ec61",
        "trace_rep0.csv":
            "0562078dd9e2f511b57c29df8461be0b8ba1de7881510bce00c8ace8c7bc9456",
        "trace_rep1.csv":
            "35010c91cc3a2a2027cf493bb4871341201e29c95b61e404f945a32452f83067",
    },
    "vqe-spsa-none": {
        "summary.csv":
            "ee0fd73f0fbc736a0eeafdbfea913169492b345d543b4df094f3158ded1d3871",
        "trace_rep0.csv":
            "6af8ac93c308f644e5dc29dcc3dfab233229b43965cc2c56d376219f01ae067c",
    },
}


def run_case(name, tmp_path):
    """Run one case; "--small" stands for the 8-qubit ring calibration.
    Returns {csv file name: sha256 hex digest}."""
    argv = list(CASES[name])
    if "--small" in argv:
        cal = tmp_path / "ring8.json"
        cal.write_text(json.dumps(SMALL_CALIBRATION))
        argv[argv.index("--small"):argv.index("--small") + 1] = ["--calibration", str(cal)]
    out = tmp_path / "out"
    assert cli_main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]

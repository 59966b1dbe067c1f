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
    "vqe-speedup-sweep": ["vqe", "--seed", "1", "--speedup-sweep",
                          "--pair-counts", "2,5", "--iterations", "7"],
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
            "8f6e579fa59c7116570e92f07c4eac6ce7accb244ea35a285c5f919447e742c7",
        "pair_by_p_matrix.csv":
            "4a29c91e315d3b613714d3ef4c64a23c715367915e19e3d9154f6e589b60cdca",
        "parallel_sweep.csv":
            "12000a6f3070856964c921b23641e904aebef32bd38ccbb1ccea05eb3ce10bc7",
    },
    "benchmark-pairs-ring": {
        "individual_pairs.csv":
            "124760caf418bb63b1ef5bba4e7c4f1869d01f11bc17df43d7a662a9e276ee03",
        "pair_by_p_matrix.csv":
            "357be5a303dea503d64a7c83fd15ec98da6b205ed90478cb4d6b15693fd87bfe",
        "parallel_sweep.csv":
            "73040c19b685aa85957cdce936caadb41efd06eaa9ba6bb3edfb3eed750c5e2f",
    },
    "heatmap-matching": {
        "heatmap_exact.csv":
            "74fb30637c40f90bda7cb20c27ea72463a505df0c49d5ba388f523fcfb57ff34",
        "heatmap_simulated.csv":
            "f85a043889def5dbef0c382a8640a72f433fe8b3b73498662a2ccb48dfc0cab0",
    },
    "heatmap-ni": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "cfe88fcf45a181c862f8c8ed9232ecff19c7f8ceb0626be8c2514e9a6c77ac64",
    },
    "heatmap-none": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "4a080c31ed85960ddc68d5d0c51b58b0c7ac73ab570d5abb64600a21a5f26570",
    },
    "heatmap-tflo": {
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_simulated.csv":
            "2365cbd295b5cf111d6b09a9a831bb3830dbf0faa73a55eb0030b47666e4e5c2",
    },
    "optimizer-compare": {
        "compare_runs.csv":
            "98b41799a6298ae6da50c5c14407b2d2f59882cf81a5f36ec5ad89e6db694791",
        "compare_summary.csv":
            "635df53ac0f58ed56c584b66da762f3a8908d2cc297ff614b177561ac4280838",
    },
    "shots-sweep": {
        "shots_summary.csv":
            "0fe2d56012f07ed85427450ac41896d3205c00821129b5f6f7c4e815ceee0177",
        "trace_shots200.csv":
            "43898d303f35ee084d66deab9310992ec61c531fc599c1e439f01f3cac777f9f",
        "trace_shots50.csv":
            "3878c612d9d583fa923bdeb165062443f9aec55c420a6077a3c0a6dc510a8621",
    },
    "shots-sweep-none": {
        "shots_summary.csv":
            "ec205c27fdab6b0b41a6a013c4ff3ae1bb05f9eca2e41874adb44a640c987e0f",
        "trace_shots100.csv":
            "b8e7fac26547ff1f6cb6bfe238ffc223c453f5dba61c35c9faa3b15a0742ecf0",
    },
    "vqe-mgd-eta": {
        "summary.csv":
            "74c933d8f384239c50dd56498ce5d31fe5c18f047b2e9885e8c8b0efad1695b4",
        "trace_rep0.csv":
            "76758f3372d9b0777fb2281a2b0a9a5f5fa9c1aa66ce24ea6ecffe709640593b",
    },
    "vqe-mgd-tflo": {
        "summary.csv":
            "b2663e072eae3685fe0ae2d3700828d12824f119d89de2d068c708b06ddab85e",
        "trace_rep0.csv":
            "60db409305d074382cd3352f716e9f11fbcb2c8dc076cdc79b717c2ecef52e2c",
        "trace_rep1.csv":
            "92f272c9d549c27a8091a699efa94724e459a1269c7e36b759f2cd99732172e1",
    },
    "vqe-speedup-sweep": {
        "speedup_sweep.csv":
            "ea54951542ee4dc1da0cf612d9c67d2074421383795e8ce6929d60bb172290cc",
    },
    "vqe-spsa": {
        "summary.csv":
            "e558a77c8ce88af45f64e930fd488393f03b8a8b67069f6837817396e934cfe7",
        "trace_rep0.csv":
            "73b257e56eb2e31c7064711b2b8d37d98c3a18ccb8206dbe3cd5e70977e3b927",
        "trace_rep1.csv":
            "78496e215b58002833fde5ce6358ae7acc340151f668d155af81ea3ad7910833",
    },
    "vqe-spsa-none": {
        "summary.csv":
            "d9c665d8c59a203ce0971c9490d50858487963a58b47e717f3351340a65db98d",
        "trace_rep0.csv":
            "09745ae7068ae1aa5c1feed4b37615bfdf8606c0fce78a285783a9bab06cec29",
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

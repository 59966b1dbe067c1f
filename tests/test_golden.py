"""Golden digests: every CSV, SVG and trace points file of small
fixed-seed runs of all experiments.

Each case runs one CLI command, which writes no SVG, then tools/plot.py
on its output directory, which renders the SVGs from the run's tables,
and compares the sha256 of every file there, record.json aside (it holds
the output path), with a pinned digest. So a refactor of the measurement
path must keep every seed path, batch and circuit exactly as it was, and
one of the artifact writers or of the plot tool every byte it writes. The digests were captured with numpy 2.4 (its
random streams, float formatting and .npy header decide the bytes). A
change that alters output bytes on purpose updates the affected digests
and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from parvqe.cli import main as cli_main
from reference import plot

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
    # one shared table: a count of one row, counts of 9 and 25 rows, crosstalk
    "optimizer-compare-prefix": ["optimizer-compare", "--seed", "3", "--shots", "200",
                                 "--pair-counts", "25,1,9", "--crosstalk", "0.05"],
}

GOLDEN = {
    "benchmark-pairs": {
        "individual_pairs.csv":
            "ce9672392d3180dac00e9d931ba20f6cc762f127c1d5ef1febbbab850758a823",
        "individual_pairs.svg":
            "b3469dac5153476e72b27feb0450ff3d369a86a5594a1889252abe51467a1974",
        "pair_by_p_matrix.csv":
            "6336d030c272b77197f62fefc58757c9cb3bd114253ce7d512f2bda10204f986",
        "parallel_sweep.csv":
            "69ee413beee196971f60a0730289435c817935260c0b56c9d193b151ac846952",
        "parallel_sweep.svg":
            "6874d811d51aca26da8d654403edd6e329e1bdbd30c0bf9caf48f22a20155448",
    },
    "benchmark-pairs-ring": {
        "individual_pairs.csv":
            "5eb329de00539d6d1f677a4b6d84dcc2c5a4c128eefe907cd8404f85ae45d8df",
        "individual_pairs.svg":
            "c08aca5938c122a33b2706733920be3fe61d003cd8cd50ee4cf3dd0fa8204e31",
        "pair_by_p_matrix.csv":
            "6c4804e8a128ba72f2dce52fb1f33e95e03efa505489ea2a9c856686d74ecb53",
        "parallel_sweep.csv":
            "4a59211ac9f3d5cc14386afbb443db28423ef010942df4d58784e985e25d41a6",
        "parallel_sweep.svg":
            "ccb87e9c74db3c5a008397e3b0403765c2057d66ca81c11b34214bc6b44ada8a",
    },
    "heatmap-matching": {
        "heatmap_error.svg":
            "a3b7935562a82d8e059b8a93bfae417893fe430ca5476c63410c5cc127b5b4e5",
        "heatmap_exact.csv":
            "74fb30637c40f90bda7cb20c27ea72463a505df0c49d5ba388f523fcfb57ff34",
        "heatmap_exact.svg":
            "f33f395dafd7380f445f2faef4a7ab4f7fb6d0801348fe2e43029ed6d01934a7",
        "heatmap_simulated.csv":
            "733d23425b30dff72f22cf9e76a9a56c782185ac050bc99f689a00156aba23ec",
        "heatmap_simulated.svg":
            "816ed3aede1ee0d885282451b5443bfaa30eca6814c9a6122faa18d49ac66b93",
    },
    "heatmap-ni": {
        "heatmap_error.svg":
            "bf1edd06ea6762a3b121e08904d7d135668cad459b73a2303bc462ee3fed7694",
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_exact.svg":
            "4bcbf1e40923285787a82f9776fd56f74a5f0ed15e026a95da34bfed8758de9a",
        "heatmap_simulated.csv":
            "0880971bfefe4084197bfc83f59aa18c0d747ed2cefeb6ef01af0918b6a22742",
        "heatmap_simulated.svg":
            "e1f1d71070d972c8ca97f2ac54aa6018388f67ae7c7344ee1b166f9b29a9a48c",
    },
    "heatmap-none": {
        "heatmap_error.svg":
            "a430f46be7c501fdd2f33a13745117945a3b3caed842ae53e760e0561e16b66c",
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_exact.svg":
            "4bcbf1e40923285787a82f9776fd56f74a5f0ed15e026a95da34bfed8758de9a",
        "heatmap_simulated.csv":
            "ad5de7d2e611558f2dd68ab4894a37c8d3a967e2520df201ac9a96adef6bfecf",
        "heatmap_simulated.svg":
            "7303f4b86c495eee500191557e2e0f2e79a0c35c9321adc2d7bb7429180bf497",
    },
    "heatmap-tflo": {
        "heatmap_error.svg":
            "28e94a778415f399a81e90efcb217585429561a945f4d8ec0fff9ab79c1b9f15",
        "heatmap_exact.csv":
            "ae523cc575e508bb6a3fe01fa07aa50f3bf54d690d224c02d2eacc1f0e6d1205",
        "heatmap_exact.svg":
            "4bcbf1e40923285787a82f9776fd56f74a5f0ed15e026a95da34bfed8758de9a",
        "heatmap_simulated.csv":
            "795bcc5243b90f87533ee0adf6b8f73dc46a54acfa0875c6e096f61a5a6ba9f9",
        "heatmap_simulated.svg":
            "0bb595c4f1359809d2c93f7bb5e9a27e1de0caaf74bab58b4d1268cf5068245b",
    },
    "optimizer-compare": {
        "compare_runs.csv":
            "8ccb7b001e50773796acd98e17680c65c7c9b76208f17ff9120e617da03c35a0",
        "compare_summary.csv":
            "a94bfde62a503c51ac8d3d5dfebe2ab31441079b52fd918ecd47b843fec78b95",
        "compare_summary.svg":
            "ca4d99d911d87b12b3e415bc5a461b8f41144456e10716670613545392f30acc",
    },
    "optimizer-compare-prefix": {
        "compare_runs.csv":
            "a4544e831882c76890a7df2176805654569b270a37802481ca50db6997199b5b",
        "compare_summary.csv":
            "905689ce0653d32e26a4433c9310c942fe11a12279f429e033a578d355574052",
        "compare_summary.svg":
            "f1eb9322b51bc883d4ebeee538723d23d5ddfa7dc941490d6739869caf120662",
    },
    "shots-sweep": {
        "shots_summary.csv":
            "50836443dc39c2a1c569567304721e7000d9e73c16772229d1dce081deb4f739",
        "shots_sweep.svg":
            "f5ca6121f38f3ff69ef386ccb2b7603b4cdc7f69d11f7b988960c856767d0142",
        "trace_shots200.csv":
            "366ad0e30c2e0784cae358dcdc8f780e07084c297d6e97cba7c3afe7daffe609",
        "trace_shots50.csv":
            "64abb5b595d229d1838d8cb09807a75fa2311ad0dcbf504738f80e6a34b4eba3",
    },
    "shots-sweep-none": {
        "shots_summary.csv":
            "748951e4524ea3bd5b7c469e5d71cd109463bced5a8d0542e0914c682a962b81",
        "shots_sweep.svg":
            "3a19b91edfe0bf2af53629bbbcfae4d67c1f796320c794b29a84f9148c2480fa",
        "trace_shots100.csv":
            "81926f13f0ea51ad547e9b7a47cdb0ae8e9e11de6608981f7c663a6e234b0c25",
    },
    "vqe-mgd-eta": {
        "summary.csv":
            "27fde05dad93ce252b20d055a65fb3e8b1c972e3233cbda8b72438d92a6c9c8c",
        "trace_points.npy":
            "96a7a1bc73c8f732182f00b15eb5b0236691f1e2cbc2f7100458ec75a8ee20aa",
        "trace_rep0.csv":
            "60c6f58e2ff566c416bb65da42000b419a9e2d95760310ab1ff6deadfb3e346c",
        "trace_rep0.svg":
            "bf456368ae40c820e070260f6fd04b4473190b44e0274c4ad8240cd4bc50d349",
    },
    "vqe-mgd-tflo": {
        "summary.csv":
            "0ba2fa131876efe2e30ddaf39d7668d549b48fba51f957df35e758cd245a04f5",
        "trace_points.npy":
            "427e7ab11bfcfc26706230866855619d7d727b355b2763d817fc98f32ba8775c",
        "trace_rep0.csv":
            "1b3f97cc932e4234f43b7e009d72e0e81e42a147562165b0a70ca46603eb25ce",
        "trace_rep0.svg":
            "b6c80a5c78cb6ce87dd9abf0009b474f56c9d547b5044e8a7aad53f6db3b510e",
        "trace_rep1.csv":
            "fb56334f6aaba4a6e2be3ff99fd8c15cd104227c7a9638c5a3437f8c0dbf351c",
    },
    "vqe-speedup-sweep": {
        "speedup_sweep.csv":
            "0914f20fb0e80a0de0dc2d195b41eb73df1e4c5b01fbe267a1f7bcd5ea6dda45",
        "speedup_sweep.svg":
            "3b21c805bc49b0c3d5787b27eafdbc53ac4da6728a63b90cc0660a41bef59e9f",
    },
    "vqe-spsa": {
        "summary.csv":
            "2031a533f4e0d2b8fc61796c3d4b3c19aca6dd172037b8ad48c7230404632138",
        "trace_points.npy":
            "ea6d32e2cc550b045c870b9ea1f7db823d3dae0d74f4db503b93982c653cc95a",
        "trace_rep0.csv":
            "8f061595eb7a9d6c877f55423f09ac08bd77ca6998bbce91047c2aab307d8620",
        "trace_rep0.svg":
            "424ed8d00ca95e68187b9ea07d8fff5445f61ed8546ed297977ed6b6061c1f39",
        "trace_rep1.csv":
            "4c3dbcb4d1fd19d16dd7ef6e2a49e4498009806d9c3b68ded5cf806e86982851",
    },
    "vqe-spsa-none": {
        "summary.csv":
            "cd449b854096b7ce2fa4bf8598f133ecfe1867de1a44f9574f18ad072258ac98",
        "trace_points.npy":
            "9ad93a64e752acfb2f4d66dc75cde5ffab9e926333b035abb7d35cd18be108d9",
        "trace_rep0.csv":
            "2440f2ad2b3f1b3618689a6205e63b43223584feddf825475a8de5a35ef28bb9",
        "trace_rep0.svg":
            "91d56fc0cfab0b9b79bd29d39cd292baf8079ddcb1a6358e6caeac880d99819e",
    },
}


def run_case(name, tmp_path):
    """Run one case, then plot its output; "--small" stands for the 8-qubit
    ring calibration. Returns {file name: sha256 hex digest} of every file
    but record.json."""
    argv = list(CASES[name])
    if "--small" in argv:
        cal = tmp_path / "ring8.json"
        cal.write_text(json.dumps(SMALL_CALIBRATION))
        argv[argv.index("--small"):argv.index("--small") + 1] = ["--calibration", str(cal)]
    out = tmp_path / "out"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert not list(out.glob("*.svg"))      # the command alone draws no plot
    assert plot.main([str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "record.json"}


def split(digests, csv: bool) -> dict:
    """The digests of the CSVs, or of the other files."""
    return {f: h for f, h in digests.items() if f.endswith(".csv") == csv}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digests(name, tmp_path):
    assert split(run_case(name, tmp_path), csv=True) == split(GOLDEN[name], csv=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_and_trace_json_digests(name, tmp_path):
    # every file but the CSVs: the SVGs, and vqe's trace_points.npy, which
    # replaced the trace JSON files this test is named after
    assert split(run_case(name, tmp_path), csv=False) == split(GOLDEN[name], csv=False)

"""Golden digests: every CSV, SVG and trace points file of small
fixed-seed runs of all experiments.

Each case runs one CLI command, which writes no SVG, then tools/plot.py
on its output directory, which renders the SVGs from the run's tables,
and compares the sha256 of every file there, record.json aside, with a
pinned digest. record.json is pinned on its own (RECORDS), each path in
its config replaced by the file name, since it holds the output path. So
a refactor of the measurement path must keep every seed path, batch and
circuit exactly as it was, and one of the artifact writers or of the
plot tool every byte it writes. The digests were captured with numpy 2.4 (its
random streams, float formatting and .npy header decide the bytes). A
change that alters output bytes on purpose updates the affected digests
and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

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
            "1b4512e800e6580cf49c4303e9f895562a14be0028536315ab2437d2abccf28e",
        "compare_summary.csv":
            "246171a8e512c375f6b405914b67941f6a1044d07137e6d92d1f69c13dac90c9",
        "compare_summary.svg":
            "cba5b9711b07ac8f0429f3eef22ab5fd30763ac01637760d5123a13b2af060c0",
    },
    "optimizer-compare-prefix": {
        "compare_runs.csv":
            "f9b5bbbf42cb1d7b09188d81eeeae14cbd3464353fc14265665865cd67984588",
        "compare_summary.csv":
            "7ee42b36d4a49d3d384de7a1b0abf19fcf5bcf898fabe458fea5c8a9df72b7cf",
        "compare_summary.svg":
            "b84045c5eb99f24817f52d9266aaaa0aa0e790bdd00b7fbe5023e2216e0d3b40",
    },
    "shots-sweep": {
        "shots_summary.csv":
            "81aadfadb34d2009d07b844fd4ded2d470a203713935f4f55bb519bc5e8f4e87",
        "shots_sweep.svg":
            "936d7712b7fab9641ad34144f20fdf970675f33f9c36300306b5679d4da3f939",
        "trace_shots200.csv":
            "77c594c05b9b2d91bb5491829ef92b66df53e8c5e6728c5c912d16c79a587375",
        "trace_shots50.csv":
            "ddff8bcd9161882185dac7782ad2d1a861f9769707aef13b0d68b3c42ea4b7f0",
    },
    "shots-sweep-none": {
        "shots_summary.csv":
            "a5fb92ce7a829346b35bc122948727b12c7cd9a17fe4b788723d628dfb3d2cea",
        "shots_sweep.svg":
            "ab71fe6c0251f3179902ebaeef98018b29a8432cf1edf9630f267b321da9d09d",
        "trace_shots100.csv":
            "233f2b169462f90140d185e393b7cd1ad8ab85f8d30a4347ff328e7deef06fdc",
    },
    "vqe-mgd-eta": {
        "summary.csv":
            "a5af754556410ca4f0a30493503f8efb9a0ac9ca06d4ce43e23a521f83073072",
        "trace_points.npy":
            "444335f0597c54f04fc19dee74b3213165a6841fb59057c360d3cd2860eece33",
        "trace_rep0.csv":
            "4b5cbfb567fb9f91ff5848a10886fa4dd4afe765c1eedd856af3ebca997a016e",
        "trace_rep0.svg":
            "9db87ce905f3716c4a8bd4e869e0cf9e8094d5864ae658358bced6af241863ee",
    },
    "vqe-mgd-tflo": {
        "summary.csv":
            "17025b916d91bb831708f3b6a1b0b459a54de9f22012e1c95995bafcc8bafe2c",
        "trace_points.npy":
            "01705c1c4dd29da69d1ff0b5d517669d1a6a19954e92614748df1527c9ac7893",
        "trace_rep0.csv":
            "48ccbba31477992a7f934fa5d7424022553f2a7a2a847be00e3fd789d7f905a9",
        "trace_rep0.svg":
            "561eb5c5f6c167a3dcab07ac3178d33a38c17da84f1e7efdca2082987014cecc",
        "trace_rep1.csv":
            "ef250ab8e0b4245496b58f5ae9dbdbfde81f1b10a995197c07ea662d41130fac",
    },
    "vqe-speedup-sweep": {
        "speedup_sweep.csv":
            "0914f20fb0e80a0de0dc2d195b41eb73df1e4c5b01fbe267a1f7bcd5ea6dda45",
        "speedup_sweep.svg":
            "3b21c805bc49b0c3d5787b27eafdbc53ac4da6728a63b90cc0660a41bef59e9f",
    },
    "vqe-spsa": {
        "summary.csv":
            "2a40edab921fac5d94e55e62027b473d255a3735df753b033caa778e155593e1",
        "trace_points.npy":
            "d41cfeae56c7e3afd2da6f2827b1c588727b28eaf832d6ee2aae728e31b476fe",
        "trace_rep0.csv":
            "5ab7fc14a2957e7bb7d62594c6cf426c0a101dc79e664ba2d5c920389fd15409",
        "trace_rep0.svg":
            "bc549e9318d6a569c4b958a9d640301e8e9cb464723b18ca50cf264b29215aae",
        "trace_rep1.csv":
            "137ef1481eda4aa5e2c2336deb6d71089e1df09498047158db4845f2c2a11d77",
    },
    "vqe-spsa-none": {
        "summary.csv":
            "0777d30eb98507f690900fb4dd597f03c2dc280dffb9c292f23cbfa74cc6c5e2",
        "trace_points.npy":
            "3fbd333a1e3775df558570b3bb7e26f7937d9dbf121406e76c720c1b08c8033e",
        "trace_rep0.csv":
            "b46659ef6652d960dfa02138bce4356b87c30bc2d699bfe99fa99b6f319bf30f",
        "trace_rep0.svg":
            "0dc901e9a10dc0236158001608c8de35198e9a83adb78ad65510b688d541c85f",
    },
}


# record.json of each case, its config paths replaced by their file names
RECORDS = {
    "benchmark-pairs":
        "240cc72727b2d1066060d2666e21f628c439b10fbc723a3e832e23fc98a38df2",
    "benchmark-pairs-ring":
        "7b9550252726ab4539efb9caff129e37947751caddf416dcc8bd4ec5ffea0caf",
    "heatmap-matching":
        "71d922d9e61dbe9f884c4a3b5d29b574c98dac0c5948946280898512236d0f16",
    "heatmap-ni":
        "5d9cba3deb3fbad70975aff3676d69bffff2ea70efc390af8f0cf0e0b05ce5d7",
    "heatmap-none":
        "36ede6d0d223161dd165ed47c96c03a952804a3732146041d5fe8ab61356206e",
    "heatmap-tflo":
        "fbcae122e5637ab63e57cd319f85662f0e66ab0259f88250e82ce13780428ae0",
    "optimizer-compare":
        "20e27cdbe6155d2f53faaf81235dd3ad1d8e0103e71354a08e32ac9d77e55f25",
    "optimizer-compare-prefix":
        "762d24a5c88a805c87d2a2a3d371f29dfecce3dc0cb47af3f4a969ba76c6f064",
    "shots-sweep":
        "5f698009d4a6f0a8c4b0ce8e664e7d252ef96300651357bf4a6b4679ac3b9c2c",
    "shots-sweep-none":
        "e47de667fdf95ff82464af673b0b71cacafa82a96ff69d7537a508d969f24db5",
    "vqe-mgd-eta":
        "c3868cf23ad2f540568989d9e932215dc8fb61b13166b4a26fba46565e396aac",
    "vqe-mgd-tflo":
        "f3ff3c67330d4dffaebd7ca01e4f05cf3ef96be887ed3d6ead973e7afae35bde",
    "vqe-speedup-sweep":
        "d4554d759fc172f17a5a29dac7042d0d94d09fccfca83ffd753ae69b0c13fcb3",
    "vqe-spsa":
        "8aa8c5589b319a02b51ded2406237d2bb9eef7f9d0b0874b3698b0aaf58b037e",
    "vqe-spsa-none":
        "b91d5210df46a0c926bccdd1ea0384e1cc1fdf476482d0a348721fc8c8f8e0b1",
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


def record_digest(out: Path) -> str:
    """The sha256 of out/record.json with each path-valued config entry
    replaced by its file name, so that it does not depend on where the run
    read and wrote its files."""
    payload = json.loads((out / "record.json").read_text())
    config = payload["config"]
    for key in ("out_dir", "calibration", "cost_model"):
        if key in config:
            config[key] = Path(config[key]).name
    return hashlib.sha256(json.dumps(payload, indent=1, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_digests(name, tmp_path):
    run_case(name, tmp_path)
    assert record_digest(tmp_path / "out") == RECORDS[name]

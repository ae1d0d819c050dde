import json
from pathlib import Path

import pytest

from latloc.cli import main
from latloc.simulator import DelayParams, SimWorld, calibration_mesh, generate_topology, simulate_measurement
from latloc.latency import measurements_to_csv
from latloc.placement import dragoon_place
from latloc.topology import topology_to_json

EUROPE = (35.0, 60.0, -10.0, 30.0)


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    """Topology JSON, landmark JSON, calibration CSV, and one target's probe
    CSV, all exported from a dense noiseless world."""
    root = tmp_path_factory.mktemp("world")
    topology = generate_topology(30, EUROPE, 6000, seed=6)
    world = SimWorld(topology, 6, DelayParams())
    (root / "topology.json").write_text(topology_to_json(topology))

    landmarks = dragoon_place(topology, 8)
    (root / "landmarks.json").write_text(landmarks.to_json())

    mesh = calibration_mesh(world, list(landmarks.landmarks))
    (root / "mesh.csv").write_text(measurements_to_csv(mesh))

    target = next(n for n in topology.node_ids if n not in landmarks.landmarks)
    probes = [simulate_measurement(world, lm, target) for lm in landmarks.landmarks]
    (root / "target.csv").write_text(measurements_to_csv(probes))
    truth = topology.positions[target]
    (root / "truth.txt").write_text(f"{truth.lat},{truth.lon}")
    return root


def run(args):
    return main([str(a) for a in args])


def test_place_writes_landmarks(world_files, tmp_path, capsys):
    out = tmp_path / "lms.json"
    code = run(["place", "--topology", world_files / "topology.json",
                "--k", 10, "--algorithm", "dragoon", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["landmarks"]) == 10
    assert "max_hop" in capsys.readouterr().out


def test_place_k_zero_is_usage_error(world_files, capsys):
    code = run(["place", "--topology", world_files / "topology.json", "--k", 0])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_place_missing_file_is_io_error(tmp_path):
    code = run(["place", "--topology", tmp_path / "nope.json", "--k", 3])
    assert code == 2


def test_place_byte_identical_reruns(world_files, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["place", "--topology", world_files / "topology.json",
                    "--k", 6, "--out", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_produces_models(world_files, tmp_path):
    out = tmp_path / "models.json"
    code = run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", out])
    assert code == 0
    models = json.loads(out.read_text())
    assert len(models) == 8
    for model in models.values():
        assert model["fit_rss"] <= 1e-6 * model["sample_count"]


def test_fit_malformed_csv_names_line(world_files, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("l1,t1,3,10.0\nl2,t1,x,9.0\n")
    code = run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", bad])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_locate_end_to_end_error_under_5km(world_files, tmp_path):
    models = tmp_path / "models.json"
    assert run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", models]) == 0
    out = tmp_path / "estimate.json"
    geojson = tmp_path / "estimate.geojson"
    truth = (world_files / "truth.txt").read_text()
    code = run(["locate", "--topology", world_files / "topology.json",
                "--models", models, "--measurements", world_files / "target.csv",
                "--truth", truth, "--out", out, "--geojson", geojson])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["error_km"] <= 5.0
    # One indent-2 dump of the document: the bytes a decode and re-encode of
    # the estimate's own JSON would give.
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fc = json.loads(geojson.read_text())
    assert fc["type"] == "FeatureCollection"
    kinds = {f["properties"]["kind"] for f in fc["features"]}
    assert "estimate" in kinds and "candidate" in kinds


def test_locate_single_landmark_rejected(world_files, tmp_path, capsys):
    models = tmp_path / "models.json"
    assert run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", models]) == 0
    single = tmp_path / "single.csv"
    lines = (world_files / "target.csv").read_text().splitlines()
    single.write_text("\n".join(lines[:2]) + "\n")
    code = run(["locate", "--topology", world_files / "topology.json",
                "--models", models, "--measurements", single])
    assert code == 1
    assert ">= 2 landmarks" in capsys.readouterr().err



def test_locate_non_finite_rtt_rejected(world_files, tmp_path, capsys):
    models = tmp_path / "models.json"
    assert run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", models]) == 0
    lines = (world_files / "target.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3] + ["nan"])
    probes = tmp_path / "nan.csv"
    probes.write_text("\n".join(lines) + "\n")
    out = tmp_path / "estimate.json"
    code = run(["locate", "--topology", world_files / "topology.json",
                "--models", models, "--measurements", probes, "--out", out])
    assert code == 1
    assert "line 3" in capsys.readouterr().err
    assert not out.exists()

def test_simulate_reproducible_reports(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = run(["simulate", "--n-nodes", 25, "--radius-km", 5000,
                    "--world-seed", 3, "--seed", 3, "--k", 6,
                    "--n-targets", 4, "--out", out])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_zero_targets_usage_error(capsys):
    assert run(["simulate", "--n-targets", 0]) == 1


def test_eval_compares_methods(tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = run(["eval", "--n-nodes", 25, "--radius-km", 5000,
                "--world-seed", 4, "--seed", 4, "--k", 6, "--n-targets", 4,
                "--algorithms", "dragoon,two_approx",
                "--out", out, "--csv-out", tmp_path / "eval.csv"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["methods"]) == {"dragoon", "two_approx"}
    for method in doc["methods"].values():
        assert len(method["targets"]) == 4
    csv_lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 * 4


def test_eval_unknown_algorithm(capsys):
    assert run(["eval", "--algorithms", "bogus"]) == 1


def test_bad_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_edge_list_format(tmp_path):
    (tmp_path / "nodes.txt").write_text("a 50 8\nb 51 9\nc 52 10\n")
    (tmp_path / "edges.txt").write_text("a b\nb c\n")
    out = tmp_path / "lms.json"
    code = run(["place", "--topology", tmp_path / "edges.txt",
                "--format", "edge-list", "--nodes", tmp_path / "nodes.txt",
                "--k", 1, "--out", out])
    assert code == 0
    assert json.loads(out.read_text())["landmarks"] == ["b"]

import json
import math
from pathlib import Path

import pytest

from latloc.cli import main
from latloc.simulator import (
    DelayParams,
    SimWorld,
    calibration_mesh,
    generate_topology,
    run_experiment,
    simulate_measurement,
)
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


MALFORMED_INPUTS = [
    ("place", "--topology", '{"nodes": 5, "edges": []}', "'nodes' must be a list, got int"),
    ("place", "--topology", '{"nodes": [{"id": "a", "lat": 0, "lon": 0}], "edges": 7}',
     "'edges' must be a list, got int"),
    ("fit", "--landmarks", '{"foo": 1}', "landmark set JSON has no entry 'landmarks'"),
    ("fit", "--landmarks", "[1, 2]", "landmark set JSON must be an object, got list"),
    ("fit", "--landmarks", '{"landmarks": [7], "assignment": {}, '
     '"objective": {"max_hop": 0, "mean_hop": 0}}', "non-string landmark 7"),
    ("locate", "--models", '{"a": {"p": 1}}', "model for landmark 'a' has no entry 'q'"),
    ("locate", "--models", "[]", "models JSON must be an object, got list"),
]


@pytest.mark.parametrize("command, flag, content, message", MALFORMED_INPUTS, ids=[
    "nodes-not-list", "edges-not-list", "no-landmarks-entry", "landmarks-not-object",
    "non-string-landmark", "model-missing-q", "models-not-object"])
def test_malformed_input_file_is_error_not_traceback(world_files, tmp_path, capsys,
                                                      command, flag, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    files = {
        "--topology": world_files / "topology.json",
        "--landmarks": world_files / "landmarks.json",
        "--measurements": world_files / ("mesh.csv" if command == "fit" else "target.csv"),
        flag: bad,
    }
    needed = {"place": ["--topology"], "fit": ["--topology", "--landmarks", "--measurements"],
              "locate": ["--topology", "--models", "--measurements"]}[command]
    argv = [command, "--k", 3] if command == "place" else [command]
    for f in needed:
        argv += [f, files[f]]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_fit_rejects_landmark_not_in_topology(world_files, tmp_path, capsys):
    doc = json.loads((world_files / "landmarks.json").read_text())
    doc["landmarks"].append("ghost")
    landmarks = tmp_path / "landmarks.json"
    landmarks.write_text(json.dumps(doc))
    mesh = tmp_path / "mesh.csv"
    first = doc["landmarks"][0]
    mesh.write_text((world_files / "mesh.csv").read_text() + f"ghost,{first},3,10.0\n")
    code = run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", landmarks, "--measurements", mesh])
    assert code == 1
    assert capsys.readouterr().err == "error: landmark 'ghost' not in topology\n"


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


@pytest.mark.parametrize("flag", ["--eps0-m", "--eps-min-m", "--gap-max-km"])
def test_locate_non_finite_grid_setting_rejected(world_files, tmp_path, capsys, flag):
    models = tmp_path / "models.json"
    assert run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", models]) == 0
    out = tmp_path / "estimate.json"
    code = run(["locate", "--topology", world_files / "topology.json", "--models", models,
                "--measurements", world_files / "target.csv", flag, "nan", "--out", out])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise-mean-ms", "--per-hop-ms", "--gap-max-km"])
def test_simulate_non_finite_setting_rejected(tmp_path, capsys, flag):
    # --noise-mean-ms nan used to run silently without noise.
    out = tmp_path / "report.json"
    code = run(["simulate", "--n-nodes", 25, "--radius-km", 5000, "--k", 6,
                "--n-targets", 2, flag, "nan", "--out", out])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def _fit_models(world_files, models, *extra):
    return run(["fit", "--topology", world_files / "topology.json",
                "--landmarks", world_files / "landmarks.json",
                "--measurements", world_files / "mesh.csv", "--out", models, *extra])


@pytest.mark.parametrize("value", ["nan", "-5", "inf"])
def test_fit_and_locate_reject_bad_per_hop_ms(world_files, tmp_path, capsys, value):
    # NaN used to reach predict_distance as max(0.0, nan) = 0 km circles.
    models = tmp_path / "models.json"
    assert _fit_models(world_files, models, "--per-hop-ms", value) == 1
    assert not models.exists()
    assert _fit_models(world_files, models) == 0
    out = tmp_path / "estimate.json"
    code = run(["locate", "--topology", world_files / "topology.json", "--models", models,
                "--measurements", world_files / "target.csv", "--per-hop-ms", value,
                "--out", out])
    assert code == 1
    assert "per-hop delay" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param", ["p", "q", "n", "m", "fit_rss"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_locate_rejects_non_finite_model_file(world_files, tmp_path, capsys, param, value):
    models = tmp_path / "models.json"
    assert _fit_models(world_files, models) == 0
    doc = json.loads(models.read_text())
    landmark = sorted(doc)[-1]
    doc[landmark][param] = value
    models.write_text(json.dumps(doc))  # json writes the NaN/Infinity literals
    out = tmp_path / "estimate.json"
    code = run(["locate", "--topology", world_files / "topology.json", "--models", models,
                "--measurements", world_files / "target.csv", "--out", out])
    assert code == 1
    assert f"landmark {landmark!r}" in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_output_is_one_dump_of_the_reports(tmp_path):
    # The bytes the old decode-and-re-encode of each report's JSON gave.
    out = tmp_path / "eval.json"
    code = run(["eval", "--n-nodes", 25, "--radius-km", 5000, "--world-seed", 4, "--seed", 5,
                "--k", 6, "--n-targets", 4, "--noise-mean-ms", 1.5,
                "--algorithms", "dragoon,random,shortest_ping_only", "--out", out])
    assert code == 0
    world = SimWorld(generate_topology(25, EUROPE, 5000, 4), 4, DelayParams(stochastic_mean_ms=1.5))
    methods = {}
    for strategy in ("dragoon", "random", "shortest_ping_only"):
        report = run_experiment(world, 6, strategy, 4, 5)
        methods[strategy] = json.loads(report.to_json())
        assert methods[strategy] == report.to_dict()
        assert set(methods[strategy]) == {"strategy", "landmarks", "world_seed",
                                          "experiment_seed", "summary", "targets"}
    want = {"world_seed": 4, "experiment_seed": 5, "methods": methods}
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("command", ["simulate", "eval"])
@pytest.mark.parametrize("radius", ["nan", "-5", "0", "inf"])
def test_simulate_and_eval_reject_bad_radius(tmp_path, capsys, command, radius):
    # It used to fail only after 12 radius growths, with a misleading message.
    out = tmp_path / "out.json"
    code = run([command, "--n-nodes", 10, "--k", 3, "--n-targets", 2,
                "--radius-km", radius, "--out", out])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: connection radius must be positive and finite, got {float(radius)!r} km\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def models_file(world_files):
    models = world_files / "models.json"
    assert _fit_models(world_files, models) == 0
    return models


def _topology_args(doc: dict, root: Path, fmt: str) -> list:
    """--topology flags for doc, written in the given format under root."""
    if fmt == "json":
        (root / "topology.json").write_text(json.dumps(doc))
        return ["--topology", root / "topology.json"]
    (root / "nodes.txt").write_text(
        "".join(" ".join(str(n[key]) for key in ("id", "lat", "lon") if key in n) + "\n"
                for n in doc["nodes"]))
    (root / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in doc["edges"]))
    return ["--topology", root / "edges.txt", "--format", "edge-list",
            "--nodes", root / "nodes.txt"]


def _locate(world_files, models, topology_args, out):
    return run(["locate", *topology_args, "--models", models,
                "--measurements", world_files / "target.csv", "--out", out])


def _topology_doc(world_files) -> dict:
    return json.loads((world_files / "topology.json").read_text())


def _edge_faults(doc: dict) -> dict:
    first = doc["nodes"][0]["id"]
    return {
        "disconnected": {**doc, "edges": [e for e in doc["edges"] if first not in e]},
        "dangling": {**doc, "edges": doc["edges"] + [[first, "ghost"]]},
        "duplicated": {**doc, "edges": doc["edges"] + [doc["edges"][0]]},
    }


def _node_faults(doc: dict) -> dict:
    nodes = doc["nodes"]
    no_lon = {k: v for k, v in nodes[0].items() if k != "lon"}
    return {
        "duplicate-id": {**doc, "nodes": nodes + [nodes[0]]},
        "lat-91": {**doc, "nodes": [{**nodes[0], "lat": 91}] + nodes[1:]},
        "missing-lon": {**doc, "nodes": [no_lon] + nodes[1:]},
        "nodes-not-list": {**doc, "nodes": 5},
        "no-nodes": {**doc, "nodes": []},
    }


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
@pytest.mark.parametrize("fault", ["disconnected", "dangling", "duplicated"])
def test_locate_does_not_read_topology_edges(world_files, models_file, tmp_path, capsys,
                                             fmt, fault):
    # locate reads node positions only; place and fit validate the graph.
    doc = _topology_doc(world_files)
    (tmp_path / "valid").mkdir()
    (tmp_path / "faulty").mkdir()
    valid = _topology_args(doc, tmp_path / "valid", fmt)
    faulty = _topology_args(_edge_faults(doc)[fault], tmp_path / "faulty", fmt)
    assert run(["place", *faulty, "--k", 3]) == 1
    capsys.readouterr()
    assert _locate(world_files, models_file, valid, tmp_path / "valid.json") == 0
    assert _locate(world_files, models_file, faulty, tmp_path / "faulty.json") == 0
    assert (tmp_path / "faulty.json").read_bytes() == (tmp_path / "valid.json").read_bytes()


# The node sidecar of the edge-list format has no JSON shape to get wrong.
NODE_FAULTS = [(fmt, fault) for fmt in ("json", "edge-list")
               for fault in ("duplicate-id", "lat-91", "missing-lon", "nodes-not-list", "no-nodes")
               if (fmt, fault) != ("edge-list", "nodes-not-list")]


@pytest.mark.parametrize("fmt, fault", NODE_FAULTS)
def test_locate_rejects_node_faults_as_place_does(world_files, models_file, tmp_path, capsys,
                                                  fmt, fault):
    topology = _topology_args(_node_faults(_topology_doc(world_files))[fault], tmp_path, fmt)
    assert run(["place", *topology, "--k", 3]) == 1
    place_err = capsys.readouterr().err
    out = tmp_path / "estimate.json"
    assert _locate(world_files, models_file, topology, out) == 1
    assert capsys.readouterr().err == place_err
    assert place_err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
def test_locate_landmark_missing_from_nodes(world_files, models_file, tmp_path, capsys, fmt):
    doc = _topology_doc(world_files)
    landmark = (world_files / "target.csv").read_text().splitlines()[1].split(",")[0]
    doc["nodes"] = [n for n in doc["nodes"] if n["id"] != landmark]
    doc["edges"] = [e for e in doc["edges"] if landmark not in e]
    topology = _topology_args(doc, tmp_path, fmt)
    assert _locate(world_files, models_file, topology, tmp_path / "estimate.json") == 1
    assert capsys.readouterr().err == f"error: landmark {landmark!r} not in topology\n"


def test_main_reuses_one_parser(world_files, models_file, tmp_path):
    from latloc import cli

    def fresh(argv):  # a run with a parser of its own
        args = cli.build_parser().parse_args([str(a) for a in argv])
        return getattr(cli, f"cmd_{args.command}")(args)

    truth = (world_files / "truth.txt").read_text()
    base = ["locate", "--topology", world_files / "topology.json",
            "--measurements", world_files / "target.csv"]
    # A usage error first (no --models), then a run with --truth, then one without.
    assert run(base + ["--truth", truth, "--out", tmp_path / "usage.json"]) == 1
    assert not (tmp_path / "usage.json").exists()
    for name, extra in (("truth", ["--truth", truth]), ("plain", [])):
        argv = base + ["--models", models_file, *extra]
        assert run(argv + ["--out", tmp_path / f"{name}.json"]) == 0
        assert fresh(argv + ["--out", tmp_path / f"{name}.fresh.json"]) == 0
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (tmp_path / f"{name}.fresh.json").read_bytes()
    assert "error_km" in json.loads((tmp_path / "truth.json").read_text())
    assert set(json.loads((tmp_path / "plain.json").read_text())).isdisjoint({"truth", "error_km"})
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_main_finds_commands_when_they_run(monkeypatch):
    # A wrapper set on a command after the parser was built still sees the call.
    from latloc import cli

    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.command) or 0)
    assert run(["eval"]) == 0
    assert seen == ["eval"]


def test_locate_checks_truth_before_reading_inputs(world_files, tmp_path, capsys):
    code = run(["locate", "--topology", world_files / "topology.json",
                "--models", tmp_path / "missing.json",
                "--measurements", world_files / "target.csv", "--truth", "50;8"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --truth must be 'lat,lon'")

import json

import numpy as np
import pytest

from circleinterp.cli import _load_nodes_file, _parse_ns, _parse_tau, main


class TestParsers:
    def test_tau(self):
        assert _parse_tau("1") == 1.0 + 0j
        assert _parse_tau("-1") == -1.0 + 0j
        assert _parse_tau("0,1") == 1j

    def test_ns(self):
        assert _parse_ns("8:64") == [8, 16, 32, 64]
        assert _parse_ns("3,5,9") == [3, 5, 9]

    def test_nodes_file_json(self, tmp_path):
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        nodes = _load_nodes_file(path)
        assert np.allclose(nodes, [1.0, 1j])

    def test_nodes_file_angles(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("0.0\n1.5707963267948966\n")
        nodes = _load_nodes_file(path)
        assert np.allclose(nodes, [1.0, 1j])


class TestCommands:
    def test_nodes_lebesgue(self, capsys):
        assert main(["nodes", "--n", "4", "--tau", "1"]) == 0
        out = capsys.readouterr().out
        thetas = [float(line) for line in out.strip().splitlines()]
        expected = [np.pi / 4 * (2 * k + 1) for k in range(4)]
        # zeros of z^4 + 1
        assert np.allclose(np.sort(thetas), np.sort([np.angle(np.exp(1j * t)) % (2 * np.pi) for t in expected]))

    def test_nodes_json_round_trip(self, tmp_path):
        out = tmp_path / "nodes.json"
        main(["nodes", "--n", "6", "--format", "json", "--out", str(out)])
        nodes = _load_nodes_file(out)
        assert len(nodes) == 6
        assert np.max(np.abs(np.abs(nodes) - 1.0)) < 1e-12

    def test_check_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "--n", "16", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 16
        assert payload["B_hat_nodes"] == pytest.approx(1.0, abs=1e-9)
        assert payload["reliable"] is True
        assert payload["metadata"]["version"]
        assert len(payload["metadata"]["config_hash"]) == 16

    def test_interp_command(self, tmp_path):
        out = tmp_path / "interp.json"
        code = main(["interp", "--n", "32", "--corpus", "smooth-exp",
                     "--grid", "1024", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sup_error"] < 1e-10

    def test_interval_command_with_nodes_csv(self, tmp_path):
        out = tmp_path / "iv.json"
        nodes_out = tmp_path / "nodes.csv"
        code = main(["interval", "--n", "6", "--variant", "mu2",
                     "--corpus", "smooth-exp", "--out", str(out),
                     "--nodes-out", str(nodes_out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["endpoints"] == {"minus_one": True, "plus_one": True}
        assert payload["sup_error"] < 1e-6
        lines = nodes_out.read_text().strip().splitlines()
        assert lines[0] == "j,x_j,theta_j,endpoint_flag"
        assert len(lines) == 9

    def test_trig_command(self, tmp_path):
        out = tmp_path / "trig.json"
        code = main(["trig", "--n", "8", "--corpus", "smooth-exp",
                     "--variant", "para", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["degree"] == 4

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "corpus": "smooth-exp", "grid": 512}))
        out = tmp_path / "r.json"
        code = main(["interp", "--config", str(cfg), "--n", "16", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["n"] == 16

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["interp", "--n", "8"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_numerical_error_exit_2(self, tmp_path, capsys):
        # verblunsky alpha on the unit circle is outside the admissible class
        m = tmp_path / "bad.json"
        m.write_text(json.dumps({"kind": "verblunsky", "alphas": [[1.0, 0.0]]}))
        code = main(["nodes", "--n", "4", "--measure", str(m)])
        assert code == 1  # rejected at validation time

    def test_sweep_determinism(self, tmp_path):
        args = ["sweep", "--family", "roots-of-unity", "--ns", "8,16,32",
                "--corpus", "holder:0.6", "--grid", "1024"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ja = json.loads((tmp_path / "a.json").read_text())
        jb = json.loads((tmp_path / "b.json").read_text())
        assert ja["metadata"]["config_hash"] == jb["metadata"]["config_hash"]
        assert ja["rows"] == jb["rows"]

    def test_sweep_stdout(self, capsys):
        code = main(["sweep", "--family", "roots-of-unity", "--ns", "4,8",
                     "--corpus", "smooth-exp", "--grid", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("n,p,q,s,sup_error,lebesgue_max,B_hat,L_hat")

    def test_sweep_failed_n_exit_2(self, tmp_path, capsys):
        # alpha_k = 0.5 for every k: the zeros collide at n = 64 only
        m = tmp_path / "const.json"
        m.write_text(json.dumps({"kind": "verblunsky", "alphas": [[0.5, 0.0]] * 64}))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--family", "para-orthogonal", "--measure", str(m),
                     "--ns", "8,16,32,64", "--corpus", "smooth-exp", "--grid", "512",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("sweep failed at n=64: error: ")
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert [row["status"] == "ok" for row in rows] == [True, True, True, False]
        assert len(out.read_text().strip().splitlines()) == 5

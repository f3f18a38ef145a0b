import json

import numpy as np
import pytest

from circleinterp import (ParaOrthogonalSpec, ValidationError, corpus, eval_interpolant,
                          interpolate, interval_interpolate, interval_nodes_from_measure,
                          make_degree_plan, paraorthogonal_nodes, trig_interpolate_paraorthogonal,
                          trig_interpolate_symmetric)
from circleinterp.cli import (INTERVAL_WEIGHTS, _dense_csv, _load_nodes_file, _parse_ns,
                              _parse_tau, _parser, main)
from circleinterp.laurent import _uniform_angles


class TestParsers:
    def test_tau(self):
        assert _parse_tau("1") == 1.0 + 0j
        assert _parse_tau("-1") == -1.0 + 0j
        assert _parse_tau("0,1") == 1j

    def test_ns(self):
        assert _parse_ns("8:64") == [8, 16, 32, 64]
        assert _parse_ns("3,5,9") == [3, 5, 9]

    @pytest.mark.parametrize("raw", ["0:8", "-4:8"])
    def test_ns_range_must_start_at_one(self, raw):
        """Doubling from n <= 0 never passes the upper bound."""
        with pytest.raises(ValidationError, match="n >= 1"):
            _parse_ns(raw)
        assert main(["sweep", f"--ns={raw}", "--corpus", "smooth-exp"]) == 1

    def test_sweep_over_n_one_exits_1_before_any_n_runs(self, tmp_path, capsys, monkeypatch):
        from circleinterp import experiments

        monkeypatch.setattr(experiments, "_sweep_one", lambda *a: pytest.fail("an n ran"))
        assert main(["sweep", "--ns", "1:64", "--corpus", "holder:0.6"]) == 1
        assert "each n in ns must be >= 2" in capsys.readouterr().err
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ns": [1, 2]}))
        assert main(["sweep", "--config", str(path), "--corpus", "holder:0.6"]) == 1

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


def _dense_csv_per_scalar(xs, f_vals, approx, header):
    """The dense CSV writer as it was, with float() on every numpy scalar."""
    lines = [header]
    for x, fv, av in zip(xs, f_vals, approx):
        lines.append(f"{float(x)!r},{float(fv)!r},{float(av)!r},{abs(float(fv) - float(av))!r}")
    return "\n".join(lines) + "\n"


def test_dense_csv_bytes_unchanged():
    """Formatting from tolist() gives the bytes of float() per scalar,
    also where f - L is exactly 0, subnormal, signed zero or not finite."""
    rng = np.random.default_rng(1503)
    xs = np.sort(rng.uniform(-1.0, 1.0, 2001))
    f = rng.standard_normal(2001) * 10.0 ** rng.integers(-300, 300, 2001)
    approx = f * (1.0 + rng.standard_normal(2001) * 1e-14)
    approx[:200] = f[:200]                      # difference exactly 0
    tiny = 5e-324 * rng.integers(1, 2**20, 200)
    f[200:400] = tiny
    approx[200:400] = 2.0 * tiny                # subnormal differences
    f[400:410], approx[400:410] = 0.0, -0.0
    f[410:413] = [np.inf, np.nan, -np.inf]
    approx[410:413] = [np.inf, 1.0, 2.0]
    header = "x,f,interpolant,error"
    want = _dense_csv_per_scalar(xs, f, approx, header)
    assert _dense_csv(xs, f, approx, header).encode() == want.encode()
    assert _dense_csv(list(xs), f.tolist(), approx, header) == want


class TestCommands:
    def test_nodes_lebesgue(self, capsys):
        assert main(["nodes", "--n", "4", "--tau", "1"]) == 0
        out = capsys.readouterr().out
        thetas = [float(line) for line in out.strip().splitlines()]
        expected = [np.pi / 4 * (2 * k + 1) for k in range(4)]
        # zeros of z^4 + 1
        assert np.allclose(np.sort(thetas), np.sort([np.angle(np.exp(1j * t)) % (2 * np.pi) for t in expected]))

    def test_bernstein_szego_file_matches_its_alphas(self, tmp_path, capsys):
        """h = 1 - z/2 gives alpha = [0.5] exactly: the same nodes and
        condition report, byte for byte, as the verblunsky file."""
        files = {"verblunsky": {"kind": "verblunsky", "alphas": [[0.5, 0]]},
                 "bernstein-szego": {"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-0.5, 0]]}}
        outputs = {}
        for name, spec in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spec))
            assert main(["nodes", "--n", "257", "--measure", str(path)]) == 0
            nodes = capsys.readouterr().out
            assert main(["check", "--n", "64", "--measure", str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("metadata")
            outputs[name] = (nodes, json.dumps(report))
        assert outputs["verblunsky"] == outputs["bernstein-szego"]

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
        assert payload["log10_L_hat"] == pytest.approx(0.0, abs=1e-12)
        assert payload["log10_lebesgue_max"] == pytest.approx(
            np.log10(payload["lebesgue_max"]), rel=1e-13)
        assert payload["metadata"]["version"]
        assert len(payload["metadata"]["config_hash"]) == 16

    def test_check_report_is_strict_json(self, tmp_path):
        """For alpha_k = 0.7 (-1)^k at n = 1024, L_hat and the Lebesgue
        maximum overflow to inf; the report writes them as null."""
        spec = tmp_path / "spec.json"
        alphas = [[0.7 * (-1) ** k, 0.0] for k in range(1024)]
        spec.write_text(json.dumps({"kind": "verblunsky", "alphas": alphas}))
        out = tmp_path / "report.json"
        assert main(["check", "--n", "1024", "--measure", str(spec), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"report holds the non-JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["L_hat"] is None and payload["lebesgue_max"] is None
        assert payload["B_hat"] > 0
        # their logs stay finite: the Lebesgue maximum is near 1e385
        assert payload["log10_L_hat"] > 308 and payload["log10_lebesgue_max"] > 308

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

    def test_trig_symmetric_default(self, tmp_path):
        """Without --variant, trig takes the symmetric construction on the
        Chebyshev-1 weight."""
        out, dense = tmp_path / "trig.json", tmp_path / "trig.csv"
        code = main(["trig", "--n", "32", "--corpus", "lipschitz", "--grid", "1024",
                     "--out", str(out), "--dense", str(dense)])
        assert code == 0
        F = corpus("lipschitz")
        tp = trig_interpolate_symmetric(INTERVAL_WEIGHTS["chebyshev1"], 32, F)
        theta = _uniform_angles(1024)
        assert dense.read_text() == _dense_csv(theta, F(theta), tp(theta),
                                               "theta,f,interpolant,error")
        payload = json.loads(out.read_text())
        assert payload["variant"] == "symmetric" and payload["degree"] == tp.degree
        assert payload["sup_error"] == float(np.max(np.abs(F(theta) - tp(theta))))

    def test_interp_dense(self, tmp_path):
        """The dense CSV holds the real part of the library interpolant on
        the uniform grid and, as its error, the complex distance |f - L| of
        the report's sup_error."""
        out, dense = tmp_path / "interp.json", tmp_path / "interp.csv"
        code = main(["interp", "--n", "32", "--corpus", "holder:0.6", "--r", "0.25",
                     "--grid", "512", "--out", str(out), "--dense", str(dense)])
        assert code == 0
        F = corpus("holder", 0.6)
        system = paraorthogonal_nodes(np.zeros(32), ParaOrthogonalSpec(n=32, tau=1.0))
        I = interpolate(system, make_degree_plan(32, 0.25), F.on_circle(system.nodes))
        theta = _uniform_angles(512)
        approx = eval_interpolant(I, np.exp(1j * theta))
        assert dense.read_text() == _dense_csv(theta, F(theta), approx,
                                               "theta,f,interpolant,error")
        payload = json.loads(out.read_text())
        assert (payload["p"], payload["q"], payload["s"]) == (7, 24, 7)
        assert payload["sup_error"] == float(np.max(np.abs(F(theta) - approx)))
        assert payload["grid_size"] == 512

    def test_interp_dense_error_is_the_reports(self, tmp_path):
        """The largest error in the interp CSV is the report's sup_error,
        also where the interpolant is far from real (a step at r = 0.1)."""
        out, dense = tmp_path / "interp.json", tmp_path / "interp.csv"
        code = main(["interp", "--n", "33", "--corpus", "step-smooth", "--r", "0.1",
                     "--grid", "1000", "--out", str(out), "--dense", str(dense)])
        assert code == 0
        rows = [line.split(",") for line in dense.read_text().strip().splitlines()[1:]]
        f, interpolant, error = (np.array([float(r[k]) for r in rows]) for k in (1, 2, 3))
        assert json.loads(out.read_text())["sup_error"] == error.max()
        assert np.max(np.abs(f - interpolant)) < error.max()

    def test_interval_dense(self, tmp_path):
        """The dense CSV is the library interpolant on the uniform x grid,
        and the report's sup_error is the CSV's largest error."""
        out, dense = tmp_path / "iv.json", tmp_path / "iv.csv"
        code = main(["interval", "--n", "8", "--variant", "mu3", "--weight", "chebyshev2",
                     "--corpus", "smooth-exp", "--grid", "301",
                     "--out", str(out), "--dense", str(dense)])
        assert code == 0
        F = corpus("smooth-exp")
        sys_iv = interval_nodes_from_measure(INTERVAL_WEIGHTS["chebyshev2"], 8, "mu3")
        xg = np.linspace(-1.0, 1.0, 301)
        text = dense.read_text()
        assert text == _dense_csv(xg, F.on_interval(xg), interval_interpolate(sys_iv, F.on_interval)(xg),
                                  "x,f,interpolant,error")
        errors = [float(line.split(",")[3]) for line in text.strip().splitlines()[1:]]
        payload = json.loads(out.read_text())
        assert payload["sup_error"] == max(errors)
        assert payload["n_interior"] == len(sys_iv.xs) and payload["grid_size"] == 301

    def test_trig_para_with_measure_file(self, tmp_path):
        """The CLI takes the file's Verblunsky coefficients to the same
        interpolant as the library call on those coefficients."""
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"kind": "verblunsky", "alphas": [[0.5, 0.0], [0.0, 0.3]]}))
        out, dense = tmp_path / "trig.json", tmp_path / "trig.csv"
        code = main(["trig", "--n", "16", "--variant", "para", "--measure", str(m),
                     "--tau=-1", "--corpus", "holder:0.6", "--grid", "512",
                     "--out", str(out), "--dense", str(dense)])
        assert code == 0
        F = corpus("holder", 0.6)
        alphas = np.array([0.5, 0.3j] + [0.0] * 14)
        tp = trig_interpolate_paraorthogonal(alphas, -1.0, 16, F)
        theta = _uniform_angles(512)
        assert dense.read_text() == _dense_csv(theta, F(theta), tp(theta),
                                               "theta,f,interpolant,error")
        assert json.loads(out.read_text())["degree"] == tp.degree == 8

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "corpus": "smooth-exp", "grid": 512}))
        out = tmp_path / "r.json"
        code = main(["interp", "--config", str(cfg), "--n", "16", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["n"] == 16

    def test_config_keys_shared_across_subcommands(self, tmp_path, capsys):
        """One config file serves several subcommands: a key of another
        subcommand is accepted, a key of none is refused by name."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, "corpus": "smooth-exp", "grid": 64, "variant": "mu2"}))
        for command in ("check", "interp", "interval"):
            assert main([command, "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({"n": 8, "grdi": 5}))
        assert main(["check", "--config", str(cfg)]) == 1
        assert "'grdi'" in capsys.readouterr().err

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["interp", "--n", "8"]) == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,name,text", [
        (["nodes", "--n", "4", "--tau", "abc"], None, None),
        (["sweep", "--ns", "a:8", "--corpus", "smooth-exp"], None, None),
        (["nodes", "--n", "4", "--measure", "{path}"], "m.json", "{"),
        (["nodes", "--n", "4", "--measure", "{path}"], "m.json", "[]"),
        (["nodes", "--n", "4", "--measure", "{path}"], "m.json",
         '{"kind": "verblunsky", "alphas": [[1]]}'),
        (["check", "--nodes", "{path}"], "nodes.txt", "0.0\nxyz\n"),
        (["check", "--nodes", "{path}"], "nodes.json", "[1, 2]"),
        (["nodes", "--n", "4", "--config", "{path}"], "missing.json", None),
        (["nodes", "--n", "4", "--config", "{path}"], "c.json", "[1, 2]"),
        (["interp", "--n", "8", "--corpus", "smooth-exp", "--grid", "-5"], None, None),
        (["interval", "--n", "4", "--corpus", "smooth-exp", "--grid", "-5"], None, None),
        (["trig", "--n", "4", "--corpus", "smooth-exp", "--grid", "-5"], None, None),
        (["interp", "--n", "8", "--corpus", "smooth-exp", "--grid", "0"], None, None),
        (["interval", "--n", "4", "--corpus", "smooth-exp", "--grid", "0"], None, None),
        (["trig", "--n", "4", "--corpus", "smooth-exp", "--grid", "0"], None, None),
        (["sweep", "--ns", "8", "--corpus", "holder:0.5", "--grid", "0"], None, None),
        (["sweep", "--ns", "8", "--corpus", "holder:0.5", "--grid", "-5"], None, None),
        (["nodes", "--n", "-3"], None, None),
        (["interp", "--n", "8", "--corpus", "holder:abc"], None, None),
        (["nodes", "--config", "{path}"], "c.json", '{"n": "4"}'),
        (["nodes", "--config", "{path}"], "c.json", '{"n": 4.5}'),
        (["nodes", "--config", "{path}"], "c.json", '{"n": true}'),
        (["interp", "--n", "8", "--corpus", "smooth-exp", "--config", "{path}"],
         "c.json", '{"r": "x"}'),
        (["interp", "--n", "8", "--corpus", "smooth-exp", "--config", "{path}"],
         "c.json", '{"grid": "big"}'),
        (["interval", "--n", "4", "--corpus", "smooth-exp", "--config", "{path}"],
         "c.json", '{"weight": "legendre"}'),
        (["sweep", "--corpus", "smooth-exp", "--config", "{path}"], "c.json", '{"ns": [8, "x"]}'),
        (["nodes", "--n", "4", "--config", "{path}"], "c.json", '{"tau": [1, 0]}'),
        (["check", "--config", "{path}"], "c.json", '{"n": 8, "grdi": 5}'),
        (["interval", "--n", "4", "--corpus", "smooth-exp", "--weight", "foo"], None, None),
        (["interval", "--n", "abc", "--corpus", "smooth-exp"], None, None),
        (["trig", "--n", "4", "--corpus", "smooth-exp", "--variant", "foo"], None, None),
        (["nodes", "--n", "4", "--format", "xml"], None, None),
        (["interp", "--n", "8", "--corpus", "smooth-exp", "--r", "x"], None, None),
        (["sweep", "--ns", "8", "--corpus", "smooth-exp", "--r", "0"], None, None),
        (["sweep", "--ns", "8", "--corpus", "smooth-exp", "--r", "1"], None, None),
        (["sweep", "--ns", "8", "--corpus", "smooth-exp", "--r", "2.0"], None, None),
        (["nodes", "--n", "4", "--tau", "nan"], None, None),
        (["nodes", "--n", "4", "--measure", "{path}"], "m.json",
         '{"kind": "verblunsky", "alphas": [[NaN, 0]]}'),
        (["check", "--nodes", "{path}"], "nodes.txt", "0.0\nnan\n1.0\n"),
        (["interp", "--nodes", "{path}", "--corpus", "smooth-exp"], "nodes.txt",
         "0.0\n1.0\ninf\n"),
        (["check", "--nodes", "{path}"], "nodes.json", "[[1, 0], [NaN, 0]]"),
        (["check", "--n", "8", "--measure", "{path}"], "m.json",
         '{"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-1, 0]]}'),
        (["check", "--n", "8", "--measure", "{path}"], "m.json",
         '{"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-2, 0]]}'),
        (["nodes", "--n", "8", "--measure", "{path}"], "m.json",
         '{"kind": "bernstein-szego", "h_coeffs": [[1, 0], [NaN, 0]]}'),
        (["nodes", "--n", "8", "--measure", "{path}"], "m.json",
         '{"kind": "bernstein-szego", "h_coeffs": [[0, 0], [1, 0]]}'),
        (["nodes", "--n", "8", "--measure", "{path}"], "m.json",
         '{"kind": "bernstein-szego", "h_coeffs": []}'),
    ], ids=["tau", "ns", "measure-file", "measure-list", "measure-pair",
            "nodes-file", "nodes-pair", "config", "config-list",
            "interp-grid-neg", "interval-grid-neg", "trig-grid-neg",
            "interp-grid-0", "interval-grid-0", "trig-grid-0", "sweep-grid-0", "sweep-grid-neg",
            "nodes-n-neg", "corpus-param", "config-n-str", "config-n-float", "config-n-bool",
            "config-r-str",
            "config-grid-str", "config-weight", "config-ns-list", "config-tau-list",
            "config-unknown-key",
            "flag-weight", "flag-n-str", "flag-variant", "flag-format", "flag-r-str",
            "sweep-r-0", "sweep-r-1", "sweep-r-2", "tau-nan", "measure-nan",
            "nodes-file-nan", "interp-nodes-inf", "nodes-pair-nan",
            "bs-zero-on-circle", "bs-zero-inside", "bs-nan", "bs-h0-zero", "bs-empty"])
    def test_malformed_input_exit_1(self, tmp_path, capsys, argv, name, text):
        """Malformed flags and files end in one line on stderr, not a traceback."""
        path = tmp_path / (name or "unused")
        if text is not None:
            path.write_text(text)
        assert main([a.replace("{path}", str(path)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1

    def test_parser_reused_without_carry_over(self, capsys):
        """main builds its parser once per process.  No value given in one
        call, nor one left by a call that failed, reaches a later call."""
        runs = [
            (["nodes", "--n", "4"], 0),
            (["nodes", "--n", "6", "--tau", "-1", "--format", "json"], 0),
            (["nodes", "--n", "4", "--format", "xml"], 1),
            (["interval", "--n", "8", "--weight", "foo", "--corpus", "smooth-exp"], 1),
            (["check", "--n", "8", "--grid", "64"], 0),
            (["nodes", "--n", "4"], 0),
        ]
        outs = []
        for argv, code in runs:
            assert main(argv) == code
            outs.append(capsys.readouterr().out)
        assert len(json.loads(outs[1])) == 6
        assert outs[2] == outs[3] == ""
        assert json.loads(outs[4])["metadata"]["config"] == {"n": 8, "grid": 64}
        assert outs[5] == outs[0] and len(outs[0].split()) == 4
        assert _parser() is _parser()

    def test_unimodular_alpha_exit_1(self, tmp_path, capsys):
        # verblunsky alpha on the unit circle is outside the admissible class
        m = tmp_path / "bad.json"
        m.write_text(json.dumps({"kind": "verblunsky", "alphas": [[1.0, 0.0]]}))
        code = main(["nodes", "--n", "4", "--measure", str(m)])
        assert code == 1  # rejected at validation time

    def test_numerical_error_exit_2(self, tmp_path, capsys):
        """alpha_k = 0.7 (-1)^k gives valid nodes at n = 64 whose Lebesgue
        function passes 1/sqrt(eps): interpolate raises ConditioningError."""
        m = tmp_path / "alt.json"
        alphas = [[0.7 * (-1) ** k, 0.0] for k in range(300)]
        m.write_text(json.dumps({"kind": "verblunsky", "alphas": alphas}))
        code = main(["interp", "--n", "64", "--measure", str(m), "--corpus", "smooth-exp"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1

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

    def test_sweep_target_failing_on_grid_exit_2(self, monkeypatch, tmp_path, capsys):
        """A target that fails on the error grid fails every n: one stderr
        line per n, exit 2, and every output still written."""
        from circleinterp import cli
        from circleinterp.experiments import CorpusFunction

        def f_theta(t):
            if np.size(t) == 512:
                raise ValidationError("no grid today")
            return np.cos(t)

        monkeypatch.setattr(cli, "parse_corpus",
                            lambda spec: CorpusFunction("grid-shy", None, f_theta))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--family", "roots-of-unity", "--ns", "8,16,32",
                     "--corpus", "smooth-exp", "--grid", "512", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sweep failed at n={n}: error: no grid today" for n in (8, 16, 32)]
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert [row["sup_error"] for row in rows] == [None] * 3

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

    def test_sweep_nan_tau_fails_every_n(self, tmp_path, capsys):
        """A NaN tau is refused per n like any other invalid tau, not
        written as an "ok" row of NaN values."""
        out = tmp_path / "s.csv"
        code = main(["sweep", "--ns", "8,16", "--tau", "nan,0", "--corpus", "lipschitz",
                     "--grid", "64", "--out", str(out)])
        assert code == 2
        assert "|tau| must equal 1" in capsys.readouterr().err
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert [row["status"].startswith("error: ") for row in rows] == [True, True]

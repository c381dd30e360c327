import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import kopt_lab
from kopt_lab import harness, lowerbound, tsplib
from kopt_lab.cli import main
from kopt_lab.harness import RejectionBudgetExceeded
from kopt_lab.tour import Tour, _best_2move


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestGenerators:
    def test_gen_random(self, workdir):
        assert run("gen-random", "--n", "8", "--grid", "100",
                   "--seed", "5", "--out", "r.tsp") == 0
        text = (workdir / "r.tsp").read_text()
        assert "DIMENSION : 8" in text

    def test_gen_random_writes_stdout_without_out(self, workdir, capsys):
        argv = ("gen-random", "--n", "8", "--grid", "100", "--seed", "5", "--p", "1")
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and list(workdir.iterdir()) == []
        assert run(*argv, "--out", "r.tsp") == 0
        text = (workdir / "r.tsp").read_text()
        assert captured.out == text
        got, want = tsplib.read_instance(io.StringIO(captured.out)), tsplib.read_instance(io.StringIO(text))
        assert (got.n, got.points, got.norm.p, got.name) == (8, want.points, 1, want.name)

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_gen_random_rejects_a_p_that_is_no_norm(self, workdir, capsys, monkeypatch, p):
        placed = []
        monkeypatch.setattr(harness, "_on_common_line", lambda *args: placed.append(args))
        assert run("gen-random", "--n", "5", "--p", p, "--out", "r.tsp") == 2
        assert "error: p must be a finite number at least 1" in capsys.readouterr().err
        assert placed == [] and not (workdir / "r.tsp").exists()  # rejected before any point is placed

    @pytest.mark.parametrize("out", [(), ("--out", "r.tsp")])
    def test_gen_random_rejects_negative_n(self, workdir, capsys, out):
        assert run("gen-random", "--n", "-1", *out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: n must be at least 0, got -1" in captured.err
        assert list(workdir.iterdir()) == []

    def test_pnorm_inf_file_is_a_usage_error(self, workdir, capsys):
        (workdir / "r.tsp").write_text(
            "TYPE : TSP\nCOMMENT : PNORM=inf\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : SPECIAL\n"
            "NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n")
        assert run("solve-exact", "r.tsp") == 2
        assert ("error: line 2: 'inf' is not a p-norm in 'COMMENT : PNORM=inf': "
                "p must be a finite number at least 1 (the p-norm), got inf") in capsys.readouterr().err

    def test_gen_lb(self, workdir):
        assert run("gen-lb", "--k", "2", "--p", "1", "--q", "3",
                   "--out", "lb.tsp") == 0
        assert "DIMENSION : 2916" in (workdir / "lb.tsp").read_text()

    def test_gen_3d(self, workdir):
        assert run("gen-3d", "--k", "4", "--out", "d.tsp",
                   "--tours-out", "d.tour") == 0
        assert "EUC_3D" in (workdir / "d.tsp").read_text()
        text = (workdir / "d.tour").read_text()
        assert text.count("TOUR_SECTION") == 1 and text.count("-1\n") == 2

    def test_gen_3d_tours_read_back(self, workdir):
        assert run("gen-3d", "--k", "4", "--out", "p.tsp",
                   "--tours-out", "p.tour") == 0
        assert run("scan-kopt", "--instance", "p.tsp", "--tour", "p.tour",
                   "--out", "scan.json") == 0
        assert json.loads((workdir / "scan.json").read_text())["n"] == 16

    def test_gen_lb_bad_q(self, workdir):
        assert run("gen-lb", "--q", "4", "--out", "x.tsp") == 2

    @pytest.mark.parametrize("command", ["gen-lb", "scan-kopt"])
    def test_layered_family_too_large(self, workdir, capsys, monkeypatch, command):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the size guard")

        monkeypatch.setattr(lowerbound, "np", NoArrays())
        assert run(command, "--q", "9", "--out", "x.out") == 2
        n = lowerbound.layered_sizes(1, 9).n
        assert f"error: the layered family p=1, q=9 has n = {n} points" in capsys.readouterr().err
        assert not (workdir / "x.out").exists()


class TestSolveAndCertify:
    def test_pipeline(self, workdir, capsys):
        run("gen-random", "--n", "9", "--grid", "200", "--seed", "8",
            "--out", "r.tsp")
        assert run("solve-2opt", "r.tsp", "--seed", "1", "--out", "s.tour") == 0
        assert run("solve-exact", "r.tsp", "--out", "t.tour") == 0
        out = capsys.readouterr().out
        lengths = [float(l.split()[-1]) for l in out.splitlines() if l.startswith("length")]
        assert lengths[1] <= lengths[0] + 1e-9  # exact never longer than 2-opt

        assert run("certify", "r.tsp", "--seed", "1", "--out", "c.json") == 0
        cert = json.loads((workdir / "c.json").read_text())
        assert cert["schema"] == "kopt-lab/1"
        assert cert["passed"] is True
        assert cert["ratio"] <= cert["certified_bound"]

    def test_certify_json_is_pinned(self, workdir):
        run("gen-random", "--n", "9", "--grid", "200", "--seed", "8", "--out", "r.tsp")
        assert run("certify", "r.tsp", "--seed", "1", "--out", "c.json") == 0
        text = (workdir / "c.json").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "80fb27457b7b86a7f854b7c4f3b58cb9a2939ac19de8357ca84c900bdf27795c")

    @pytest.mark.parametrize("gen, message", [
        (("gen-random", "--n", "20", "--grid", "100"), "exact_opt limited to n <= 18, got 20"),
        (("gen-random", "--n", "2", "--grid", "100"), "need n >= 3"),
        (("gen-3d", "--k", "2"), "is_simple supports 2-D instances only"),
    ])
    def test_certify_rejects_before_two_opt(self, workdir, capsys, monkeypatch, gen, message):
        assert run(*gen, "--out", "x.tsp") == 0
        calls = []
        monkeypatch.setattr(harness, "two_opt", lambda *args: calls.append(args))
        assert run("certify", "x.tsp", "--out", "c.json") == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == [] and not (workdir / "c.json").exists()

    def test_failed_check_exits_1(self, workdir, capsys, monkeypatch):
        def failing(*args):
            raise AssertionError("main lemma violated")

        run("gen-random", "--n", "9", "--grid", "200", "--seed", "8", "--out", "r.tsp")
        monkeypatch.setattr(harness, "certify_pair", failing)
        assert run("certify", "r.tsp", "--out", "c.json") == 1
        assert "check failed: main lemma violated\n" in capsys.readouterr().err
        assert not (workdir / "c.json").exists()

    def test_missing_file_is_usage_error(self, workdir):
        assert run("solve-2opt", "missing.tsp") == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_3d_coordinate_is_usage_error(self, workdir, capsys, token):
        (workdir / "d.tsp").write_text(
            "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_3D\n"
            f"NODE_COORD_SECTION\n1 0 0 0\n2 1 0 {token}\n3 0 1 0\nEOF\n")
        assert run("solve-2opt", "d.tsp", "--out", "s.tour") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (workdir / "s.tour").exists()
        assert f"error: line 6: '{token}' is not a finite number in '2 1 0 {token}'" in captured.err


class TestScanAndReport:
    def test_scan_generated_family(self, workdir):
        assert run("scan-kopt", "--k", "2", "--p", "1", "--q", "3",
                   "--out", "scan.json") == 0
        rep = json.loads((workdir / "scan.json").read_text())
        assert rep["n"] == 2916
        assert rep["pairs_scanned"] == 4_247_154
        # The grid index computes the gains of 10,117 of those pairs: its candidate sets, pinned.
        assert rep["pairs_examined"] == 10_117
        assert "timing" in rep

    def test_scan_writes_stdout_without_out(self, workdir, capsys):
        run("gen-random", "--n", "10", "--grid", "100", "--seed", "4", "--out", "r.tsp")
        run("solve-2opt", "r.tsp", "--seed", "2", "--out", "s.tour")
        capsys.readouterr()
        argv = ("scan-kopt", "--instance", "r.tsp", "--tour", "s.tour")
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and not (workdir / "scan.json").exists()
        assert run(*argv, "--out", "scan.json") == 0
        got, want = json.loads(captured.out), json.loads((workdir / "scan.json").read_text())
        assert got.pop("timing").keys() == want.pop("timing").keys() == {"seconds"}
        assert got == want and got["two_optimal"] is True and got["n"] == 10

    def test_scan_explicit_instance_and_tour(self, workdir):
        run("gen-random", "--n", "10", "--grid", "100", "--seed", "4",
            "--out", "r.tsp")
        run("solve-2opt", "r.tsp", "--seed", "2", "--out", "s.tour")
        assert run("scan-kopt", "--instance", "r.tsp", "--tour", "s.tour",
                   "--out", "scan.json") == 0
        rep = json.loads((workdir / "scan.json").read_text())
        assert rep["two_optimal"] is True
        # Ten points fit one scan block: the dense engine examines every pair.
        assert rep["pairs_examined"] == rep["pairs_scanned"] == 35

    def test_scan_writes_the_witness_of_a_read_tour(self, workdir, no_tuple_build):
        """A tour read from a file is kept as an int array: its tuple is never built, and the witness is JSON ints."""
        run("gen-random", "--n", "10", "--grid", "100", "--seed", "4", "--out", "r.tsp")
        order = (0, 5, 1, 6, 2, 7, 3, 8, 4, 9)
        (workdir / "z.tour").write_text(
            "TYPE : TOUR\nDIMENSION : 10\nTOUR_SECTION\n" + "".join(f"{v + 1}\n" for v in order) + "-1\nEOF\n")
        assert run("scan-kopt", "--instance", "r.tsp", "--tour", "z.tour", "--out", "scan.json") == 0
        rep = json.loads((workdir / "scan.json").read_text())
        with open(workdir / "r.tsp") as f:
            inst = tsplib.read_instance(f)
        best, _ = _best_2move(inst, Tour(order))
        assert rep["two_optimal"] is False and best.gain > 0
        assert rep["witness"] == [[order[best.i], order[best.i + 1]], [order[best.j], order[(best.j + 1) % 10]]]

    def test_scan_reads_back_the_empty_tour_of_an_empty_instance(self, workdir):
        (workdir / "e.tsp").write_text(
            "TYPE : TSP\nDIMENSION : 0\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\nEOF\n")
        assert run("solve-2opt", "e.tsp", "--out", "e.tour") == 0
        assert "TOUR_SECTION\n-1\n" in (workdir / "e.tour").read_text()
        assert run("scan-kopt", "--instance", "e.tsp", "--tour", "e.tour", "--out", "scan.json") == 0
        rep = json.loads((workdir / "scan.json").read_text())
        assert (rep["n"], rep["two_optimal"], rep["pairs_scanned"]) == (0, True, 0)

    @pytest.mark.parametrize("mode", ["family", "instance"])
    def test_scan_k_other_than_2_is_usage_error(self, workdir, capsys, monkeypatch, mode):
        """Only 2-optimality is decided: --k 3 exits 2 before reading or building anything."""
        if mode == "family":
            argv = ("--k", "3", "--p", "1", "--q", "3")
            monkeypatch.setattr(lowerbound, "generate_lb_instance", lambda *args: pytest.fail("built"))
        else:
            run("gen-random", "--n", "6", "--grid", "100", "--seed", "4", "--out", "r.tsp")
            run("solve-2opt", "r.tsp", "--out", "s.tour")
            argv = ("--instance", "r.tsp", "--tour", "s.tour", "--k", "3")
        capsys.readouterr()
        assert run("scan-kopt", *argv, "--out", "scan.json") == 2
        assert "error: scan-kopt decides 2-optimality only (--k 2), got --k 3" in capsys.readouterr().err
        assert not (workdir / "scan.json").exists()

    def test_scan_instance_without_tour_is_usage_error(self, workdir, capsys):
        run("gen-random", "--n", "6", "--grid", "100", "--seed", "4", "--out", "r.tsp")
        assert run("scan-kopt", "--instance", "r.tsp") == 2
        assert "--tour is required with --instance" in capsys.readouterr().err

    def test_scan_tour_without_instance_is_usage_error(self, workdir, capsys, monkeypatch):
        """--tour alone exits 2 rather than scanning the layered family and ignoring the tour."""
        run("gen-random", "--n", "6", "--grid", "100", "--seed", "4", "--out", "r.tsp")
        run("solve-2opt", "r.tsp", "--out", "s.tour")
        monkeypatch.setattr(lowerbound, "generate_lb_instance", lambda *args: pytest.fail("built"))
        capsys.readouterr()
        assert run("scan-kopt", "--tour", "s.tour", "--out", "scan.json") == 2
        assert "error: --instance is required with --tour" in capsys.readouterr().err
        assert not (workdir / "scan.json").exists()

    @pytest.mark.parametrize("flags, flag", [(("--p", "3", "--q", "9"), "--p"), (("--q", "3"), "--q"),
                                             (("--p", "1"), "--p")])
    def test_scan_family_flags_with_an_instance_are_usage_errors(self, workdir, capsys, monkeypatch, flags, flag):
        """--p and --q choose the layered family: with --instance they exit 2, naming the flag, and write nothing."""
        run("gen-random", "--n", "6", "--grid", "100", "--seed", "4", "--out", "r.tsp")
        run("solve-2opt", "r.tsp", "--out", "s.tour")
        monkeypatch.setattr(lowerbound, "generate_lb_instance", lambda *args: pytest.fail("built"))
        capsys.readouterr()
        assert run("scan-kopt", "--instance", "r.tsp", "--tour", "s.tour", *flags, "--out", "scan.json") == 2
        assert f"error: {flag} chooses the layered family" in capsys.readouterr().err
        assert not (workdir / "scan.json").exists()

    def test_report(self, workdir):
        assert run("report", "--seed", "6", "--trials", "3",
                   "--out", "exp.json") == 0
        rep = json.loads((workdir / "exp.json").read_text())
        assert rep["aggregate"]["completed"] == 3
        assert rep["aggregate"]["all_certificates_passed"] is True

    def test_report_with_no_completed_trial_fails(self, workdir, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RejectionBudgetExceeded("could not place the points")
        monkeypatch.setattr(harness, "gen_random", exhausted)
        assert run("report", "--trials", "2", "--out", "exp.json") == 1
        agg = json.loads((workdir / "exp.json").read_text())["aggregate"]
        assert agg["completed"] == 0
        assert agg["all_certificates_passed"] is False

    @pytest.mark.parametrize("argv, field", [
        (("--n-min", "10", "--n-max", "5"), "n_min"),
        (("--n-min", "2"), "n_min"),
        (("--n-max", "19"), "n_max"),
        (("--grid", "5"), "grid"),
        (("--p", "0.5"), "p"),
        (("--p", "nan"), "p"),
        (("--p", "inf"), "p"),
        (("--trials", "0"), "trials"),
        (("--trials", "-1"), "trials"),
    ])
    def test_report_rejects_config_before_any_trial(self, workdir, capsys, argv, field):
        assert run("report", "--trials", "2", *argv, "--out", "exp.json") == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert not (workdir / "exp.json").exists()

    def test_unknown_command_is_usage_error(self):
        assert run("no-such-command") == 2


def test_module_runs_as_a_script():
    """`python -m kopt_lab.cli` reaches `main` through the module's `__main__` line."""
    src = os.path.dirname(os.path.dirname(kopt_lab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "kopt_lab.cli", "--help"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: ") and "scan-kopt" in done.stdout

import cmath
import contextlib
import io
import itertools
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epsim.cli
import epsim.protocol
from epsim import AncillaSpec, DensityOperator, ModeDescriptor, ModeLayout, ProtocolConfig
from epsim.cli import _bounds_rng, _parse_args, build_parser, main
from epsim.statefile import (StateFileError, format_float, load_state, parse_state,
                             state_to_dict)
from conftest import data_path
from oracles import cli_out_oracle, dump_json_oracle
from strategies import transfer_inputs


def density_from_dict(data):
    """The register density operator of a ``transfer`` result file."""
    modes = tuple(ModeDescriptor(m["id"], m["site"], m["kind"], int(m["capacity"]))
                  for m in data["modes"])
    basis = [tuple(int(x) for x in label) for label in data["basis"]]
    matrix = np.array([[complex(z[0], z[1]) for z in row] for row in data["matrix"]])
    return DensityOperator(ModeLayout(modes), basis, matrix)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestEpCommand:
    def test_shared_single(self, capsys):
        code, report = run_cli(capsys, "ep", data_path("shared_single.json"))
        assert code == 0
        results = report["results"]
        assert results["particle_entanglement"] == pytest.approx(0.0, abs=1e-12)
        assert results["entropy_of_entanglement"] == pytest.approx(1.0, abs=1e-12)
        assert {s["n"] for s in results["sectors"]} == {0, 1}

    def test_shared_double(self, capsys):
        code, report = run_cli(capsys, "ep", data_path("shared_double.json"))
        assert code == 0
        assert report["results"]["particle_entanglement"] == pytest.approx(0.5, abs=1e-12)

    def test_pure_sector_entropy_not_negative_zero(self, capsys):
        code, report = run_cli(capsys, "ep", data_path("shared_single.json"))
        assert code == 0
        for sector in report["results"]["sectors"]:
            assert math.copysign(1.0, sector["entanglement"]) == 1.0

    def test_vacuum(self, capsys):
        code, report = run_cli(capsys, "ep", data_path("vacuum.json"))
        assert code == 0
        assert report["results"]["particle_entanglement"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ep", str(bad)]) == 2

    def test_bad_schema_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modes": [], "terms": []}))
        assert main(["ep", str(bad)]) == 2

    def test_norm_violation_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
                      {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
            "terms": [{"occ": [1, 0], "amp": [0.5, 0.0]}],
        }))
        assert main(["ep", str(bad)]) == 2


BAD_ANCILLA_OPTIONS = [
    ["--M", "0"], ["--M", "-3"], ["--nbar", "-1"], ["--nbar", "nan"], ["--nbar", "inf"],
    ["--nbar", "-inf"], ["--M", "1.5"],
    # past MAX_COHERENT_LEVELS - 1, before the ancilla is allocated
    ["--M", "16777216"], ["--M", "1000000000"],
    # parsed as infinity
    ["--nbar", "1e309"],
]


class TestTransferCommand:
    def test_single_particle_exact(self, capsys, tmp_path):
        out = tmp_path / "transfer.json"
        code, report = run_cli(capsys, "transfer", data_path("shared_single.json"),
                               "--M", "16", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        rho = density_from_dict(payload["results"]["register_state"])
        mat = np.asarray(rho.matrix)
        assert rho.basis == [(0, 1), (1, 0)]
        np.testing.assert_allclose(mat, np.eye(2) / 2, atol=1e-10)
        assert report["results"]["transfer_entanglement"] == pytest.approx(0.0, abs=1e-10)

    def test_two_copy_exact(self, capsys):
        code, report = run_cli(capsys, "transfer", data_path("shared_double.json"),
                               "--M", "8")
        assert code == 0
        results = report["results"]
        assert results["average_entanglement"] == pytest.approx(0.5, abs=1e-10)
        outcomes = {tuple(o["outcome"]): o for o in results["equal_different"]}
        assert outcomes[("equal", "equal")]["probability"] == pytest.approx(0.5, abs=1e-10)
        assert outcomes[("different", "different")]["entanglement"] == pytest.approx(
            1.0, abs=1e-10)

    def test_site_b_first_input(self, capsys, tmp_path):
        # shared_double with its modes listed b1, a1, b2, a2: the registers
        # still come out site A first, and transfer keeps ep's sectors.
        source = json.loads(Path(data_path("shared_double.json")).read_text())
        order = [1, 0, 3, 2]
        path = tmp_path / "b_first.json"
        path.write_text(json.dumps({
            "modes": [source["modes"][i] for i in order],
            "terms": [{"occ": [t["occ"][i] for i in order], "amp": t["amp"]}
                      for t in source["terms"]],
        }))
        code, ep = run_cli(capsys, "ep", str(path))
        assert code == 0
        code, report = run_cli(capsys, "transfer", str(path), "--M", "8")
        assert code == 0
        results = report["results"]
        modes = results["register_state"]["modes"]
        assert [m["site"] for m in modes] == ["A", "A", "B", "B"]
        assert [m["id"] for m in modes] == ["reg_a1", "reg_a2", "reg_b1", "reg_b2"]
        assert results["transfer_entanglement"] == pytest.approx(
            results["input_particle_entanglement"], abs=1e-12)
        assert results["sector_weights"] == {
            str(row["n"]): row["p"] for row in ep["results"]["sectors"]}

    def test_input_relabelled_once(self, capsys, monkeypatch):
        # ProtocolConfig relabels the input onto the registers once, counting
        # n_A and n_B, and every route and the CLI read that record.
        calls = []
        local_numbers = epsim.protocol._local_numbers

        def counted(*args):
            calls.append(args[2:])
            return local_numbers(*args)

        monkeypatch.setattr(epsim.protocol, "_local_numbers", counted)
        path = data_path("shared_double.json")
        assert main(["transfer", path, "--M", "8", "--path", "quadrature"]) == 0
        capsys.readouterr()
        assert calls == [("A", "register"), ("B", "register")]
        assert not hasattr(epsim.cli, "_local_numbers")
        spec = AncillaSpec(8, [1.0])
        _, _, *arrays = ProtocolConfig(load_state(path), spec, spec).register_terms
        assert len(arrays) == 3 and not any(a.flags.writeable for a in arrays)

    def test_quadrature_distance(self, capsys):
        code, report = run_cli(capsys, "transfer", data_path("shared_single.json"),
                               "--M", "8", "--path", "quadrature")
        assert code == 0
        quad = report["results"]["quadrature"]
        assert quad["trace_distance_to_exact"] <= 3.0 / 9.0

    @staticmethod
    def noon_file(tmp_path, n):
        """(|n, 0> + |0, n>) / sqrt(2) on one mode per site."""
        path = tmp_path / f"noon{n}.json"
        path.write_text(json.dumps({
            "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": n},
                      {"id": "b", "site": "B", "kind": "field", "capacity": n}],
            "terms": [{"occ": [n, 0], "amp": [2 ** -0.5, 0.0]},
                      {"occ": [0, n], "amp": [2 ** -0.5, 0.0]}],
        }))
        return str(path)

    def test_quadrature_distance_bound_five_particles(self, capsys, tmp_path):
        # Past N = 2 the distance passes 3/(M+1) (5/9 here); the printed bound
        # N/(M+1) + N^2/(2(M+1)^2) holds, and the distance is (trace - 1)/2.
        code, report = run_cli(capsys, "transfer", self.noon_file(tmp_path, 5),
                               "--M", "8", "--path", "quadrature")
        assert code == 0
        quad = report["results"]["quadrature"]
        assert quad["distance_bound"] == pytest.approx(5 / 9 + 25 / 162, rel=1e-11)
        assert quad["trace_distance_to_exact"] <= quad["distance_bound"]
        assert quad["trace_distance_to_exact"] == pytest.approx((quad["trace"] - 1) / 2,
                                                                abs=1e-12)

    def test_quadrature_distance_bound_tight(self, capsys, tmp_path):
        # 0.6|1,0,1,0> + 0.8|0,1,0,1> keeps all its weight in n_A = n_B = 1,
        # where the distance reaches N/(M+1) + N^2/(2(M+1)^2); the bound adds
        # 1e-12 so that rounding cannot put the distance past it, and the
        # 12-digit rounding of the report keeps the order.
        path = tmp_path / "tight.json"
        path.write_text(json.dumps({
            "modes": [{"id": i, "site": i[0].upper(), "kind": "field", "capacity": 1}
                      for i in ("a1", "a2", "b1", "b2")],
            "terms": [{"occ": [1, 0, 1, 0], "amp": [0.6, 0.0]},
                      {"occ": [0, 1, 0, 1], "amp": [0.8, 0.0]}],
        }))
        for M in range(1, 200, 6):
            code, report = run_cli(capsys, "transfer", str(path), "--M", str(M),
                                   "--path", "quadrature")
            assert code == 0
            quad = report["results"]["quadrature"]
            formula = 2 / (M + 1) + 2 / (M + 1) ** 2
            assert quad["distance_bound"] == float(format_float(formula + 1e-12))
            assert quad["trace_distance_to_exact"] == pytest.approx(formula, rel=1e-11)
            assert quad["trace_distance_to_exact"] <= quad["distance_bound"]

    def test_undersized_grid_exit_2(self, capsys, tmp_path):
        # The grid of 2M + 3 = 5 points would alias the sectors of 5 particles.
        code = main(["transfer", self.noon_file(tmp_path, 5), "--M", "1", "--path",
                     "quadrature"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: --path quadrature needs fewer than") and "\n" not in err

    @pytest.mark.parametrize("options", BAD_ANCILLA_OPTIONS)
    def test_bad_ancilla_options_exit_2(self, capsys, options):
        code = main(["transfer", data_path("shared_single.json"), *options])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    @pytest.mark.parametrize("command,modes", [
        ("ep", [("a", "A", "field"), ("a2", "A", "field")]),
        ("transfer", [("a", "A", "field"), ("a2", "A", "field")]),
        ("transfer", [("a", "A", "field"), ("b", "B", "register")]),
        ("transfer", [("a", "A", "field"), ("reg_a", "B", "field")]),
    ], ids=["ep-one-site", "transfer-one-site", "transfer-register-mode",
            "transfer-reserved-id"])
    def test_layout_error_exit_2(self, capsys, tmp_path, command, modes):
        path = tmp_path / "layout.json"
        path.write_text(json.dumps({
            "modes": [{"id": i, "site": site, "kind": kind, "capacity": 1}
                      for i, site, kind in modes],
            "terms": [{"occ": [1, 0], "amp": [2 ** -0.5, 0.0]},
                      {"occ": [0, 1], "amp": [2 ** -0.5, 0.0]}],
        }))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_clipped_tail_one_line_warning(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["transfer", data_path("shared_single.json"), "--M", "4",
                         "--nbar", "10", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"]["sector_weights"]
        assert out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: truncation M=4 below")

    def test_huge_threshold_warning_stays_short(self, capsys):
        # nbar + 10 sqrt(nbar) near the largest float prints as 1e+308, not
        # as 309 digits.
        code = main(["transfer", data_path("shared_double.json"), "--M", "3",
                     "--nbar", "1e308"])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: truncation M=3 below")
        assert len(lines[0].encode()) < 120

    def test_default_ancilla_allocates_no_levels(self, capsys):
        # No result reads the ancilla amplitudes, so without --nbar the
        # ancilla is the one-level reference of mean 0, not 2^24 levels.
        argv = ["transfer", data_path("shared_double.json"), "--M", "16777215"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert peak < 16 * 2 ** 20
        code, report = run_cli(capsys, *argv, "--nbar", "0")
        assert code == 0
        assert report["results"] == json.loads(captured.out)["results"]

    def test_mixed_total_exit_2(self, capsys, tmp_path):
        # Site-A number 0 pairs with site-B numbers 0 and 1, so the sector
        # n_A = 0 of the register state is a mixture, however small the
        # minority amplitude (norms exactly 1, so no renormalization).
        path = tmp_path / "mixed.json"
        for terms in ([([0, 0], 0.6), ([0, 1], 0.8)],
                      [([1, 0], 0.6), ([0, 1], 0.799999999999375), ([0, 0], 1e-6)]):
            path.write_text(json.dumps({
                "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
                          {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
                "terms": [{"occ": occ, "amp": [amp, 0.0]} for occ, amp in terms],
            }))
            assert main(["transfer", str(path), "--M", "4"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip()
            assert err.startswith("error: transfer needs one site-B particle number per "
                                  "site-A number") and "\n" not in err
            assert "site-A number 0 pairs with site-B numbers" in err

    def test_particle_total_past_int64_exit_2(self, capsys, tmp_path):
        # One term on (2^62, 2^62): the total 2^63 wraps in int64 to -2^63,
        # which would pass the grid guard.
        n = 2 ** 62
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": n},
                      {"id": "b", "site": "B", "kind": "field", "capacity": n}],
            "terms": [{"occ": [n, n], "amp": [1.0, 0.0]}],
        }))
        assert main(["transfer", str(path), "--M", "4", "--path", "quadrature"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --path quadrature needs fewer than 2M + 3 = 11 "
                                "particles, got 9223372036854775808\n")

    def test_warnings_print_before_the_error(self, capsys, tmp_path):
        # A renormalized mixed-total file: one warning line, then the error.
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
                      {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
            "terms": [{"occ": [0, 0], "amp": [0.6, 0.0]},
                      {"occ": [0, 1], "amp": [0.8000001, 0.0]}],
        }))
        assert main(["transfer", str(path), "--M", "4"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: renormalizing state file (norm ")
        assert lines[1].startswith("error: transfer needs one site-B particle number")

    def test_runtime_warnings_keep_their_filter(self, monkeypatch):
        # The CLI records UserWarnings only; the suite's error::RuntimeWarning
        # still raises inside a run.
        import epsim.cli as cli_module

        def warn(rho):
            warnings.warn("doctored", RuntimeWarning)

        monkeypatch.setattr(cli_module, "register_sector_table", warn)
        with pytest.raises(RuntimeWarning, match="doctored"):
            main(["transfer", data_path("shared_single.json"), "--M", "4"])

    def test_emitted_matrix_revalidates(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        run_cli(capsys, "transfer", data_path("shared_double.json"),
                "--M", "8", "--out", str(out))
        payload = json.loads(out.read_text())
        rho = density_from_dict(payload["results"]["register_state"])
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)


class TestMeasureCommand:
    def test_model_and_oracle(self, capsys):
        code, report = run_cli(capsys, "measure", "--ntr", "25", "--local-scale", "4")
        assert code == 0
        results = report["results"]
        assert results["visibility_sq_model"] == pytest.approx(
            np.exp(-1.0 / 100.0), abs=1e-9)
        assert results["ef_formula"] == pytest.approx(results["ef_oracle"], abs=1e-10)
        assert results["visibility_sq"] <= 1.0

    @staticmethod
    def _rotate_transported_moment(monkeypatch):
        """The two visibility routes agree for every valid input, so the
        failure path is driven by rotating the closed route's first moment of
        the transported reference (the first one visibility() reads) by
        0.5 rad.  The quadrature route never reads it, and |C| stays below 1;
        a phase on both moments would cancel in conj(m_A) m_B."""
        from epsim.protocol import AncillaSpec

        real = AncillaSpec.first_moment
        calls = itertools.count()
        monkeypatch.setattr(AncillaSpec, "first_moment",
                            lambda self: real(self) * (cmath.exp(0.5j) if next(calls) == 0
                                                       else 1.0))

    def test_cross_check_failure_exit_5(self, capsys, monkeypatch):
        self._rotate_transported_moment(monkeypatch)
        assert main(["measure", "--ntr", "25", "--local-scale", "2"]) == 5
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: visibility routes disagree") and "\n" not in err

    def test_cross_check_runs_at_large_transport(self, capsys, monkeypatch):
        # Grids of 2^15 and 2^16 points over the references' stored spans,
        # where the full truncations (2M + 3 > 2^20) used to skip the check.
        self._rotate_transported_moment(monkeypatch)
        assert main(["measure", "--ntr", "1e6", "--local-scale", "1.5"]) == 5
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: visibility routes disagree") and "\n" not in err

    def test_unwritable_out_exit_4(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        code = main(["measure", "--ntr", "25", "--local-scale", "2",
                     "--out", str(target)])
        assert code == 4

    def test_large_transport_limit(self, capsys):
        # Formation entanglement approaches one ebit as the transported
        # mean grows; a modest local scale keeps the arrays reasonable.
        code, report = run_cli(capsys, "measure", "--ntr", "1e6",
                               "--local-scale", "1.5")
        assert code == 0
        assert report["results"]["ef_formula"] == pytest.approx(1.0, abs=1e-5)


@st.composite
def coherent_references(draw):
    """(ntr, local scale): ntr log-uniform in [1, 1.6e7] and a scale from
    0.1 up to where the local mean scale^2 * ntr reaches 1.6e7."""
    log_ntr = draw(st.floats(0.0, math.log10(1.6e7)))
    top = 0.5 * (math.log10(1.6e7) - log_ntr)
    return 10.0 ** log_ntr, 10.0 ** draw(st.floats(-1.0, top))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(refs=coherent_references())
@example(refs=(25.0, 10.0))
@example(refs=(1.6e7, 1.0))
def test_measure_ef_bound_caps_ef_formula(refs):
    # The slack covers E_F's rounding-level non-monotonicity in |C|.
    ntr, scale = refs
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["measure", "--ntr", repr(ntr), "--local-scale", repr(scale)])
    assert code == 0
    results = json.loads(stdout.getvalue())["results"]
    assert results["ef_formula"] <= results["ef_bound"] + 1e-12


BAD_REFERENCE_VALUES = [
    ["measure", "--ntr", "nan"], ["measure", "--ntr", "inf"],
    ["measure", "--local-scale", "-1"], ["measure", "--local-scale", "0"],
    ["measure", "--local-scale", "nan"],
    ["sweep", "--ntr-list", "5,nan"], ["sweep", "--ntr-list", "5,inf"],
    ["sweep", "--ntr-list", "5,abc"],
    ["sweep", "--ntr-list", "5", "--local-scale", "nan"],
    ["sweep", "--ntr-list", "5", "--local-scale", "0"],
    # finite but past MAX_COHERENT_LEVELS, rejected before any allocation
    ["measure", "--ntr", "1e15"], ["measure", "--ntr", "1.7e7"],
    ["measure", "--ntr", "1e6", "--local-scale", "5"],
    ["measure", "--local-scale", "1e200"],
    ["measure", "--grid", "100000000000"],
    ["sweep", "--ntr-list", "5,1e15"],
    ["sweep", "--ntr-list", "5,25", "--local-scale", "1e4"],
]
FORMAT_OFF_SWEEP = [
    [*argv, "--format", "json"] for argv in (
        ["ep", data_path("shared_single.json")],
        ["transfer", data_path("shared_single.json")],
        ["measure"],
        ["bounds", "--seeds", "1", "--s", "16"],
    )
]


class TestSweepCommand:
    def test_csv_contract(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = run_cli(capsys, "sweep", "--ntr-list", "25,50,100",
                               "--format", "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ntr,vis2_full,vis2_model,ef,ef_bound"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 5
        efs = [float(line.split(",")[3]) for line in lines[1:]]
        bounds = [float(line.split(",")[4]) for line in lines[1:]]
        assert efs == sorted(efs)
        assert all(e <= b + 1e-6 for e, b in zip(efs, bounds))

    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        run_cli(capsys, "sweep", "--ntr-list", "25,50", "--format", "csv",
                "--out", str(out1))
        run_cli(capsys, "sweep", "--ntr-list", "25,50", "--format", "csv",
                "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_out_renders_results_once(self, capsys, tmp_path, monkeypatch):
        # The --out file is the report's results block with its indent
        # dropped, so the results are rendered once.
        import epsim.cli as cli_module

        rendered = []
        real = cli_module.dump_json
        monkeypatch.setattr(cli_module, "dump_json",
                            lambda data, depth=0: rendered.append(data) or real(data, depth))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--ntr-list", "25,50", "--format", "json",
                     "--out", str(out)]) == 0
        assert sum(isinstance(data, dict) and "rows" in data for data in rendered) == 1

    def test_csv_built_only_for_out(self, capsys, monkeypatch):
        # Without --out nothing reads the CSV text, so it is not built.
        calls = []
        real = epsim.cli.sweep_csv
        monkeypatch.setattr(epsim.cli, "sweep_csv", lambda rows: calls.append(rows) or real(rows))
        assert main(["sweep", "--ntr-list", "25,50", "--format", "csv"]) == 0
        assert calls == []

    def test_sweep_sizes_each_reference_once(self, capsys, monkeypatch):
        # Two references (transported and local) per --ntr-list value, each
        # truncation computed once.
        calls = []
        real = epsim.cli._coherent_truncation
        monkeypatch.setattr(epsim.cli, "_coherent_truncation",
                            lambda nbar: calls.append(nbar) or real(nbar))
        assert main(["sweep", "--ntr-list", "4,8,16"]) == 0
        assert len(calls) == 6

    def test_empty_list_exit_2(self, capsys):
        assert main(["sweep", "--ntr-list", ""]) == 2

    def test_subunit_ntr_exit_2(self, capsys):
        assert main(["sweep", "--ntr-list", "0.5,25"]) == 2
        assert main(["measure", "--ntr", "0.2"]) == 2

    @pytest.mark.parametrize("argv", BAD_REFERENCE_VALUES)
    def test_bad_values_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_coherent_level_limit(self):
        from epsim.cli import MAX_COHERENT_LEVELS, _coherent_references, _coherent_truncation

        transported, local = _coherent_references(1e6, 1.5)
        assert transported.M == 1010000
        assert local.M == _coherent_truncation(2.25e6)
        assert local.M + 1 <= MAX_COHERENT_LEVELS
        assert _coherent_truncation(MAX_COHERENT_LEVELS - 1.0 - 10.0 * math.sqrt(
            MAX_COHERENT_LEVELS)) <= MAX_COHERENT_LEVELS - 1
        with pytest.raises(StateFileError):
            _coherent_truncation(float(MAX_COHERENT_LEVELS))

    @pytest.mark.parametrize("argv", FORMAT_OFF_SWEEP)
    def test_format_only_on_sweep(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_visibility_above_one_exit_5(self, capsys, monkeypatch):
        # |C| <= 1 for unit-norm references; the guard is driven with the
        # closed route's first moment and the quadrature's grid moment
        # doctored alike, so the two routes agree above 1.
        import epsim.phase as phase_module

        monkeypatch.setattr(phase_module.AncillaSpec, "first_moment",
                            lambda self: 1.0 + 1e-9)
        monkeypatch.setattr(phase_module.PhaseDistribution, "grid_moment",
                            lambda self, k: 1.0 + 1e-9)
        assert main(["sweep", "--ntr-list", "25"]) == 5
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


BAD_BOUNDS_OPTIONS = [
    ["--seeds", "0"], ["--seeds", "-1"],
    ["--nbar", "25"], ["--nbar", "25,250,2500"], ["--nbar", "25,x"],
    ["--nbar", "25,-1"], ["--nbar", "nan,250"], ["--nbar", "25,inf"],
    ["--nbar", ""],
    # finite but past MAX_BOUNDS_S, rejected before any allocation
    ["--s", "2049"], ["--s", "100000"],
    ["--nbar", "1e15,1"], ["--nbar", "1,2000"], ["--nbar", "1.7e308,1"],
    # outside the RandomState seed range, rejected before any draw
    ["--seed", "-1"], ["--seed", "4294967296"],
]


class TestBoundsCommand:
    def test_random_sweep_clean(self, capsys):
        code, report = run_cli(capsys, "bounds", "--seeds", "10", "--s", "32")
        assert code == 0
        results = report["results"]
        assert results["violations"] == 0
        assert results["states"] == 10
        assert results["trig_identity_max_residual"] < 1e-9
        for entry in results["inequalities"].values():
            assert entry["min_slack"] >= -1e-9

    def test_coherent_pair_check(self, capsys):
        code, report = run_cli(capsys, "bounds", "--seeds", "2", "--s", "32",
                               "--nbar", "25,250")
        assert code == 0
        pair = report["results"]["coherent_pair"]
        assert pair["checks"]["C2_A"]["slack"] >= -1e-9
        assert pair["checks"]["C2_A"]["lhs"] == pytest.approx(100.0 / 101.0, rel=1e-9)

    def test_product_detected_at_size_cap(self, capsys):
        # d = 2049: the draws are factor pairs, so C1 is checked on O(d) moments
        # with no d x d matrix.
        code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "2048")
        assert code == 0
        assert "C1" in report["results"]["inequalities"]

    def test_coherent_pair_reports_c1(self, capsys):
        code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "64",
                               "--nbar", "5,40")
        assert code == 0
        assert "C1" in report["results"]["coherent_pair"]["checks"]

    @pytest.mark.parametrize("nbar, s_pair", [("1,2", 21), ("1.04,1.04", 18),
                                              ("3.75,0", 28)])
    def test_small_mean_pair_grows_past_its_tail(self, capsys, nbar, s_pair):
        # nbar + 12 sqrt(nbar) levels leave more than the tail tolerance of a
        # small-mean Poisson tail above the physicality cutoff; the
        # truncation grows one level at a time until the pair passes.
        code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "16",
                               "--nbar", nbar)
        assert code == 0
        assert report["results"]["coherent_pair"]["s"] == s_pair

    @pytest.mark.parametrize("s, nbar", [("64", None), ("64", "5,40"), ("16", "1,2")])
    def test_one_moment_pass_per_state(self, capsys, monkeypatch, s, nbar):
        # Each random state is reduced once, as one row of its block: its
        # caps come from the moments of its Robertson report.  The coherent
        # pair costs one pass per truncation tried, from
        # max(s, nbar + 12 sqrt(nbar)) up.  ``sizes`` holds the levels of
        # each row reduced.
        import epsim.uncertainty

        sizes = []
        real = epsim.uncertainty._sums
        monkeypatch.setattr(epsim.uncertainty, "_sums",
                            lambda a, b: sizes.extend([a.shape[-1]] * len(a)) or real(a, b))
        argv = ["bounds", "--seeds", "10", "--s", s] + (["--nbar", nbar] if nbar else [])
        code, report = run_cli(capsys, *argv)
        assert code == 0
        results = report["results"]
        assert results["resampled"] == 0
        tried = []
        if nbar:
            top = max(float(x) for x in nbar.split(","))
            start = max(int(s), math.ceil(top + 12.0 * math.sqrt(top)))
            tried = list(range(start + 1, results["coherent_pair"]["s"] + 2))
        assert sizes == tried + [int(s) + 1] * 10

    def test_reruns_in_one_process_write_the_same_file(self, capsys, tmp_path):
        # The per-process generator is reseeded for every run: seed A, then
        # seed B at another --s with --nbar, then seed A again.
        outs = [tmp_path / f"run{k}.json" for k in range(3)]
        argvs = [["--seed", "7", "--s", "64"],
                 ["--seed", "3", "--s", "32", "--nbar", "5,40"],
                 ["--seed", "7", "--s", "64"]]
        for out, argv in zip(outs, argvs):
            assert main(["bounds", "--seeds", "3", *argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_bytes() != outs[1].read_bytes()

    def test_generator_built_once_per_process(self, capsys, monkeypatch):
        built = []
        real = np.random.RandomState
        monkeypatch.setattr(np.random, "RandomState",
                            lambda *args: built.append(args) or real(*args))
        _bounds_rng.cache_clear()
        for seed in range(5):
            assert main(["bounds", "--seeds", "2", "--s", "16", "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert len(built) == 1                  # by the first run, then reseeded

    def test_small_s_exit_2(self, capsys):
        assert main(["bounds", "--seeds", "1", "--s", "8"]) == 2

    @pytest.mark.parametrize("options", BAD_BOUNDS_OPTIONS)
    def test_bad_values_exit_2(self, capsys, options):
        assert main(["bounds", "--seeds", "1", "--s", "16", *options]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_violation_exit_5(self, capsys, monkeypatch):
        # The inequalities are theorems for the generated states, so the
        # failure path is driven with a doctored report: first on a random
        # state, then on the coherent pair only (its truncation grows to 440
        # for --nbar 25,250, the draws stay at 32).
        import epsim.cli as cli_module
        from epsim.uncertainty import InequalityCheck

        def doctor(patch, name, check, s_bad):
            real = getattr(cli_module, name)

            def doctored(state, space):
                # One report for a pair (the coherent pair), a list for a
                # stack (a block of random states).
                reports = real(state, space)
                if space.s != s_bad:
                    return reports
                bad = (InequalityCheck(check, 0.0, 1.0),)
                if isinstance(reports, list):
                    return [report._replace(checks=bad) for report in reports]
                return reports._replace(checks=bad)

            patch.setattr(cli_module, name, doctored)

        with monkeypatch.context() as patch:
            doctor(patch, "robertson_checks", "dcos", 32)
            code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "32")
        assert code == 5
        assert report["results"]["violations"] == 1
        (entry,) = report["results"]["violating_states"]
        assert set(entry) == {"modes", "terms"}
        assert entry["modes"] == [
            {"id": "mode_a", "site": "A", "kind": "field", "capacity": 32},
            {"id": "mode_b", "site": "B", "kind": "field", "capacity": 32}]
        assert all(set(t) == {"occ", "amp"} and len(t["occ"]) == 2 for t in entry["terms"])
        norm_sq = sum(t["amp"][0] ** 2 + t["amp"][1] ** 2 for t in entry["terms"])
        assert norm_sq == pytest.approx(1.0, abs=1e-12)

        with monkeypatch.context() as patch:
            doctor(patch, "visibility_bound_check", "C2_A", 440)
            assert main(["bounds", "--seeds", "2", "--s", "32", "--nbar", "25,250"]) == 5
        captured = capsys.readouterr()
        assert captured.err == "error: 1 inequality violations\n"
        results = json.loads(captured.out)["results"]
        assert results["violations"] == 1
        assert results["coherent_pair"]["s"] == 440
        assert "violating_states" not in results

    def test_trig_residual_covers_coherent_pair(self, capsys, monkeypatch):
        # A trig-identity residual doctored on the grown truncation only (440
        # for --nbar 25,250; the draws stay at 32) shows in the field.
        import epsim.cli as cli_module

        real = cli_module.visibility_bound_check

        def doctored(state, space):
            report = real(state, space)
            if space.s != 440:
                return report
            return report._replace(trig_identity_residual=-0.25)

        monkeypatch.setattr(cli_module, "visibility_bound_check", doctored)
        code, report = run_cli(capsys, "bounds", "--seeds", "2", "--s", "32",
                               "--nbar", "25,250")
        assert code == 0
        assert report["results"]["trig_identity_max_residual"] == 0.25


USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["ep"],
    ["transfer", data_path("shared_single.json"), "--M", "abc"],
    ["ep", data_path("shared_single.json"), "--seed", "3"],
    ["measure", "--grid", "64"],
    ["transfer", data_path("shared_single.json"), "--path", "quadrature", "--grid", "30"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[
    "no-subcommand", "unknown-subcommand", "ep-no-statefile", "transfer-M-abc", "ep-seed",
    "measure-grid", "transfer-grid"])
def test_usage_error_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "Exit codes:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, line", [
    (["-h", "ep"], "usage: epsim [-h] {ep,transfer,measure,sweep,bounds} ..."),
    (["ep", "-h"], "usage: epsim ep [-h] [--out OUT] statefile"),
])
def test_help_names_its_parser(capsys, argv, line):
    # Help before the subcommand name is the top-level parser's, after it
    # the subcommand's.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == line


# The other subcommand argvs of this module, with --out paths that are
# parsed and not written.
RUN_ARGVS = [
    ["ep", data_path("shared_single.json")],
    ["ep", data_path("vacuum.json")],
    ["transfer", data_path("shared_single.json"), "--M", "16", "--out", "transfer.json"],
    ["transfer", data_path("shared_single.json"), "--M", "4", "--nbar", "1"],
    ["measure", "--ntr", "1e6", "--local-scale", "1.5"],
    ["measure", "--ntr", "25", "--local-scale", "2", "--out", "measure.json"],
    ["sweep", "--ntr-list", "25,50,100", "--format", "csv", "--out", "sweep.csv"],
    ["sweep", "--ntr-list", "0.5,25"], ["sweep", "--ntr-list", ""],
    ["measure", "--ntr", "0.2"],
    ["bounds", "--seeds", "10", "--s", "32"],
    ["bounds", "--seeds", "1", "--s", "2048"],
    ["bounds", "--seeds", "1", "--s", "64", "--nbar", "5,40", "--seed", "7"],
    ["bounds", "--seeds", "1", "--s", "8"],
]
# Routes through argparse beyond those: two extra positionals, help on
# either side of the subcommand name, "--", abbreviated, "="-joined,
# repeated and valueless options, a bad choice and a misspelt name.
ARGPARSE_ROUTES = [
    ["ep", "a.json", "b.json"],
    ["--help"], ["ep", "--help"], ["-h", "ep"], ["bounds", "-h", "--s", "x"],
    ["ep", "--", data_path("shared_single.json")], ["--", "ep", "a.json"],
    ["ep", "a.json", "--"], ["ep", "--out"],
    ["bounds", "--see", "5"], ["bounds", "--seeds=2", "--s=16"], ["sweep", "--ntr-l", "5"],
    ["measure", "--ntr", "30", "--ntr", "40"], ["measure", "--ntr", "-5"],
    ["measure", "ep"], ["ep", "measure"], ["transfer", "a.json", "--path", "grid"],
    ["EP", "a.json"], ["ep", "-x", "a.json"], ["ep", "a.json", "-x", "--y=1"],
]


def parse_outcome(parse, argv):
    """What parsing ``argv`` gives: the namespace's attributes, the exit
    code and stdout of a help request, or the ``error:`` line (exit 2) of a
    usage error."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            return "namespace", vars(parse(argv))
        except SystemExit as exc:
            return "exit", exc.code, stdout.getvalue()
        except StateFileError as exc:
            return "error", f"error: {exc}"


def test_one_pass_parse_equals_two_pass_route(monkeypatch):
    # An argv that starts with a subcommand name is parsed by that
    # subcommand's parser alone; every outcome is the top-level parser's.
    argvs = [*USAGE_ERRORS, *OUT_ARGVS, *RENDERED_ARGVS, *RUN_ARGVS, *ARGPARSE_ROUTES,
             *FORMAT_OFF_SWEEP, *BAD_REFERENCE_VALUES,
             *(["transfer", data_path("shared_single.json"), *options]
               for options in BAD_ANCILLA_OPTIONS),
             *(["bounds", "--seeds", "1", "--s", "16", *options]
               for options in BAD_BOUNDS_OPTIONS)]
    kinds = set()
    for argv in argvs:
        expected = parse_outcome(build_parser().parse_args, argv)
        assert parse_outcome(_parse_args, argv) == expected, argv
        kinds.add(expected[0])
    assert kinds == {"namespace", "exit", "error"}
    # With no argv, both read sys.argv.
    monkeypatch.setattr(sys, "argv", ["epsim", "ep", "a.json", "--seed", "3"])
    assert parse_outcome(_parse_args, None) == parse_outcome(build_parser().parse_args, None)
    monkeypatch.setattr(sys, "argv", ["epsim", "measure"])
    assert parse_outcome(_parse_args, None) == parse_outcome(build_parser().parse_args, None)


@pytest.mark.parametrize("argv, line", [
    (["ep", "a.json", "--seed", "3"], "error: epsim: unrecognized arguments: --seed 3"),
    (["ep", "a.json", "b.json"], "error: epsim: unrecognized arguments: b.json"),
    (["ep"], "error: epsim ep: the following arguments are required: statefile"),
    (["bounds", "--s", "8"], "error: epsim bounds: argument --s: must be in [16, 2048], got 8"),
    (["frobnicate"], "error: epsim: argument command: invalid choice: 'frobnicate' "
                     "(choose from 'ep', 'transfer', 'measure', 'sweep', 'bounds')"),
])
def test_usage_error_lines(capsys, argv, line):
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


def test_no_option_leaks_between_calls(capsys):
    # The parser is built once per process; each call starts from the defaults.
    state = data_path("shared_single.json")
    code, report = run_cli(capsys, "transfer", state, "--M", "8", "--nbar", "1")
    assert code == 0 and report["inputs"]["nbar"] == 1.0
    code, report = run_cli(capsys, "transfer", state, "--M", "8")
    assert code == 0 and report["inputs"]["nbar"] is None
    code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "16", "--seed", "7")
    assert code == 0 and report["seed"] == 7
    code, report = run_cli(capsys, "bounds", "--seeds", "1", "--s", "16")
    assert code == 0 and report["seed"] == 42


OUT_ARGVS = [
    ["ep", data_path("shared_double.json")],
    ["transfer", data_path("shared_double.json"), "--M", "8", "--path", "exact"],
    ["transfer", data_path("shared_double.json"), "--M", "8", "--path", "quadrature"],
    ["measure", "--ntr", "25", "--local-scale", "4"],
    ["sweep", "--ntr-list", "25,50", "--format", "json"],
    ["sweep", "--ntr-list", "25,50", "--format", "csv"],
    ["bounds", "--seeds", "3", "--s", "32", "--nbar", "5,40"],
]


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=[
    "ep", "transfer-exact", "transfer-quadrature", "measure", "sweep-json", "sweep-csv", "bounds"])
def test_out_bytes_repeat(capsys, tmp_path, argv):
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert main([*argv, "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1]


RENDERED_ARGVS = [
    ["ep", data_path("shared_double.json")],
    ["transfer", data_path("shared_double.json"), "--M", "8"],
    ["transfer", data_path("shared_single.json"), "--M", "8", "--path", "quadrature"],
    ["measure", "--ntr", "25", "--local-scale", "4"],
    ["sweep", "--ntr-list", "25,50", "--format", "json"],
    ["sweep", "--ntr-list", "25,50", "--format", "csv"],
    ["bounds", "--seeds", "3", "--s", "32", "--nbar", "25,250"],
]


@pytest.mark.parametrize("argv", RENDERED_ARGVS, ids=[
    "ep", "transfer-exact", "transfer-quadrature", "measure", "sweep-json", "sweep-csv", "bounds"])
def test_rendering_equals_stdlib_route(capsys, tmp_path, argv):
    # The --out bytes are the standard library route's text of the same run,
    # and the report carries the results block of that text verbatim.
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)]
    args = build_parser().parse_args(argv)
    run = args.func(args)
    assert main(argv) == 0
    report = capsys.readouterr().out
    written = out.read_text(encoding="utf-8")
    assert written == cli_out_oracle(run)
    if run.out is not None:
        block = dump_json_oracle(run.results).replace("\n", "\n  ")
    elif run.bare:
        block = written[:-1].replace("\n", "\n  ")
    else:
        prefix, suffix = '{\n  "results": ', "\n}\n"
        assert written.startswith(prefix) and written.endswith(suffix)
        block = written[len(prefix):-len(suffix)]
    assert f'\n  "results": {block},\n' in report


def run_quietly(argv, out):
    """Exit code, ``error:`` lines on stderr and, on exit 0, the ``--out``
    bytes of one ``cli.main`` call."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", out])
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    return code, errors, (Path(out).read_bytes() if code == 0 else None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=transfer_inputs(), M=st.integers(1, 6))
def test_transfer_inputs_exit_cleanly(state, M):
    # Fixed and mixed totals: every run ends in a documented exit code, a
    # failure prints one error line, and a repeated run gives the same code
    # and --out bytes.
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work, "state.json"), str(Path(work, "out.json"))
        path.write_text(json.dumps(state_to_dict(state)))
        for argv in (["ep", str(path)], ["transfer", str(path), "--M", str(M)],
                     ["transfer", str(path), "--M", str(M), "--path", "quadrature"]):
            code, errors, written = run_quietly(argv, out)
            assert code in (0, 2, 3, 4, 5)
            assert len(errors) == (1 if code else 0)
            assert run_quietly(argv, out) == (code, errors, written)


DOCUMENTS = [json.loads(Path(data_path(name)).read_text(encoding="utf-8"))
             for name in ("shared_single.json", "shared_double.json", "vacuum.json")]
DELETE = object()
# Huge and tiny numbers, empty containers and wrong types.
JSON_VALUES = st.one_of(
    st.sampled_from([1e308, -1e308, 1e200, 1e154, 0, -1, 2, [], {}, "", "x", None, True]),
    st.floats(-1e308, 1e308), st.integers(-3, 3),
    st.lists(st.integers(0, 2), max_size=4))


def node_paths(node, path=()):
    """Key paths of every node below ``node``."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def mutated(document, path, value):
    """A copy of ``document`` with the node at ``path`` set to ``value``, or
    removed if ``value`` is DELETE."""
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


@st.composite
def mutated_documents(draw):
    """A ``tests/data`` document with one or two nodes replaced or deleted."""
    document = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(node_paths(document))
        if paths:
            document = mutated(document, draw(st.sampled_from(paths)),
                               draw(st.just(DELETE) | JSON_VALUES))
    return document


@settings(max_examples=300, deadline=None, derandomize=True)
@example(document=mutated(DOCUMENTS[0], ("terms", 0, "amp", 0), 1e308))
@example(document=mutated(DOCUMENTS[0], ("terms", 0, "amp", 0), 1e200))
@given(document=mutated_documents())
def test_mutated_state_files_exit_cleanly(document):
    # A damaged state file either still describes a state (exit 0) or is a
    # parse error (exit 2) with one error line; no input ends in a traceback.
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work, "state.json"), str(Path(work, "out.json"))
        path.write_text(json.dumps(document))
        for argv in (["ep", str(path)], ["transfer", str(path), "--M", "4"],
                     ["transfer", str(path), "--M", "4", "--path", "quadrature"]):
            code, errors, _ = run_quietly(argv, out)
            assert code in (0, 2)
            assert len(errors) == (1 if code else 0)


RAW_DOCUMENTS = [Path(data_path(name)).read_bytes()
                 for name in ("shared_single.json", "shared_double.json", "vacuum.json")]
# Bytes that never occur in UTF-8: continuation bytes cannot start a
# character, and 0xc0, 0xc1 and 0xf5-0xff are never valid.
NON_UTF8_BYTES = (0x80, 0xbf, 0xc0, 0xc1, 0xf5, 0xfe, 0xff)


@st.composite
def damaged_files(draw):
    """A ``tests/data`` file's bytes with a non-UTF-8 byte written over a
    drawn offset, cut at a drawn offset, or behind a prefix of drawn
    nesting depth (closed after the document or left open)."""
    raw = draw(st.sampled_from(RAW_DOCUMENTS))
    damage = draw(st.sampled_from(("byte", "cut", "nest")))
    if damage == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([draw(st.sampled_from(NON_UTF8_BYTES))]) + raw[at + 1:]
    if damage == "cut":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    depth = draw(st.sampled_from((1, 10, 900, 5000, 100_000)))
    return b"[" * depth + raw + (b"]" * depth if draw(st.booleans()) else b"")


@settings(max_examples=100, deadline=None, derandomize=True)
@example(data=b"[" * 100_000 + b"]" * 100_000)
@example(data=RAW_DOCUMENTS[0].replace(b'"a', b'"a\xff', 1))
@given(data=damaged_files())
def test_damaged_state_bytes_exit_cleanly(data):
    # Damage below the JSON level: bytes that are not UTF-8, a cut file and
    # deep nesting are parse errors (exit 2) with one error line, or, where
    # the damage leaves a valid file, exit 0; never a traceback.
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work, "state.json"), str(Path(work, "out.json"))
        path.write_bytes(data)
        for argv in (["ep", str(path)], ["transfer", str(path), "--M", "4"],
                     ["transfer", str(path), "--M", "4", "--path", "quadrature"]):
            code, errors, _ = run_quietly(argv, out)
            assert code in (0, 2)
            assert len(errors) == (1 if code else 0)


# Hostile option values, each run with a cheap valid partner option.
OPTION_VALUES = ("nan", "inf", "-inf", "-1", "0", "5e-324", "1e9", "1e15", "1e308")
OPTION_SLOTS = (
    lambda v: ["measure", f"--ntr={v}", "--local-scale", "1"],
    lambda v: ["measure", "--ntr", "4", f"--local-scale={v}"],
    lambda v: ["sweep", f"--ntr-list=4,{v}", "--local-scale", "1"],
    lambda v: ["sweep", "--ntr-list", "4", f"--local-scale={v}"],
    lambda v: ["bounds", "--seeds", "1", "--s", "16", f"--nbar={v},1"],
    lambda v: ["bounds", "--seeds", "1", "--s", "16", f"--nbar=1,{v}"],
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(slot=st.sampled_from(OPTION_SLOTS), value=st.sampled_from(OPTION_VALUES))
def test_numeric_options_exit_cleanly(slot, value):
    # NaN, infinities, negatives, zero, the smallest subnormal and huge
    # values: every run ends in a documented exit code with at most one
    # error line.
    with tempfile.TemporaryDirectory() as work:
        code, errors, _ = run_quietly(slot(value), str(Path(work, "out.json")))
    assert code in (0, 2, 3, 4, 5)
    assert len(errors) == (1 if code else 0)


VALID_STATE = {
    "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
              {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
    "terms": [{"occ": [1, 0], "amp": [2 ** -0.5, 0.0]},
              {"occ": [0, 1], "amp": [2 ** -0.5, 0.0]}],
}


@pytest.mark.parametrize("command", ["ep", "transfer"])
@pytest.mark.parametrize("where,key,value", [
    ("term", "occ", ["x", 0]), ("term", "occ", None), ("term", "occ", 5),
    ("term", "amp", ["a", 0.0]), ("term", "amp", [None, 0.0]),
    ("term", "amp", [10 ** 400, 0.0]),
    # a finite modulus whose square passes the largest float: the norm is named
    ("term", "amp", [1e200, 0.0]), ("term", "amp", [1e308, 0.0]),
    ("top", "modes", 5), ("top", "terms", 5),
    # non-integral numbers are not truncated to an integer
    ("term", "occ", [1.5, 0]), ("mode", "capacity", 1.7),
    # occupations past the capacity or below 0, and labels of the wrong width
    ("term", "occ", [2, 0]), ("term", "occ", [-1, 0]), ("term", "occ", [1, 0, 0]),
    ("term", "occ", [1]),
    # mode ids, sites and kinds must be JSON strings
    ("mode", "id", None), ("mode", "id", 5), ("mode", "site", 1), ("mode", "kind", None),
], ids=["occ-string", "occ-null", "occ-number", "amp-string", "amp-null", "amp-past-float",
        "amp-square-past-float", "amp-near-largest-float", "modes-number", "terms-number",
        "occ-fraction", "capacity-fraction", "occ-past-capacity", "occ-negative", "occ-too-wide",
        "occ-too-narrow", "id-null", "id-number", "site-number", "kind-null"])
def test_malformed_state_file_exit_2(capsys, tmp_path, command, where, key, value):
    data = json.loads(json.dumps(VALID_STATE))
    target = {"top": data, "mode": data["modes"][0], "term": data["terms"][0]}[where]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "\n" not in err
    if key == "occ" and isinstance(value, list) and all(type(x) is int for x in value):
        assert str(tuple(value)) in err
    if key == "amp" and value[0] in (1e200, 1e308):
        assert f"norm {value[0]:g};" in err


class TestStateFileRoundTrip:
    # Norms within a few ulps of 1 renormalize with a warning.
    @pytest.mark.filterwarnings("ignore:renormalizing state file:UserWarning")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs())
    def test_parse_inverts_state_to_dict(self, state):
        parsed = parse_state(state_to_dict(state))
        assert parsed.layout == state.layout
        assert sorted(parsed.amplitudes) == sorted(state.amplitudes)
        for label, amp in state.amplitudes.items():
            assert abs(parsed.amplitudes[label] - amp) <= 1e-15

    def test_load_shared_double(self):
        state = load_state(data_path("shared_double.json"))
        assert len(state.amplitudes) == 4
        assert np.linalg.norm(list(state.amplitudes.values())) == pytest.approx(1.0, abs=1e-12)

    def test_renormalization_warning(self, tmp_path):
        slightly_off = 0.70710678
        path = tmp_path / "near.json"
        path.write_text(json.dumps({
            "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
                      {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
            "terms": [{"occ": [1, 0], "amp": [slightly_off, 0.0]},
                      {"occ": [0, 1], "amp": [slightly_off, 0.0]}],
        }))
        with pytest.warns(UserWarning, match=r"^renormalizing state file \(norm 0\.99"):
            state = load_state(str(path))
        assert np.linalg.norm(list(state.amplitudes.values())) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), prior=st.integers(0, 9), w=st.integers(16, 2048))
@example(seed=2 ** 32 - 1, prior=1, w=16)
def test_reseeded_generator_draws_as_a_fresh_one(seed, prior, w):
    # An odd number of earlier draws leaves a cached Gaussian; seed() drops it.
    rng = _bounds_rng()
    rng.randn(prior)
    rng.seed(seed)
    assert rng.randn(4, w + 1).tobytes() == np.random.RandomState(seed).randn(4, w + 1).tobytes()

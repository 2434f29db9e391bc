import hashlib
import json
from functools import partial

import numpy as np
import pytest

from chargepair import bethe, cli, models, reference_tables, spectra


def run(argv, tmp_path, name="run", fmt="both"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out), "--format", fmt])
    result = {}
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".json")
    if csv_path.exists():
        result["csv"] = csv_path.read_text()
    if json_path.exists():
        result["json"] = json.loads(json_path.read_text())
    return code, result


class TestBasicCommands:
    def test_liebwu_gap_value(self, tmp_path):
        code, res = run(["liebwu", "gap", "--U", "3"], tmp_path)
        assert code == 0
        value = float(res["csv"].splitlines()[1].split(",")[2])
        assert abs(value - 0.3156965889) < 1e-9

    def test_table2_closed_forms(self, tmp_path):
        code, res = run(["reproduce", "table2", "--U", "6"], tmp_path)
        assert code == 0
        lines = res["csv"].strip().splitlines()
        assert len(lines) == 6
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        assert energies == [3.0, 0.0, -3.0, 3.0, -3.0]

    def test_table2_at_zero_coupling(self, tmp_path):
        code, res = run(["reproduce", "table2", "--U", "0"], tmp_path)
        assert code == 0
        energies = [float(line.split(",")[2]) for line in res["csv"].strip().splitlines()[1:]]
        assert energies == [0.0] * 5
        assert res["json"]["parameters"]["U"] == 0.0

    def test_table2_holds_the_two_site_size(self, capsys):
        # any other size is refused (TestExitCodes)
        assert cli.main(["reproduce", "table2", "--sizes", "2"]) == 0
        trimmed = capsys.readouterr().out
        assert cli.main(["reproduce", "table2"]) == 0
        assert capsys.readouterr().out == trimmed

    def test_spectrum_rows(self, tmp_path):
        code, res = run(
            ["spectrum", "--model", "charge_pair", "--L", "2", "--U", "2"], tmp_path
        )
        assert code == 0
        rows = res["json"]["rows"]
        assert sum(r["degeneracy"] for r in rows) == 16

    def test_compare_match(self, tmp_path):
        code, res = run(
            ["compare", "--model-a", "hubbard", "--model-b", "charge_pair",
             "--L", "4", "--U", "2", "--tol", "1e-10"],
            tmp_path,
        )
        assert code == 0
        assert res["json"]["rows"][0]["match"] is True

    def test_bethe_roots_and_energy(self, tmp_path):
        code, res = run(["bethe", "--state", "ground", "--L", "6", "--U", "2"], tmp_path)
        assert code == 0
        rows = res["json"]["rows"]
        energy = [r for r in rows if r["quantity"] == "energy"][0]["value"]
        bethe.state_energy.cache_clear()
        assert abs(energy - bethe.state_energy("ground", 6, 2.0)) < 1e-12

    def test_bethe_reads_the_stored_roots(self, tmp_path, monkeypatch):
        stored = bethe.state_energy("ground", 385, 4.0)

        def no_solve(config, *, seed=None):
            raise AssertionError(f"solved L={config.L}")

        monkeypatch.setattr(bethe, "solve", no_solve)
        code, res = run(["bethe", "--state", "ground", "--L", "385", "--U", "4"], tmp_path)
        assert code == 0
        rows = res["json"]["rows"]
        assert [r["value"] for r in rows if r["quantity"] == "energy"] == [stored]

    def test_gap_row(self, tmp_path):
        code, res = run(["gap", "--L", "62", "--U", "2"], tmp_path)
        assert code == 0
        assert abs(res["json"]["rows"][0]["gap"] - 0.1397049178) < 1e-8
        assert "parity" not in res["json"]["parameters"]

    @pytest.mark.parametrize("L,parity", [(62, "even"), (65, "odd")])
    def test_gap_row_parity_follows_from_the_size(self, monkeypatch, tmp_path, L, parity):
        monkeypatch.setattr(bethe, "charge_gap", lambda L, U: 0.5)
        code, res = run(["gap", "--L", str(L), "--U", "2"], tmp_path)
        assert code == 0
        assert res["csv"] == f"L,U,parity,gap\n{L},2,{parity},0.5\n"

    def test_scaling_dim_row(self, tmp_path):
        code, res = run(["scaling-dim", "--j", "0", "--sizes", "65,145", "--U", "2"], tmp_path)
        assert code == 0
        [row] = res["json"]["rows"]
        assert (row["L"], row["U"], row["j"]) == (145, 2.0, 0)
        assert abs(row["X"] - reference_tables.TABLES["table8"][2.0][145]) < 5e-3

    def test_extrapolate_command(self, tmp_path):
        sizes = "10,20,40,80"
        values = ",".join(str(0.25 + 1.0 / L) for L in (10, 20, 40, 80))
        code, res = run(
            ["extrapolate", "--sizes", sizes, "--values", values], tmp_path
        )
        assert code == 0
        assert abs(res["json"]["rows"][0]["limit"] - 0.25) < 1e-9

    @pytest.mark.parametrize("sizes,values", [("10,20,30,40", "1,0.5,0.4"),
                                              ("10,20,30", "1,0.5,0.4,0.3")])
    def test_extrapolate_lists_of_different_length(self, tmp_path, capsys, sizes, values):
        code, res = run(["extrapolate", "--sizes", sizes, "--values", values], tmp_path)
        assert code == 2 and res == {}
        assert "usage error" in capsys.readouterr().err

    def test_transfer_command(self, tmp_path):
        code, res = run(["transfer", "--L", "3", "--U", "2", "--grid", "3"], tmp_path)
        assert code == 0
        row = res["json"]["rows"][0]
        assert row["max_commutator"] < 1e-10
        assert row["log_derivative_residual"] < 1e-10

    @pytest.mark.parametrize("argv", [["--L", "3", "--grid", "1"], ["--L", "1"], ["--L", "9"]])
    def test_transfer_usage_errors(self, argv, tmp_path):
        # one spectral parameter has no pair to commute; L = 1 has no ring;
        # L = 9 is over the sweep's 4^8-entry rule
        code, res = run(["transfer", "--U", "2"] + argv, tmp_path)
        assert code == 2 and res == {}


class TestDeterminismAndManifest:
    def test_identical_invocations_byte_identical(self, tmp_path):
        argv = ["ybe", "spin", "--U", "4", "--pairs", "20", "--seed", "7"]
        _, first = run(argv, tmp_path, name="a")
        _, second = run(argv, tmp_path, name="b")
        assert first["csv"] == second["csv"]
        assert (
            first["json"]["manifest"]["csv_sha256"]
            == second["json"]["manifest"]["csv_sha256"]
        )

    # recorded rows of U = 4, 100 pairs, seed 7; the residuals sit at the
    # rounding level, which differs between CPUs, so they are compared to 1e-13
    @pytest.mark.parametrize("variant,max_residual,mean_residual", [
        ("spin", 3.688022109926692e-15, 7.120723862698721e-16),
        ("graded", 2.7894353493707058e-14, 2.9990685499262095e-15),
        ("curve", 3.552713678800501e-15, 4.1078251911130794e-16),
    ], ids=["spin", "graded", "curve"])
    def test_seed_echoed_in_manifest(self, tmp_path, variant, max_residual, mean_residual):
        _, res = run(["ybe", variant, "--U", "4", "--pairs", "100", "--seed", "7"], tmp_path)
        assert res["json"]["manifest"]["seed"] == 7
        assert res["json"]["rows"] == [{
            "variant": variant, "U": 4.0, "pairs": 100,
            "max_residual": pytest.approx(max_residual, abs=1e-13),
            "mean_residual": pytest.approx(mean_residual, abs=1e-13)}]
        assert res["json"]["rows"][0]["max_residual"] < 1e-12

    def test_csv_values_present_in_json(self, tmp_path):
        _, res = run(["gap", "--L", "62", "--U", "2"], tmp_path)
        header = res["csv"].splitlines()[0].split(",")
        values = res["csv"].splitlines()[1].split(",")
        row = res["json"]["rows"][0]
        for col, text in zip(header, values):
            if col in ("L",):
                assert int(text) == row[col]
            elif col != "parity":
                assert float(text) == pytest.approx(row[col], rel=1e-12)

    def test_jobs_over_every_column_of_a_dimension_table(self, tmp_path):
        argv = ["reproduce", "table8", "--sizes", "65,145"]
        _, serial = run(argv, tmp_path, name="serial")
        _, one_job = run(argv + ["--jobs", "1"], tmp_path, name="one_job")
        assert [line.split(",")[1] for line in serial["csv"].splitlines()[1:]] == ["2", "3", "4"]
        assert serial["csv"] == one_job["csv"]


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_do_not_interfere(self, tmp_path):
        table2 = ["reproduce", "table2"]
        gap = ["gap", "--L", "62", "--U", "2"]
        _, first = run(table2, tmp_path, name="table2", fmt="json")
        _, shared = run(gap, tmp_path, name="gap", fmt="json")
        _, second = run(table2, tmp_path, name="table2", fmt="json")
        for payload in (first, second):
            del payload["json"]["manifest"]["wall_time_s"]
        assert first == second
        cli.build_parser.cache_clear()
        _, fresh = run(gap, tmp_path, name="fresh", fmt="json")
        assert shared["json"]["rows"] == fresh["json"]["rows"]
        assert shared["json"]["rows"][0]["gap"] == bethe.charge_gap(62, 2.0)


class TestReproduce:
    def test_table4_deviations(self, tmp_path):
        code, res = run(
            ["reproduce", "table4", "--U", "2", "--sizes", "62,142"], tmp_path
        )
        assert code == 0
        devs = res["json"]["deviations"]
        assert len(devs) == 2
        assert all(d["deviation"] < 1e-8 for d in devs)
        assert all(d["scored"] for d in devs)

    def test_suspect_cells_flagged(self, tmp_path):
        code, res = run(
            ["reproduce", "table7", "--U", "2", "--sizes", "65,385"], tmp_path
        )
        assert code == 0
        devs = {d["L"]: d for d in res["json"]["deviations"]}
        assert devs[65]["scored"] and not devs[65]["suspect"]
        assert devs[385]["suspect"] and not devs[385]["scored"]
        assert devs[385]["deviation"] > 1e-4

    def test_include_suspect_flag(self, tmp_path):
        code, res = run(
            ["reproduce", "table7", "--U", "2", "--sizes", "385", "--include-suspect"],
            tmp_path,
        )
        assert code == 0
        assert res["json"]["deviations"][0]["scored"]

    @pytest.mark.parametrize("table,sizes", [("table4", [62, 142, 222]),
                                             ("table7", [65, 145, 225]),
                                             ("table7", [225, 145, 65])])
    def test_gap_column_climbs_each_ground_rung_once(self, monkeypatch, tmp_path, table, sizes):
        # the smallest size is one cold ground solve that seeds its
        # excitation; each larger size is one ground solve seeded from the
        # size below and one excitation solve seeded from that ground.  The
        # rows keep the order of --sizes.
        expected = {}
        for L in sizes:
            bethe.state_energy.cache_clear()
            expected[L] = bethe.charge_gap(L, 2.0)
        bethe.state_energy.cache_clear()
        original, solved = bethe.solve, []

        def spy(config, *, seed=None):
            solved.append((config, seed.config if seed else None))
            return original(config, seed=seed)

        monkeypatch.setattr(bethe, "solve", spy)
        code, res = run(["reproduce", table, "--U", "2", "--sizes", ",".join(map(str, sizes))],
                        tmp_path)
        assert code == 0
        assert [row["L"] for row in res["json"]["rows"]] == sizes
        for row in res["json"]["rows"]:
            assert abs(row["computed"] - expected[row["L"]]) <= 1e-12
        config = partial(bethe.quantum_numbers, U=2.0)
        ascending = sorted(sizes)
        ground = config("ground", ascending[0])
        path = [(ground, None), (config("charge_excitation", ascending[0]), ground)]
        for below, L in zip(ascending, ascending[1:]):
            path.append((config("ground", L), config("ground", below)))
            path.append((config("charge_excitation", L), config("ground", L)))
        assert solved == path

    @pytest.mark.parametrize("table", ["table4", "table7"])
    def test_full_gap_column_at_the_target_coupling(self, monkeypatch, tmp_path, table):
        # all eight sizes up to L = 1038 through the store, with no fallback
        # to continuation in U
        newton, couplings = bethe._newton, set()

        def spy(k, mu, cfg):
            couplings.add(cfg.U)
            return newton(k, mu, cfg)

        monkeypatch.setattr(bethe, "_newton", spy)
        code, res = run(["reproduce", table, "--U", "2"], tmp_path)
        assert code == 0
        assert couplings == {2.0}
        devs = res["json"]["deviations"]
        assert [d["L"] for d in devs] == sorted(reference_tables.TABLES[table][2.0])
        assert all(d["deviation"] <= 1e-8 for d in devs if d["scored"])

    def test_table8_trimmed(self, tmp_path):
        code, res = run(
            ["reproduce", "table8", "--U", "3", "--sizes", "65,145,225"], tmp_path
        )
        assert code == 0
        devs = res["json"]["deviations"]
        assert len(devs) == 2
        assert all(d["deviation"] < 5e-3 for d in devs)


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--L", "62"])
        assert exc.value.code == 2

    def test_usage_error_from_validation(self, capsys):
        code = cli.main(["gap", "--L", "8", "--U", "2"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_gap_size_outside_both_classes_fails_before_any_solve(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a gap at a multiple of four")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(["gap", "--L", "64", "--U", "2"]) == 2
        assert "L=64" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gap", "--L", "100000000", "--U", "2"],
                                      ["bethe", "--state", "ground", "--L", "4097", "--U", "2"]])
    def test_size_above_the_limit_fails_before_any_branch_number(self, monkeypatch, capsys, argv):
        class NoBranchNumbers(dict):
            def __getitem__(self, key):
                raise AssertionError("built branch numbers above the size limit")

        monkeypatch.setattr(bethe, "_STATES", NoBranchNumbers())
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"L={argv[argv.index('--L') + 1]}" in err and str(bethe._MAX_L) in err

    @pytest.mark.parametrize("argv", [["scaling-dim", "--j", "0", "--sizes", "145,65", "--U", "2"],
                                      ["scaling-dim", "--j", "0", "--sizes", "225,65,145",
                                       "--U", "2"],
                                      ["reproduce", "table8", "--U", "2", "--sizes", "145,65"]])
    def test_unsorted_dimension_sizes_fail_before_any_solve(self, monkeypatch, capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a dimension series over unsorted sizes")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["reproduce", "table4", "--U", "2", "--sizes", ","],
                                      ["reproduce", "table2", "--sizes", ","],
                                      ["reproduce", "table2", "--sizes", ""],
                                      ["scaling-dim", "--j", "0", "--sizes", ",", "--U", "2"]])
    def test_sizes_naming_no_size_fail_before_any_solve(self, monkeypatch, capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with no size given")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error: --sizes names no size" in err

    @pytest.mark.parametrize("argv,named", [
        (["reproduce", "table4", "--U", "2", "--sizes", "62,62"], "L=62"),
        (["reproduce", "table8", "--U", "2", "--sizes", "65,145,65,145"], "L=65, L=145"),
        (["scaling-dim", "--j", "0", "--sizes", "65,65", "--U", "2"], "L=65"),
        (["extrapolate", "--sizes", "10,20,20", "--values", "1,0.5,0.4"], "L=20")])
    def test_repeated_size_fails_before_any_solve(self, monkeypatch, capsys, argv, named):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a repeated size")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"usage error: --sizes repeats {named}" in err

    def test_dimension_size_above_the_limit_fails_before_any_solve(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved the smaller sizes of a series with one above the limit")

        monkeypatch.setattr(bethe, "solve", no_solve)
        argv = ["scaling-dim", "--j", "0", "--sizes", "225,465,4097", "--U", "2"]
        assert cli.main(argv) == 2
        assert "L=4097" in capsys.readouterr().err

    def test_central_charge_at_odd_size_fails_before_any_solve(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a central charge at an odd size")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(["central-charge", "--L", "65", "--U", "2"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "L=65" in err

    def test_extrapolate_non_finite_value(self, capsys):
        code = cli.main(["extrapolate", "--sizes", "10,20,30", "--values", "1,0.5,nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "nan at L=30" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["bethe", "--state", "ground", "--L", "13", "--U", "nan"],
                                      ["bethe", "--state", "ground", "--L", "13", "--U", "inf"],
                                      ["transfer", "--L", "3", "--U", "nan"],
                                      ["liebwu", "gap", "--U", "nan"],
                                      ["ybe", "curve", "--U", "inf"]])
    def test_coupling_that_is_not_finite(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error: coupling U must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["spectrum", "--model", "spin_xx", "--L", "3", "--U", "nan"],
                                      ["compare", "--model-a", "hubbard", "--model-b",
                                       "charge_pair", "--L", "3", "--U", "inf"],
                                      ["reproduce", "table2", "--U", "nan"]])
    def test_model_coupling_that_is_not_finite(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error: coupling U must be finite, got U=" in err

    @pytest.mark.parametrize("argv", [["bethe", "--state", "ground", "--L", "-1", "--U", "2"],
                                      ["gap", "--L", "-3", "--U", "2"],
                                      ["central-charge", "--L", "-2", "--U", "2"],
                                      ["gap", "--L", "0", "--U", "2"],
                                      ["bethe", "--state", "ground", "--L", "-4", "--U", "2"]])
    def test_size_below_one_fails_before_any_solve(self, monkeypatch, capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved at a size below one")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        L = argv[argv.index("--L") + 1]
        assert f"usage error: sizes must be at least 1, got L={L}" in capsys.readouterr().err

    def test_one_site_gap(self, capsys):
        assert cli.main(["gap", "--L", "1", "--U", "2"]) == 0
        assert capsys.readouterr().out == "L,U,parity,gap\n1,2,odd,1\n"
        # table 7 holds no one-site row, so there is no reference to print
        assert cli.main(["reproduce", "table7", "--U", "2", "--sizes", "1"]) == 2
        assert "table7 has no size L=1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_compare_tolerance_must_be_finite_and_non_negative(self, monkeypatch, capsys, tol):
        def no_build(*args, **kwargs):
            raise AssertionError("built a model before checking the tolerance")

        monkeypatch.setattr(models, "build_model", no_build)
        code = cli.main(["compare", "--model-a", "hubbard", "--model-b", "charge_pair",
                         "--L", "3", "--U", "2", "--tol", tol])
        assert code == 2
        assert f"finite and non-negative, got tol={float(tol)}" in capsys.readouterr().err

    @pytest.mark.parametrize("sector", ["1", "1,2,3", "a,b"])
    def test_sector_needs_two_counts(self, capsys, sector):
        code = cli.main(["spectrum", "--model", "charge_pair_transformed", "--L", "3",
                         "--U", "2", "--sector", sector])
        assert code == 2
        assert f"--sector takes n_up,n_down, got '{sector}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--model", "hubbard", "--L", "3", "--sector", "1,1"],
         "sector blocks are available for charge_pair_transformed only"),
        (["--model", "charge_pair_transformed", "--L", "3", "--sector", "4,0"],
         "sector Sector(n_up=4, n_down=0) out of range for L=3"),
        (["--model", "charge_pair", "--L", "1"], "ring models need L >= 2")],
        ids=["untransformed", "out_of_range", "one_site_ring"])
    def test_spectrum_block_or_ring_that_does_not_exist(self, capsys, argv, message):
        assert cli.main(["spectrum", "--U", "2"] + argv) == 2
        assert f"usage error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [(["--sizes", "0,1,2"], "L=0, L=1"),
                                            (["--sizes", "1,2,3", "--mode", "log-corrected"],
                                             "L=1")])
    def test_extrapolate_sizes_below_two(self, capfd, argv, named):
        assert cli.main(["extrapolate", "--values", "1,2,3"] + argv) == 2
        err = capfd.readouterr().err
        assert f"usage error: sizes must be at least 2, got {named}" in err
        assert "Traceback" not in err and "DLASCL" not in err

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_ybe_needs_a_pair(self, capsys, pairs):
        assert cli.main(["ybe", "spin", "--U", "2", "--pairs", pairs]) == 2
        assert f"--pairs needs at least one pair, got {pairs}" in capsys.readouterr().err

    def test_spectrum_needs_positive_k(self, capsys):
        code = cli.main(["spectrum", "--model", "charge_pair", "--L", "2", "--U", "2",
                         "--k", "0"])
        assert code == 2
        assert "k must be at least 1" in capsys.readouterr().err

    def test_coupling_outside_the_table_fails_before_any_solve(self, monkeypatch, capsys):
        def no_solve(config, *, seed=None):
            raise AssertionError("solved a cell of a column the table does not have")

        monkeypatch.setattr(bethe, "solve", no_solve)
        code = cli.main(["reproduce", "table4", "--U", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "U=5" in err and "2, 3, 4" in err

    @pytest.mark.parametrize("table,sizes", [("table4", "222,302,64"), ("table5", "62,65"),
                                             ("table7", "65,62"), ("table9", "65,145,224"),
                                             ("table7", "1"), ("table4", "6"),
                                             ("table2", "5"), ("table2", "2,62")])
    def test_size_outside_the_class_fails_before_any_solve(self, monkeypatch, capsys,
                                                           table, sizes):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a cell before checking every size")

        monkeypatch.setattr(bethe, "solve", no_solve)
        code = cli.main(["reproduce", table, "--sizes", sizes])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"L={sizes.split(',')[-1]}" in err

    def test_tolerance_is_no_option_of_bethe(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bethe", "--state", "ground", "--L", "13", "--U", "2", "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["liebwu", "gap", "--U", "1e-5"],
                                      ["liebwu", "energy", "--U", "1e-200"],
                                      ["scaling-dim", "--j", "1", "--sizes", "65,145",
                                       "--U", "1e-300"],
                                      ["central-charge", "--L", "62", "--U", "1e-4"]])
    def test_coupling_too_small_for_the_quadrature(self, monkeypatch, capfd, argv):
        def no_panels(*args, **kwargs):
            raise AssertionError("built quadrature panels for a coupling that needs too many")

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before refusing the coupling")

        monkeypatch.setattr(np, "linspace", no_panels)
        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        err = capfd.readouterr().err
        U = argv[-1]
        assert err.startswith(f"usage error: coupling U={float(U)} is too small")
        assert "the smallest accepted U is about 0.000509" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["bethe", "--state", "ground", "--L", "13", "--U", "1e-200"],
                                      ["bethe", "--state", "ground", "--L", "6", "--U", "1e-300"],
                                      ["gap", "--L", "62", "--U", "5e-324"]])
    def test_coupling_whose_square_underflows(self, monkeypatch, capfd, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved at a coupling whose square underflows")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(argv) == 2
        err = capfd.readouterr().err
        U = argv[-1]
        assert err == (f"usage error: coupling U={float(U)} is too small: U^2 underflows, "
                       "so U must be at least 1.492e-154\n")

    @pytest.mark.parametrize("U", ["1.0000000000000002e150", "1.3e154", "1e200", "1e308"])
    def test_coupling_above_the_kernel_bound(self, monkeypatch, capfd, U):
        # the smallest float above 1e150, and couplings where the unbounded
        # kernels overflow (1.3e154, 1e200) or the seeds turn to nan (1e308)
        def no_solve(*args, **kwargs):
            raise AssertionError("solved at a coupling where the Bethe kernels overflow")

        monkeypatch.setattr(bethe, "solve", no_solve)
        assert cli.main(["bethe", "--state", "ground", "--L", "13", "--U", U]) == 2
        assert capfd.readouterr().err == (
            f"usage error: coupling U={float(U)} is too large: the Bethe kernels overflow, "
            "so U must be at most 1e+150\n")

    @pytest.mark.parametrize("state,L", [("ground", 13), ("first_excitation", 13),
                                         ("spin_excitation", 14)])
    def test_largest_accepted_coupling_solves_without_overflow(self, capfd, state, L):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert cli.main(["bethe", "--state", state, "--L", str(L), "--U", "1e150",
                             "--format", "json"]) == 0
        out, err = capfd.readouterr()
        rows = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
        assert err == ""
        assert rows["residual_norm"] <= 1e-12 and np.isfinite(rows["energy"])

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        def boom(L, U):
            raise bethe.SolverError("did not converge", residual=1.0)

        monkeypatch.setattr(bethe, "charge_gap", boom)
        code = cli.main(["gap", "--L", "62", "--U", "2"])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err

    def test_extrapolation_with_no_finite_limit_exits_one(self, capsys):
        code = cli.main(["extrapolate", "--sizes", "2,3,4", "--values", "1e308,-1e308,1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "solver failure: rational extrapolation produced no finite result\n"

    def test_ghost_eigenvalue_exits_one(self, monkeypatch, capsys):
        def ghost(h, k=None, sector=None):
            raise RuntimeError("iterative eigenvalue -3.0 has residual 1.000e-02")

        monkeypatch.setattr(spectra, "spectrum", ghost)
        code = cli.main(["spectrum", "--model", "hubbard", "--L", "3", "--U", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "solver failure: iterative eigenvalue -3.0 has residual 1.000e-02\n"

    def test_jobs_is_an_option_of_reproduce_alone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["liebwu", "xi", "--U", "2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_more_than_one_job_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "table4", "--U", "2", "--sizes", "62", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_stdout_csv_default(self, capsys):
        code = cli.main(["liebwu", "xi", "--U", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "quantity,U,value"

    def test_both_formats_without_out_are_refused(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a gap whose output has nowhere to go")

        monkeypatch.setattr(bethe, "charge_gap", no_solve)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--U", "2", "--L", "62", "--format", "both"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--out" in err

    def test_out_into_a_missing_directory_fails_before_any_solve(self, monkeypatch, capsys,
                                                                 tmp_path):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a column whose output has nowhere to go")

        monkeypatch.setattr(bethe, "solve", no_solve)
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "table4", "--U", "2", "--sizes", "62",
                      "--out", str(missing / "x")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--out directory {str(missing)!r} does not exist" in err
        assert not missing.exists()

    @pytest.mark.parametrize("argv,column", [
        (["ybe", "spin", "--U", "1e200", "--pairs", "3"], "max_residual"),
        (["ybe", "curve", "--U", "1e200"], "max_residual"),
        (["transfer", "--L", "2", "--U", "1e100"], "max_commutator"),
    ])
    def test_result_that_is_not_finite_exits_one(self, capsys, argv, column):
        # the dressing e^{2h} overflows at these couplings; exit 0 would
        # print nan or inf as an answer
        with np.errstate(all="ignore"):
            code = cli.main(argv)
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"solver failure: {column} is ")

    def test_stdout_json_digests_its_csv(self, capsys):
        assert cli.main(["liebwu", "xi", "--U", "2"]) == 0
        csv = capsys.readouterr().out
        assert cli.main(["liebwu", "xi", "--U", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        digest = payload["manifest"]["csv_sha256"]
        assert digest == hashlib.sha256(cli._csv_body(payload["rows"]).encode()).hexdigest()
        assert digest == hashlib.sha256(csv.encode()).hexdigest()

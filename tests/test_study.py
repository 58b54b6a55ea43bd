"""Study driver: configs, CSV round trip, plots, presets, CLI exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvcfem.analysis import ErrorReport, RateFit, error_report
from bvcfem.assembly import assemble_nitsche
from bvcfem.geometry import make_ring_domain
from bvcfem.solver import SingularSystem, solve
from bvcfem.study import (
    CSV_HEADER,
    PRESETS,
    ConfigError,
    IoError,
    StudyConfig,
    StudyResult,
    build_level,
    check_rates,
    check_unstable,
    emit_csv,
    emit_plots,
    expected_rates,
    main,
    parse_config_file,
    run_preset,
    run_study,
    validate_config,
)


def read_rows(path):
    """An emit_csv file as one dict of strings per level, through the stdlib reader."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER.split(",")
        return list(reader)


@pytest.fixture(scope="module")
def small_ring_study():
    return run_study(StudyConfig(domain="ring", element="p2", method="bvc", levels=3))


class TestConfig:
    def test_defaults_valid(self):
        validate_config(StudyConfig())

    def test_q1_requires_ellipse(self):
        with pytest.raises(ConfigError):
            validate_config(StudyConfig(domain="ring", element="q1"))

    def test_p2_requires_ring(self):
        with pytest.raises(ConfigError):
            validate_config(StudyConfig(domain="ellipse", element="p2"))

    def test_auto_multiplier_degree(self):
        assert StudyConfig(element="p3").mult_degree() == 2
        assert StudyConfig(element="q1", domain="ellipse").mult_degree() == 0
        assert StudyConfig(multiplier_degree=2).mult_degree() == 2

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            validate_config(StudyConfig(method="penalty"))

    def test_config_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# example\ndomain = ring\nelement = p2\nlevels = 3  # short ladder\n"
        )
        assert parse_config_file(path) == {"domain": "ring", "element": "p2", "levels": "3"}

    def test_non_integer_multiplier_degree(self):
        with pytest.raises(ConfigError, match="multiplier_degree"):
            validate_config(StudyConfig(multiplier_degree="x"))

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"element": "p3", "multiplier_degree": 2.7}, "multiplier_degree"),
            ({"multiplier_degree": 1.0}, "multiplier_degree"),
            ({"levels": 2.5}, "levels"),
            ({"levels": 2.0}, "levels"),
        ],
        ids=["degree-2.7", "degree-1.0", "levels-2.5", "levels-2.0"],
    )
    def test_non_integral_value_from_the_api(self, settings, key):
        # int() would truncate the degree, and range() rejects a float count.
        with pytest.raises(ConfigError, match=key):
            validate_config(StudyConfig(**settings))

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"enrich": "no"}, "enrich"),
            ({"method": "nitsche", "gamma0": float("nan")}, "gamma0"),
            ({"method": "nitsche", "gamma0": float("inf")}, "gamma0"),
            ({"method": "nitsche", "gamma0": "5"}, "gamma0"),
            ({"levels": True}, "levels"),
            ({"multiplier_degree": False}, "multiplier_degree"),
            ({"method": "nitsche", "gamma0": True}, "gamma0"),
            ({"method": "bvc", "gamma0": 5.0}, "gamma0"),
            ({"method": "nitsche", "multiplier_degree": 7}, "multiplier_degree"),
        ],
        ids=["enrich-text", "gamma0-nan", "gamma0-inf", "gamma0-text", "levels-bool",
             "degree-bool", "gamma0-bool", "gamma0-unread", "degree-unread"],
    )
    def test_bad_value_from_the_api_names_key(self, settings, key):
        # A truthy string would run enriched; a nan penalty fails in the solver;
        # a bool is an integer to Python; a setting the method never reads
        # would be silently dropped.
        with pytest.raises(ConfigError, match=key):
            validate_config(StudyConfig(**settings))

    def test_config_file_bad_boolean_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("domain = ring\nenrich = flase\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2: .*enrich"):
            parse_config_file(path)

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("solver = magic\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestRunStudy:
    def test_reports_and_rates(self, small_ring_study):
        res = small_ring_study
        assert len(res.reports) == 3
        assert not res.failures
        hs = [r.h for r in res.reports]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert res.rates is not None
        assert 2.5 <= res.rates["l2"].last3 <= 3.6

    def test_elevation_rows_match_nno(self, small_ring_study):
        res = small_ring_study
        assert res.elevation.shape == (res.reports[-1].nno, 3)

    def test_elevation_is_none_when_the_finest_level_fails(self, monkeypatch):
        from bvcfem import study

        solved = []

        def failing_finest(system, order):
            solved.append(system.method)
            if len(solved) == 3:
                raise SingularSystem("finest level")
            return solve(system, order)

        monkeypatch.setattr(study, "solve", failing_finest)
        res = run_study(StudyConfig(domain="ring", element="p1", method="bvc", levels=3))
        assert [level for level, _ in res.records] == [0, 1]
        assert [level for level, _ in res.failures] == [2]
        assert res.elevation is None

    def test_deterministic_rerun(self, small_ring_study):
        res2 = run_study(StudyConfig(domain="ring", element="p2", method="bvc", levels=3))
        for a, b in zip(small_ring_study.reports, res2.reports):
            assert a.err_l2 == b.err_l2
            assert a.err_h1 == b.err_h1
            assert a.err_lambda == b.err_lambda


class TestCsv:
    def test_round_trip(self, small_ring_study, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_ring_study, path)
        rows = read_rows(path)
        assert len(rows) == 3
        for (level, report), row in zip(small_ring_study.records, rows):
            assert int(row["level"]) == level
            assert float(row["h"]) == report.h
            assert int(row["nno"]) == report.nno
            assert float(row["err_l2"]) == report.err_l2
            assert float(row["err_h1"]) == report.err_h1
            assert float(row["err_lambda"]) == report.err_lambda
            assert float(row["delta_h"]) == report.delta_h
        assert rows[0]["rate_l2"] == ""
        r0, r1 = small_ring_study.reports[0], small_ring_study.reports[1]
        expected = np.log(r0.err_l2 / r1.err_l2) / np.log(r0.h / r1.h)
        assert float(rows[1]["rate_l2"]) == pytest.approx(expected, rel=1e-15)

    def test_bit_identical_across_runs(self, small_ring_study, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_ring_study, p1)
        res2 = run_study(StudyConfig(domain="ring", element="p2", method="bvc", levels=3))
        emit_csv(res2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_result_rejected(self):
        from bvcfem.study import StudyResult

        with pytest.raises(IoError):
            emit_csv(StudyResult(config=StudyConfig()), "/tmp/never.csv")

    def test_line_count(self, small_ring_study, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_ring_study, path)
        assert len(path.read_text().splitlines()) == 1 + 3

    def test_single_level_gives_two_lines(self, tmp_path):
        res = run_study(StudyConfig(domain="ring", element="p1", method="bvc", levels=1))
        path = tmp_path / "one.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[8] == ""  # no rate on the first row


class TestPlots:
    def test_svg_files_written(self, small_ring_study, tmp_path):
        prefix = tmp_path / "plot"
        emit_plots(small_ring_study, prefix)
        for norm in ("l2", "h1", "lambda"):
            svg = tmp_path / f"plot-{norm}.svg"
            assert svg.exists()
            text = svg.read_text()
            assert text.startswith("<svg")
            assert "polyline" in text
            assert "polygon" in text  # reference triangle
        elev = (tmp_path / "plot-elevation.txt").read_text().splitlines()
        assert len(elev) == small_ring_study.reports[-1].nno
        assert len(elev[0].split()) == 3

    def test_svg_well_formed(self, small_ring_study, tmp_path):
        import xml.dom.minidom

        prefix = tmp_path / "plot"
        emit_plots(small_ring_study, prefix)
        xml.dom.minidom.parse(str(tmp_path / "plot-l2.svg"))

    def test_reference_slope_annotation(self, small_ring_study, tmp_path):
        prefix = tmp_path / "plot"
        emit_plots(small_ring_study, prefix)
        ref = expected_rates(small_ring_study.config)
        text = (tmp_path / "plot-l2.svg").read_text()
        assert f">{ref['l2']:g}</text>" in text

    def test_zero_reference_slope_draws_no_triangle(self, tmp_path):
        # unmodified on the staircase: lambda's reference slope is 0
        config = StudyConfig(domain="ellipse", element="q1", method="unmodified", levels=2)
        emit_plots(run_study(config), tmp_path / "plot")
        assert expected_rates(config)["lambda"] == 0.0
        assert "polygon" not in (tmp_path / "plot-lambda.svg").read_text()
        assert "polygon" in (tmp_path / "plot-h1.svg").read_text()

    def test_unwritable_elevation_names_its_path(self, small_ring_study, tmp_path):
        prefix = tmp_path / "plot"
        (tmp_path / "plot-elevation.txt").mkdir()
        with pytest.raises(IoError, match=f"^cannot write {prefix}-elevation.txt: "):
            emit_plots(small_ring_study, prefix)


class TestExpectedRates:
    def test_bvc_orders(self):
        r = expected_rates(StudyConfig(element="p3", method="bvc"))
        assert r == {"l2": 4.0, "h1": 3.0, "lambda": 3.0}

    def test_unmodified_capped(self):
        r = expected_rates(StudyConfig(element="p3", method="unmodified"))
        assert r["l2"] == 2.0

    @pytest.mark.parametrize(
        "domain, element, method, want",
        [
            # the ring's facets lie O(h^2) off it, the staircase's O(h)
            ("ring", "p3", "bvc", (4.0, 3.0, 3.0)),
            ("ring", "p3", "taylor", (4.0, 3.0, 3.0)),
            ("ring", "p3", "nitsche", (4.0, 3.0, 3.0)),
            ("ring", "p3", "unmodified", (2.0, 1.5, 1.0)),
            ("ellipse", "q1", "bvc", (2.0, 1.0, 1.0)),
            ("ellipse", "q1", "taylor", (2.0, 1.0, 1.0)),
            ("ellipse", "q1", "nitsche", (2.0, 1.0, 1.0)),
            ("ellipse", "q1", "unmodified", (1.0, 0.5, 0.0)),
        ],
    )
    def test_boundary_defect_caps_each_norm(self, domain, element, method, want):
        r = expected_rates(StudyConfig(domain=domain, element=element, method=method))
        assert r == dict(zip(("l2", "h1", "lambda"), want))


class TestPresetRegistry:
    def test_paper_experiments_registered(self):
        for name in ("p2-ring", "p3-ring", "unstable-pairing", "q1-ellipse"):
            assert name in PRESETS

    def test_unknown_preset(self):
        from bvcfem.study import run_preset

        with pytest.raises(ConfigError):
            run_preset("p9-hypercube")

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_preset_runs_two_levels(self, name):
        result, msgs = run_preset(name, levels=2)
        preset = PRESETS[name]
        assert [level for level, _ in result.records] == [0, 1]
        assert result.failures == []
        if preset.comparison is None:
            assert result.companion is None
        else:
            assert result.companion.config.method == preset.comparison
        # Two levels fit no rate; the only other check that needs three is
        # the multiplier's monotone decrease.
        assert msgs[0] == "no rates could be fitted"
        assert set(msgs[1:]) <= {"multiplier error not monotonically decreasing over last 3 levels"}

    def test_nitsche_preset_matches_a_hand_built_solve(self):
        # No multiplier, and the default penalty 10 k^2 = 40 for P2.
        result, _ = run_preset("nitsche-p2-ring", levels=2)
        config, ring = PRESETS["nitsche-p2-ring"].config, make_ring_domain()
        for level, report in result.records:
            assert report.dofs_lambda == 0 and report.err_lambda is None
            V, Lam = build_level(config, level, ring)
            assert Lam is None
            u, _ = solve(assemble_nitsche(V, ring, 40.0))
            assert report.err_l2 == error_report(u, None, ring).err_l2

    @pytest.mark.parametrize("name", ["unstable-pairing", "p2-ring"])
    def test_zero_levels_rejected(self, name):
        from bvcfem.study import run_preset

        with pytest.raises(ConfigError, match="levels must be positive"):
            run_preset(name, levels=0)


class TestChecks:
    def test_unstable_check_reports_failed_levels(self):
        # A corrected branch that lost level 2: its L2 rate is fitted across
        # a gap in h, so the check must fail the way check_rates does.
        config = PRESETS["unstable-pairing"].config
        reports = [
            ErrorReport(h, 0, 0, 0, h**3, h**2, h**2, None, 0.0, 0.0)
            for h in (1 / 16, 1 / 32, 1 / 128)
        ]
        result = StudyResult(
            config=config,
            records=list(zip((0, 1, 3), reports)),
            failures=[(2, "near-zero pivot")],
            rates={"l2": RateFit(last3=3.0)},
            companion=StudyResult(config=config, failures=[(0, "near-zero pivot")]),
        )
        failed = "levels failed: [(2, 'near-zero pivot')]"
        assert check_unstable(result) == [failed]
        assert check_rates(result, {"l2": (2.7, 3.3)}) == [failed]

    def test_unstable_check_needs_a_kernel(self):
        # The stable P2+bubbles / P1 pairing whose companion failed: every
        # other condition holds, so the empty inf-sup kernel alone fails.
        # A companion that solved every level at L2 rate 1 fails as well.
        config = StudyConfig(element="p2", method="bvc")
        records = [
            (level, ErrorReport(h, 0, 0, 0, h**3, h**2, h**2, None, 0.0, 0.0))
            for level, h in enumerate((1 / 16, 1 / 32, 1 / 64))
        ]
        result = StudyResult(
            config=config,
            records=records,
            rates={"l2": RateFit(last3=3.0)},
            companion=StudyResult(config=config, failures=[(0, "near-zero pivot")]),
        )
        no_kernel = "the pairing has no inf-sup kernel at level 0"
        assert check_unstable(result) == [no_kernel]
        result.companion = StudyResult(config=config, records=records, rates={"l2": RateFit(last3=1.0)})
        assert check_unstable(result) == [
            "unmodified branch did not exhibit the expected failure", no_kernel
        ]


class TestCli:
    def test_explicit_run_exit_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "--domain", "ring", "--element", "p2", "--method", "bvc",
                "--levels", "3", "--out", str(out), "--plots", str(tmp_path / "p"),
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "p-l2.svg").exists()

    def test_dump_matrices_writes_every_block(self, tmp_path):
        from bvcfem.assembly import assemble_saddle
        from bvcfem.geometry import make_ring_domain
        from bvcfem.mesh import build_annulus_mesh, precompute_boundary_geometry
        from bvcfem.spaces import build_multiplier_space, build_primal_space

        prefix = tmp_path / "dump"
        code = main(
            [
                "--domain", "ring", "--element", "p2", "--method", "taylor",
                "--levels", "1", "--dump-matrices", str(prefix),
            ]
        )
        assert code == 0
        lines = {
            block: (tmp_path / f"dump-L0-{block}.txt").read_text().splitlines()
            for block in ("K", "B", "D", "Bt", "full")
        }
        # the level-0 taylor system the CLI dumped, rebuilt directly
        ring = make_ring_domain()
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), ring, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        Lam = build_multiplier_space(mesh, 1)
        system = assemble_saddle(V, Lam, ring, "taylor")
        assert len(lines["full"]) == system.A.nnz
        assert len(lines["Bt"]) == system.Bt_corr.nnz
        assert lines["D"] == []

    def test_dump_matrices_writes_the_nitsche_matrix(self, tmp_path):
        prefix = tmp_path / "dump"
        argv = ["--element", "p2", "--method", "nitsche", "--levels", "1"]
        assert main([*argv, "--dump-matrices", str(prefix)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dump-L0-A.txt"]
        ring = make_ring_domain()
        V, _ = build_level(StudyConfig(element="p2", method="nitsche"), 0, ring)
        A = assemble_nitsche(V, ring, 40.0).A
        assert len((tmp_path / "dump-L0-A.txt").read_text().splitlines()) == A.nnz

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("domain = ring\nelement = p2\nmethod = bvc\nlevels = 4\n")
        code = main(["--config", str(cfg), "--levels", "3"])
        assert code == 0
        assert "level 3:" not in capsys.readouterr().out  # flag overrode levels=4

    @pytest.mark.parametrize("preset", ["unstable-pairing", "p2-ring"])
    def test_preset_zero_levels_exit_one(self, capsys, preset):
        assert main(["--preset", preset, "--levels", "0"]) == 1
        out, err = capsys.readouterr()
        assert "levels must be positive" in err
        assert "level 0" not in out

    def test_unstable_preset_passes_its_check(self, tmp_path, capsys):
        # Four levels: over levels 0-2 the corrected L2 rate reads 3.33, above
        # its window.  The unmodified companion solves no level, so it has no CSV.
        out = tmp_path / "x.csv"
        assert main(["--preset", "unstable-pairing", "--levels", "4", "--out", str(out)]) == 0
        assert "all rate checks passed" in capsys.readouterr().out
        assert out.exists()
        assert not (tmp_path / "x-unmodified.csv").exists()

    def test_short_preset_failure_names_the_level_count(self, capsys):
        # At 3 levels q1-ellipse reads L2 1.64 and H1 0.44, outside its
        # windows; the failure says from how many levels the checks hold.
        assert main(["--preset", "q1-ellipse", "--levels", "3"]) == 2
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("CHECK FAILED: ")]
        assert [line.split(":")[1] for line in failed] == [" l2", " h1"]
        assert lines[-1] == "note: the preset checks hold from 4 levels; this run had 3"

    def test_nan_gamma0_flag_exit_one(self, capsys):
        assert main(["--method", "nitsche", "--gamma0", "nan", "--levels", "1"]) == 1
        out, err = capsys.readouterr()
        assert "gamma0" in err
        assert "level 0" not in out

    @pytest.mark.parametrize(
        "argv, key",
        [(["--method", "bvc", "--gamma0", "5"], "gamma0"),
         (["--method", "nitsche", "--multiplier-degree", "7"], "multiplier_degree")],
        ids=["gamma0-with-bvc", "degree-with-nitsche"],
    )
    def test_setting_the_method_never_reads_exit_one(self, capsys, argv, key):
        assert main([*argv, "--levels", "1"]) == 1
        out, err = capsys.readouterr()
        assert key in err
        assert "level 0" not in out

    def test_invalid_combo_exit_one(self):
        assert main(["--domain", "ring", "--element", "q1", "--levels", "3"]) == 1

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert "pipeline error" not in err

    def test_repeated_config_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("levels = 2\ndomain = ring\nlevels = 3\n")
        assert main(["--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {cfg}:3: key 'levels' repeats line 1")
        assert "level 0" not in out

    def test_dump_into_missing_directory_exit_one(self, tmp_path, capsys):
        prefix = tmp_path / "absent" / "dump"
        argv = ["--element", "p1", "--levels", "1", "--dump-matrices", str(prefix)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {prefix}-L0-K.txt: ")
        assert "pipeline error" not in err

    def test_unknown_config_key_exit_one(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("warp = 9\n")
        assert main(["--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "line, key", [("enrich = flase", "enrich"), ("levels = three", "levels"),
                      ("gamma0 = 1e", "gamma0"), ("multiplier_degree = x", "multiplier_degree")]
    )
    def test_bad_config_value_exit_one(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"domain = ring\n{line}\n")
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "pipeline error" not in err

    @pytest.mark.parametrize(
        "flag, key", [("--levels", "levels"), ("--gamma0", "gamma0"),
                      ("--multiplier-degree", "multiplier_degree")]
    )
    def test_non_numeric_flag_exit_one(self, capsys, flag, key):
        assert main([flag, "x"]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "pipeline error" not in err

    @pytest.mark.parametrize(
        "argv", [["--bogus"], ["--levels"], ["--domain", "square"]],
        ids=["unknown-flag", "missing-value", "bad-domain"],
    )
    def test_parser_error_exit_one(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, cfg, keys",
        [
            (["--preset", "p2-ring", "--element", "p3", "--method", "taylor"], "",
             ["element", "method"]),
            (["--preset", "p2-ring", "--no-enrich", "--dump-matrices", "d"], "",
             ["--dump-matrices", "enrich"]),
            ([], "preset = p2-ring\ngamma0 = 3\nmultiplier_degree = 1\n",
             ["gamma0", "multiplier_degree"]),
            # --dump-matrices has no config key, so the error names the flag.
            (["--preset", "p2-ring", "--dump-matrices", "x"], "", ["drop --dump-matrices"]),
        ],
        ids=["flags", "switches", "config-file", "flag-only"],
    )
    def test_preset_rejects_study_settings(self, tmp_path, capsys, argv, cfg, keys):
        path = tmp_path / "study.cfg"
        path.write_text(cfg)
        assert main(["--config", str(path), "--levels", "1", *argv]) == 1
        out, err = capsys.readouterr()
        assert ", ".join(keys) in err
        assert "level 0" not in out  # rejected before any level ran

    @pytest.mark.parametrize(
        "out, companion",
        [("run.d/table", "run.d/table-unmodified"), ("r.csv", "r-unmodified.csv")],
    )
    def test_companion_csv_path(self, tmp_path, out, companion):
        (tmp_path / "run.d").mkdir()
        # One level fits no rate, so the check fails after both tables are written.
        assert main(["--preset", "q1-ellipse", "--levels", "1", "--out", str(tmp_path / out)]) == 2
        assert read_rows(tmp_path / companion)[0]["level"] == "0"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bvcfem.study", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--preset" in proc.stdout

    def test_module_run_imports_the_study_once(self):
        # The package must not import bvcfem.study, or `-m` runs it twice
        # and Python warns that it was already in sys.modules.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bvcfem.study", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

"""Front-end tests: config parsing with defaults, sweep execution,
CSV format guarantees, determinism and exit codes."""

import csv
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import ehrelay as er
from ehrelay import cli

GOLDEN_FIG1_CFG = """\
# source-power sweep, analytic curves only
p_s_dbm_grid = 15,17.5,20,22.5,25,27.5,30
n_antennas = 1
include_mc = false
include_baseline = true
"""

GOLDEN_FIG1_CSV = os.path.join(os.path.dirname(__file__), "data", "fig1_analytic.csv")


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, ""))
        assert spec.params.p_s == pytest.approx(0.1, rel=1e-12)          # 20 dBm
        assert spec.params.n0 == pytest.approx(1e-9, rel=1e-12)          # -60 dBm
        assert spec.params.eta == 0.5
        assert spec.params.rate == 1.0
        assert spec.params.n_antennas == 1
        assert spec.params.rician_k == 10.0
        assert (spec.params.d_sd, spec.params.d_sr, spec.params.d_rd) == (80.0, 10.0, 70.0)
        assert spec.params.alpha == 3.0
        assert spec.battery.capacity == 5e-3
        assert spec.battery.levels == 20
        assert spec.battery.e_t == 1e-3
        assert spec.sweep_kind == "source_power"
        assert spec.grid == (20.0,)
        assert spec.include_baseline and not spec.include_mc
        assert spec.warmup_blocks == 10_000

    def test_power_grid(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 15,20,25,30\n"))
        assert spec.sweep_kind == "source_power"
        assert spec.grid == (15.0, 20.0, 25.0, 30.0)

    def test_threshold_grid(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, "e_t_grid = 2.5e-4, 5e-4\np_s_dbm = 25\n"))
        assert spec.sweep_kind == "energy_threshold"
        assert spec.grid == (2.5e-4, 5e-4)

    def test_comments_and_colon_separator(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, "# comment\nlevels: 40\n\nseed = 3\n"))
        assert spec.battery.levels == 40
        assert spec.seed == 3

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(er.ValidationError, match="bogus"):
            cli.load_config(write_cfg(tmp_path, "bogus = 1\n"))

    def test_rejects_negative_eta_by_name(self, tmp_path):
        with pytest.raises(er.ValidationError, match="eta"):
            cli.load_config(write_cfg(tmp_path, "eta = -0.2\n"))

    def test_rejects_both_grids(self, tmp_path):
        with pytest.raises(er.ValidationError, match="not both"):
            cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 1,2\ne_t_grid = 1e-4,2e-4\n"))

    def test_rejects_unparseable_value(self, tmp_path):
        with pytest.raises(er.ValidationError, match="levels"):
            cli.load_config(write_cfg(tmp_path, "levels = twenty\n"))

    def test_rejects_nonincreasing_grid(self, tmp_path):
        with pytest.raises(er.ValidationError, match="increasing"):
            cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 20,15\n"))

    def test_rejects_small_mc_budget(self, tmp_path):
        with pytest.raises(er.ValidationError, match="mc_blocks"):
            cli.load_config(write_cfg(tmp_path, "include_mc = true\nmc_blocks = 100\n"))

    @pytest.mark.parametrize("line", ["p_s_dbm = inf", "p_s_dbm = 4000", "capacity = inf",
                                      "e_t = nan", "n0_dbm = -inf", "d_sd = inf",
                                      "n0_dbm = -4000", "p_s_dbm_grid = 20,4000"])
    def test_nonfinite_or_overflowing_value_exits_1_naming_key(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, line + "\n")
        assert cli.main(["analyze", "--config", cfg]) == 1
        assert line.split()[0] in capsys.readouterr().err

    def test_rejects_non_utf8_file_naming_file_and_byte(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes("seed = 1\n".encode("utf-16"))     # leading \xff\xfe
        with pytest.raises(er.ValidationError, match=r"utf16\.cfg: not UTF-8 at byte 0"):
            cli.load_config(str(path))
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert "utf16.cfg: not UTF-8 at byte 14" in capsys.readouterr().err

    def test_huge_integer_seed_parses(self, tmp_path):
        seed = int("9" * 400)
        assert cli.load_config(write_cfg(tmp_path, f"seed = {seed}\n")).seed == seed


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPACE = st.sampled_from(["", " ", "  ", "\t"])


def grid_text(draw, grid):
    return ",".join(draw(SPACE) + repr(v) + draw(SPACE) for v in grid)


@st.composite
def config_text(draw, values):
    """(text, values): a flat config file holding `values`, in any of the
    accepted spellings: either separator, padding, blank lines and
    comments of their own or after a value."""
    lines = []
    for key, value in values.items():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment = 1", "  #key: value"])))
        if isinstance(value, bool):
            text = draw(st.sampled_from(["true", "yes", "1"] if value else ["false", "no", "0"]))
            text = "".join(draw(st.sampled_from([c, c.upper()])) for c in text)
        elif isinstance(value, tuple):
            text = grid_text(draw, value)
        else:
            text = repr(value)
        sep = draw(st.sampled_from(["=", ":"]))
        comment = draw(st.sampled_from(["", " # trailing", "# x=1"]))
        lines.append(f"{draw(SPACE)}{key}{draw(SPACE)}{sep}{draw(SPACE)}{text}{comment}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), values


class TestConfigRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), values=st.fixed_dictionaries({}, optional={
        **{key: st.integers() for key in sorted(cli._INT_KEYS)},
        **{key: st.booleans() for key in sorted(cli._BOOL_KEYS)},
        **{key: st.lists(FINITE, min_size=1, max_size=5).map(tuple)
           for key in sorted(cli._GRID_KEYS)},
        **{key: FINITE for key in sorted(cli._FLOAT_KEYS)},
    }))
    def test_flat_file_parses_back_to_its_values(self, data, values):
        text, values = data.draw(config_text(values))
        assert cli._parse_flat_file(text) == values

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), values=st.fixed_dictionaries({}, optional={
        "n_antennas": st.integers(1, 3), "levels": st.integers(1, 4096),
        "seed": st.integers(0, 2**70), "warmup_blocks": st.integers(0, 10**7),
        "include_baseline": st.booleans(), "include_mc": st.booleans(),
        "p_s_dbm_grid": st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5,
                                 unique=True).map(lambda g: tuple(sorted(g))),
        "eta": st.floats(0.01, 1.0), "alpha": st.floats(2.0, 5.0),
        "d_sd": st.floats(1.0, 1e3), "d_rd": st.floats(1.0, 1e3),
    }))
    def test_load_config_takes_every_key(self, tmp_path_factory, data, values):
        text, values = data.draw(config_text(values))
        path = tmp_path_factory.mktemp("cfg") / "round.cfg"
        path.write_text(text, encoding="utf-8")
        spec = cli.load_config(str(path))
        merged = {**cli.DEFAULTS, **values}
        assert spec.grid == values.get("p_s_dbm_grid", (merged["p_s_dbm"],))
        assert (spec.params.n_antennas, spec.params.eta, spec.params.alpha,
                spec.params.d_sd, spec.params.d_rd) == tuple(
            merged[key] for key in ("n_antennas", "eta", "alpha", "d_sd", "d_rd"))
        assert spec.battery.levels == merged["levels"]
        assert (spec.seed, spec.warmup_blocks, spec.include_baseline, spec.include_mc) == tuple(
            merged[key] for key in ("seed", "warmup_blocks", "include_baseline", "include_mc"))


class TestRunSweep:
    def test_single_point_cross_validates(self, tmp_path):
        spec = cli.load_config(write_cfg(
            tmp_path, "p_s_dbm = 25\ninclude_mc = true\nmc_blocks = 20000\nseed = 11\n"))
        rows = cli.run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        assert row.mc_stderr > 0.0
        assert abs(row.mc_outage - row.analytic_outage) < 3.0 * row.mc_stderr
        assert 0.0 <= row.analytic_outage <= 1.0
        assert row.analytic_outage <= row.baseline_outage

    def test_power_sweep_is_nonincreasing(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 16,20,24,28\n"))
        rows = cli.run_sweep(spec)
        outages = [r.analytic_outage for r in rows]
        assert all(b <= a for a, b in zip(outages, outages[1:]))

    def test_threshold_sweep_stair_profile(self, tmp_path):
        # sweeping e_t over all 20 levels gives the stair profile with an
        # interior minimum (too little reserved energy starves the forward
        # link, too much starves the battery)
        grid = ",".join(str(k * 2.5e-4) for k in range(1, 21))
        spec = cli.load_config(write_cfg(tmp_path, f"e_t_grid = {grid}\np_s_dbm = 25\n"))
        rows = cli.run_sweep(spec)
        assert [r.sweep_value for r in rows] == [k * 2.5e-4 for k in range(1, 21)]
        assert all(0.0 <= r.analytic_outage <= 1.0 for r in rows)
        outages = [r.analytic_outage for r in rows]
        best = outages.index(min(outages))
        assert 0 < best < len(outages) - 1

    def test_optimal_threshold_sweep(self, tmp_path):
        spec = cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 24,27\n"))
        from dataclasses import replace
        rows = cli.run_sweep(replace(spec, sweep_kind="optimal_threshold"))
        for row in rows:
            assert 1 <= row.optimal_level <= 20
            assert row.analytic_outage <= row.baseline_outage

    def test_deterministic(self, tmp_path):
        spec = cli.load_config(write_cfg(
            tmp_path, "p_s_dbm_grid = 20,25\ninclude_mc = true\nmc_blocks = 10000\nseed = 5\n"))
        assert cli.run_sweep(spec) == cli.run_sweep(spec)


class TestWriteCsv:
    def test_header_plus_rows_roundtrip(self, tmp_path):
        rows = [cli.SweepRow(sweep_value=15.0, analytic_outage=1.2345678949e-2,
                             mc_outage=None, mc_stderr=None,
                             baseline_outage=2e-2, p_e=0.25, optimal_level=None),
                cli.SweepRow(sweep_value=20.0, analytic_outage=3e-3,
                             mc_outage=2.9e-3, mc_stderr=1e-4,
                             baseline_outage=None, p_e=0.5, optimal_level=7)]
        path = tmp_path / "out.csv"
        cli.write_csv(rows, str(path))
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == ("sweep_value,analytic_outage,mc_outage,mc_stderr,"
                            "baseline_outage,p_e,optimal_level")
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["mc_outage"] == ""
        assert parsed[1]["optimal_level"] == "7"
        # 10 significant digits survive the roundtrip
        for row, rec in zip(rows, parsed):
            value = float(rec["analytic_outage"])
            assert value == pytest.approx(row.analytic_outage, rel=1e-9)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(er.ValidationError):
            cli.write_csv([], str(tmp_path / "no.csv"))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_s_dbm_grid = 18,22\ninclude_mc = true\n"
                                  "mc_blocks = 10000\nseed = 2\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.write_csv(cli.run_sweep(cli.load_config(cfg)), str(a))
        cli.write_csv(cli.run_sweep(cli.load_config(cfg)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_golden_analytic_sweep(self, tmp_path):
        # frozen on the first verified run; analytic-only so the bytes do not
        # depend on any random stream
        cfg = write_cfg(tmp_path, GOLDEN_FIG1_CFG)
        out = tmp_path / "fig1.csv"
        cli.write_csv(cli.run_sweep(cli.load_config(cfg)), str(out))
        with open(GOLDEN_FIG1_CSV, "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        assert cli.main(["analyze"]) == 0
        printed = capsys.readouterr().out
        assert "p_out" in printed and "direct_baseline" in printed

    def test_validation_error(self, tmp_path):
        bad = write_cfg(tmp_path, "eta = 2.0\n")
        assert cli.main(["analyze", "--config", bad]) == 1

    def test_oversized_chain_exits_1_naming_levels(self, tmp_path, capsys):
        # the analytic chain would need a 74.5 GiB matrix; the simulator needs none
        cfg = write_cfg(tmp_path, "levels = 100000\n")
        assert cli.main(["analyze", "--config", cfg]) == 1
        assert "levels" in capsys.readouterr().err
        assert cli.main(["simulate", "--config", cfg, "--blocks", "2000"]) == 0

    def test_oversized_battery_simulate_exits_1_naming_levels(self, tmp_path, capsys):
        # a simulation keeps one occupancy count per level, so even the
        # simulator refuses a battery this fine
        cfg = write_cfg(tmp_path, "levels = 10000000\n")
        assert cli.main(["simulate", "--config", cfg, "--blocks", "1000"]) == 1
        assert "levels" in capsys.readouterr().err

    def test_oversized_simulation_exits_1_naming_blocks(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fades sampled for a refused run")
        monkeypatch.setattr(er.simulator, "sample_fade_blocks", never)
        cfg = write_cfg(tmp_path, "")
        assert cli.main(["simulate", "--config", cfg, "--blocks", "1000000000"]) == 1
        assert "blocks + warmup_blocks = 1000010000 exceeds" in capsys.readouterr().err

    def test_near_line_of_sight_link_is_evaluated(self, tmp_path, capsys):
        # at N*K = 1425 the rounded weights of the source-relay CDF series
        # can settle an ulp short of the series' tail bound
        cfg = write_cfg(tmp_path, "rician_k = 1425.0\n")
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert "p_out" in capsys.readouterr().out

    def test_out_of_range_rician_k_exits_1_naming_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "rician_k = 1e9\n")
        assert cli.main(["analyze", "--config", cfg]) == 1
        assert "rician_k" in capsys.readouterr().err

    def test_negative_seed_exits_1_naming_it(self, capsys):
        assert cli.main(["simulate", "--blocks", "15000", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, code, named", [
        ("rate = 1000", 1, "rate"),                               # gamma2 = 2^2000 - 1
        ("rate = 1e-300", 1, "rate = 1e-300 is too small"),       # gamma1 = 2^rate - 1 = 0
        ("d_sd = 1e300", 1, "d_sd"),                              # d_sd^3 overflows
        ("alpha = 5\nd_sr = 1e70", 1, "d_sr"),                    # d_sr^5 overflows
        ("rate = 300", 2, "mode-4 closed form"),                  # Poisson average m**5
        ("rate = 300\nn_antennas = 3", 2, "mode-4 closed form"),
        ("capacity = 1e-300\ne_t = 1e-301", 2, "mode-4 closed form"),
        ("capacity = 1e-300\ne_t = 1e-301\nn_antennas = 3", 2, "mode-4 closed form"),
    ])
    def test_float_range_overflow_exits_without_traceback(self, tmp_path, capsys, text,
                                                          code, named):
        cfg = write_cfg(tmp_path, text + "\n")
        assert cli.main(["analyze", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_search_with_every_level_failing_exits_2_on_one_line(self, tmp_path, capsys):
        # at rate = 300 the mode-4 closed form fails at every threshold
        # level: one error naming the first level, not a warning per level
        cfg = write_cfg(tmp_path, "rate = 300\n")
        assert cli.main(["optimize", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical error: every threshold candidate failed "
                              "numerically, the first at threshold level 1: mode-4 closed form")

    def test_usage_error_is_validation(self):
        assert cli.main(["no-such-verb"]) == 1

    def test_numerical_error(self, tmp_path, monkeypatch):
        def boom(spec):
            raise er.NumericalError("synthetic failure")
        monkeypatch.setattr(cli, "run_sweep", boom)
        cfg = write_cfg(tmp_path, "")
        assert cli.main(["sweep", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_io_error(self):
        assert cli.main(["sweep", "/nonexistent/path.cfg"]) == 3

    def test_sweep_and_dump_chain(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p_s_dbm_grid = 24,26\n")
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", cfg, "--out", str(out)]) == 0
        assert out.exists()
        z_path, pi_path = tmp_path / "z.csv", tmp_path / "pi.csv"
        assert cli.main(["dump-chain", "--config", cfg,
                         "--out-z", str(z_path), "--out-pi", str(pi_path)]) == 0
        import numpy as np
        z = np.loadtxt(z_path, delimiter=",")
        pi = np.loadtxt(pi_path, delimiter=",")
        assert z.shape == (21, 21)
        assert pi.shape == (21,)
        assert abs(pi.sum() - 1.0) < 1e-10
        assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-9

    def test_simulate_verb(self, capsys):
        assert cli.main(["simulate", "--blocks", "15000", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert "outage_estimate" in printed

    def test_optimize_verb(self, capsys):
        assert cli.main(["optimize"]) == 0
        printed = capsys.readouterr().out
        assert "best_level" in printed

    def test_optimize_top_candidate_at_capacity(self, tmp_path, capsys):
        # candidate 57 of 57 computes e_t a hair above the 5 mJ capacity
        cfg = write_cfg(tmp_path, "levels = 57\np_s_dbm_grid = 20,21\n")
        assert cli.main(["optimize", "--config", cfg]) == 0
        assert "best_level" in capsys.readouterr().out
        assert cli.main(["sweep", cfg, "--optimize-threshold",
                         "--out", str(tmp_path / "opt.csv")]) == 0

    def test_optimize_threshold_flag_requires_power_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "e_t_grid = 2.5e-4,5e-4\n")
        assert cli.main(["sweep", cfg, "--optimize-threshold",
                         "--out", str(tmp_path / "y.csv")]) == 1


class TestPointPipeline:
    @pytest.mark.parametrize("kind", ["source_power", "optimal_threshold"])
    def test_one_family_and_one_cdf_h_sr_call_a_point(self, tmp_path, monkeypatch, kind):
        calls = {"cdf_h_sr": 0, "family": 0}
        cdf_h_sr, family_init = er.channel.cdf_h_sr, er.ChainFamily.__init__

        def counted_cdf(*args, **kwargs):
            calls["cdf_h_sr"] += 1
            return cdf_h_sr(*args, **kwargs)

        def counted_init(*args, **kwargs):
            calls["family"] += 1
            family_init(*args, **kwargs)
        for module in (er.channel, er.battery, er.outage):
            monkeypatch.setattr(module, "cdf_h_sr", counted_cdf)
        monkeypatch.setattr(er.ChainFamily, "__init__", counted_init)
        spec = cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 20,24,28\n"))
        rows = cli.run_sweep(replace(spec, sweep_kind=kind))
        assert len(rows) == 3
        assert calls == {"cdf_h_sr": 3, "family": 3}

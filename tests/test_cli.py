"""Front-end tests: config parsing with defaults, sweep execution,
CSV format guarantees, determinism and exit codes."""

import csv
import os
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ehrelay as er
from ehrelay import cli
from helpers import zero_pivot_chain

GOLDEN_FIG1_CFG = """\
# source-power sweep, analytic curves only
p_s_dbm_grid = 15,17.5,20,22.5,25,27.5,30
n_antennas = 1
include_mc = false
include_baseline = true
"""

GOLDEN_FIG1_CSV = os.path.join(os.path.dirname(__file__), "data", "fig1_analytic.csv")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_text(tmp_path, text):
    return cli.load_config(write_cfg(tmp_path, text))


def verb_argv(verb, cfg, tmp):
    """cli.main arguments running `verb` on config file `cfg`, with its
    outputs in directory `tmp`; "sweep-optimized" is sweep --optimize-threshold."""
    return {
        "sweep": ["sweep", cfg, "--out", str(tmp / "rows.csv")],
        "sweep-optimized": ["sweep", cfg, "--optimize-threshold",
                            "--out", str(tmp / "rows.csv")],
        "simulate": ["simulate", "--config", cfg, "--blocks", "10000"],
        "dump-chain": ["dump-chain", "--config", cfg, "--out-z", str(tmp / "z.csv"),
                       "--out-pi", str(tmp / "pi.csv")],
    }.get(verb, [verb, "--config", cfg])


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda tmp: replace(load_text(tmp, ""), sweep_kind="power"),
                 "sweep_kind must be one of", id="SweepSpec-kind"),
    pytest.param(lambda tmp: replace(load_text(tmp, ""), grid=()),
                 "sweep grid must be nonempty", id="SweepSpec-grid"),
    pytest.param(lambda tmp: replace(load_text(tmp, ""), seed=-1),
                 "seed must be >= 0, got -1", id="SweepSpec-seed"),
    pytest.param(lambda tmp: replace(load_text(tmp, ""), warmup_blocks=-1),
                 "warmup_blocks must be >= 0, got -1", id="SweepSpec-warmup"),
    pytest.param(lambda tmp: load_text(tmp, "# levels\nlevels 20\n"),
                 "line 2: expected 'key = value', got 'levels 20'", id="config-separator"),
    pytest.param(lambda tmp: load_text(tmp, "levels = 20\nlevels: 30\n"),
                 r"duplicate config key 'levels' \(line 2\)", id="config-duplicate"),
    pytest.param(lambda tmp: load_text(tmp, "include_mc = maybe\n"),
                 r"could not parse value for 'include_mc': 'maybe' \(line 1\)",
                 id="config-bool"),
    pytest.param(lambda tmp: cli.run_sweep(load_text(tmp, "e_t_grid = 1e-3, 6e-3\n")),
                 r"^sweep point 0\.006: e_t=0\.006 exceeds capacity=0\.005",
                 id="run_sweep-point"),
])
def test_refusal_names_the_key(tmp_path, build, match):
    with pytest.raises(er.ValidationError, match=match):
        build(tmp_path)


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

    def test_readme_table_states_the_defaults(self):
        # rows like "| `d_sd`, `d_sr`, `d_rd` | `80`, `10`, `70` | ..." or
        # "| `e_t` / `e_t_grid` | `1e-3` | ...": grid keys take no default cell
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("### Config files", 1)[1]
        table = re.search(r"^\|.*?(?=\n\n)", section, flags=re.M | re.S).group()
        listed, cells = [], {}
        for row in table.splitlines()[2:]:
            keys_cell, default_cell = row.split(" | ")[:2]
            keys = re.findall(r"`(\w+)`", keys_cell)
            plain = [key for key in keys if key not in cli._GRID_KEYS]
            defaults = re.findall(r"`([^`]+)`", default_cell)
            assert len(plain) == len(defaults), row
            listed += keys
            cells.update(zip(plain, defaults))
        assert sorted(listed) == sorted([*cli.DEFAULTS, *cli._GRID_KEYS])
        for key, cell in cells.items():
            assert cli._parse_flat_file(f"{key} = {cell}") == {key: cli.DEFAULTS[key]}, key

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
        **{key: {int: st.integers(), bool: st.booleans(), float: FINITE}[type(default)]
           for key, default in cli.DEFAULTS.items()},
        **{key: st.lists(FINITE, min_size=1, max_size=5).map(tuple)
           for key in sorted(cli._GRID_KEYS)},
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
        # gbar_rd = 2 e_t omega_rd / n0 overflows to inf
        ("capacity = 1e300\ne_t = 1e300\nd_rd = 1", 2, "gbar_rd=inf"),
    ])
    def test_float_range_overflow_exits_without_traceback(self, tmp_path, capsys, text,
                                                          code, named):
        cfg = write_cfg(tmp_path, text + "\n")
        assert cli.main(["analyze", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["analyze", "optimize", "sweep"])
    @pytest.mark.parametrize("text, named", [
        # eta * p_s = 1e-300 * 1e-33 W underflows to 0
        ("eta = 1e-300\np_s_dbm = -300", "capacity=0.005, eta=1e-300, p_s=1e-33 W"),
        # 1e300 J / (1e-15 * 1e-9 W * 20) overflows
        ("capacity = 1e300\neta = 1e-15\np_s_dbm = -60",
         "capacity=1e+300, eta=1e-15, p_s=1e-09 W"),
    ], ids=["underflow", "overflow"])
    def test_harvest_step_out_of_float_range_exits_1_naming_eta_and_p_s(
            self, tmp_path, capsys, verb, text, named):
        # the simulator divides by no such step and still runs
        cfg = write_cfg(tmp_path, text + "\n")
        out = str(tmp_path / "rows.csv")
        assert cli.main([verb, cfg, "--out", out] if verb == "sweep" else
                        [verb, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"capacity / (eta * p_s * levels) leaves the float range at {named}" in err
        assert "Traceback" not in err
        assert cli.main(["simulate", "--config", cfg, "--blocks", "10000"]) == 0

    @pytest.mark.parametrize("verb, text, code", [
        # e_h / step in discretize_harvest overflows: the harvest is the top level
        ("simulate", "p_s_dbm = 3000\ncapacity = 1e-300\ne_t = 1e-300", 0),
        # j * unit in harvest_grid overflows, and 2 (K+1) x in cdf_h_sr with it:
        # the CDF is 1 there
        ("analyze", "n0_dbm = 300\ncapacity = 1e300\ne_t = 1.0\np_s_dbm = -60", 0),
        ("dump-chain", "n0_dbm = 300\ncapacity = 1e300\ne_t = 1.0\np_s_dbm = -60", 0),
        ("optimize", "n0_dbm = 300\ncapacity = 1e300\np_s_dbm = -60", 0),
        # 2 (K+1) x / omega_sr in cdf_h_sr overflows at omega_sr = 1 / (1 + 10^5)
        ("sweep", "eta = 1e-15\nrate = 511\nrician_k = 5000\nd_sd = 1\nalpha = 5\n"
                  "p_s_dbm_grid = 20.0,3000.0", 2),
    ], ids=["discretize_harvest", "harvest_grid-analyze", "harvest_grid-dump-chain",
            "harvest_grid-optimize", "cdf_h_sr-divide"])
    def test_gain_past_the_float_range_warns_nothing(self, tmp_path, capsys, verb, text,
                                                     code):
        # an infinite gain or harvest is the intended value, and numpy's
        # overflow warning about it an error under the suite's filter
        cfg = write_cfg(tmp_path, text + "\n")
        assert cli.main(verb_argv(verb, cfg, tmp_path)) == code
        assert "Warning" not in capsys.readouterr().err

    def test_infinite_mean_snr_fails_a_sweep_point_and_skips_search_levels(self, tmp_path,
                                                                            capsys):
        cfg = write_cfg(tmp_path, "capacity = 1e300\ne_t = 1e300\nd_rd = 1\n"
                                  "p_s_dbm_grid = 20,21\n")
        assert cli.main(["sweep", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical error: sweep point 20.0: mode-4 closed form leaves the float range")
        # from level 18 up, gbar_rd = 2 (k 5e297 J) omega_rd / 1e-9 W overflows
        # to inf, and those 183 levels are skipped
        cfg = write_cfg(tmp_path, "levels = 200\nd_rd = 1e-300\ncapacity = 1e300\n"
                                  "d_sd = 1e5\n")
        with pytest.warns(UserWarning, match="gbar_rd=inf") as skipped:
            assert cli.main(["optimize", "--config", cfg]) == 0
        assert "best_level  1\n" in capsys.readouterr().out
        assert len(skipped) == 183
        assert str(skipped[0].message).startswith("threshold level 18 skipped: mode-4")

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


DISTANCES = [1e-300, 1e-5, 1.0, 80.0, 1e5, 1e300]
DBM = [-300.0, -60.0, 0.0, 20.0, 300.0, 3000.0]
THRESHOLDS = [1e-301, 1e-300, 1e-3, 1.0, 1e300]
# edge values of every numeric config key: the ends of the float range and
# of the ranges the program accepts (N K <= 1e6, rate < 512)
EDGE_VALUES = {
    "p_s_dbm": DBM, "n0_dbm": DBM, "eta": [1e-300, 1e-15, 0.5, 1.0],
    "rate": [1e-15, 1e-3, 1.0, 300.0, 511.0], "n_antennas": [1, 2, 3, 200],
    "rician_k": [0.0, 10.0, 1425.0, 5000.0], "d_sd": DISTANCES, "d_sr": DISTANCES,
    "d_rd": DISTANCES, "alpha": [2.0, 3.0, 5.0], "capacity": [1e-300, 1e-9, 5e-3, 1.0, 1e300],
    "levels": [1, 2, 20, 57], "e_t": THRESHOLDS, "mc_blocks": [0, 10_000],
    "seed": [0, 2**70], "warmup_blocks": [0, 10_000], "include_baseline": [False, True],
    "include_mc": [False, True],
}
EDGE_CONFIG = st.fixed_dictionaries({}, optional={
    **{key: st.sampled_from(edges) for key, edges in EDGE_VALUES.items()},
    **{key: st.lists(st.sampled_from(edges), min_size=1, max_size=2, unique=True)
       .map(lambda grid: tuple(sorted(grid)))
       for key, edges in (("p_s_dbm_grid", DBM), ("e_t_grid", THRESHOLDS))},
})
VERBS = ["analyze", "optimize", "dump-chain", "simulate", "sweep", "sweep-optimized"]


def edge_example(verb, **values):
    return example(verb=verb, values=values)


class TestExitCodes:
    """Every failure maps to a documented exit code: over edge values of
    every config key, every verb returns 0-3 and raises nothing."""

    @settings(max_examples=800, deadline=None)
    @given(verb=st.sampled_from(VERBS), values=EDGE_CONFIG)
    @edge_example("analyze", eta=1e-300, p_s_dbm=-300.0)
    @edge_example("optimize", eta=1e-300, p_s_dbm=-300.0)
    @edge_example("sweep", eta=1e-300, p_s_dbm=-300.0)
    @edge_example("simulate", eta=1e-300, p_s_dbm=-300.0)
    @edge_example("analyze", capacity=1e300, e_t=1e300, d_rd=1.0)
    @edge_example("sweep", capacity=1e300, e_t=1e300, d_rd=1.0, p_s_dbm_grid=(20.0, 21.0))
    @edge_example("optimize", levels=200, d_rd=1e-300, capacity=1e300, d_sd=1e5)
    # gains and harvests past the float range, which numpy warns about
    @edge_example("simulate", p_s_dbm=3000.0, capacity=1e-300, e_t=1e-300)
    @edge_example("analyze", n0_dbm=300.0, capacity=1e300, e_t=1.0, p_s_dbm=-60.0)
    @edge_example("dump-chain", n0_dbm=300.0, capacity=1e300, e_t=1.0, p_s_dbm=-60.0)
    @edge_example("optimize", n0_dbm=300.0, capacity=1e300, p_s_dbm=-60.0)
    @edge_example("sweep", eta=1e-15, rate=511.0, rician_k=5000.0, d_sd=1.0, alpha=5.0,
                  p_s_dbm_grid=(20.0, 3000.0))
    def test_main_returns_a_documented_code(self, tmp_path_factory, verb, values):
        tmp = tmp_path_factory.mktemp("exit")
        cfg = tmp / "edge.cfg"
        cfg.write_text("".join(
            f"{key} = {','.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}\n"
            for key, v in values.items()), encoding="utf-8")
        argv = verb_argv(verb, str(cfg), tmp)
        with warnings.catch_warnings():
            # skipped threshold levels warn, and that warning is no exit code;
            # any other warning stays an error
            warnings.filterwarnings("ignore", r"threshold level \d+ skipped", UserWarning)
            assert cli.main(argv) in (0, 1, 2, 3)


class TestPointPipeline:
    @pytest.mark.parametrize("kind, families", [("source_power", 3), ("optimal_threshold", 3),
                                                ("energy_threshold", 1)],
                             ids=["source_power", "optimal_threshold", "energy_threshold"])
    def test_one_cdf_h_sr_call_a_grid_and_one_family_a_setup(self, tmp_path, monkeypatch,
                                                             kind, families):
        # one Marcum-Q pass serves the whole grid; a power grid builds one
        # family a point, a threshold grid one family for every point
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
        grid = "e_t_grid = 5e-4,1e-3,2e-3" if kind == "energy_threshold" else \
            "p_s_dbm_grid = 20,24,28"
        spec = cli.load_config(write_cfg(tmp_path, grid + "\n"))
        rows = cli.run_sweep(replace(spec, sweep_kind=kind))
        assert len(rows) == 3
        assert calls == {"cdf_h_sr": 1, "family": families}


def point_inputs(spec, value):
    """(params, battery) of a sweep's grid point, written out from the spec."""
    if spec.sweep_kind == "energy_threshold":
        return spec.params, replace(spec.battery, e_t=value)
    return replace(spec.params, p_s=cli.dbm_to_watts(value)), spec.battery


def rows_one_point_at_a_time(spec):
    """The rows of an analytic sweep (baseline, no Monte Carlo) from one
    evaluate_point call per grid value."""
    rows = []
    for value in spec.grid:
        params, battery = point_inputs(spec, value)
        point = er.evaluate_point(params, battery,
                                  optimize=spec.sweep_kind == "optimal_threshold")
        rows.append(cli.SweepRow(
            sweep_value=value, analytic_outage=point.breakdown.p_out, mc_outage=None,
            mc_stderr=None, baseline_outage=er.direct_baseline(params, point.links, point.thr),
            p_e=point.breakdown.p_e, optimal_level=point.optimal_level))
    return rows


def assert_same_point(got, expected):
    assert ((got.params, got.links, got.thr, got.battery)
            == (expected.params, expected.links, expected.thr, expected.battery))
    assert np.array_equal(got.tm.z, expected.tm.z)
    assert np.array_equal(got.pi.pi, expected.pi.pi)
    assert got.breakdown == expected.breakdown
    assert got.optimal_level == expected.optimal_level


POWER_GRID = ",".join(str(15.0 + k) for k in range(16))
SPARSE_POWER_GRID = "15.3,18,21.7,24,27.5,30"


class TestBatchedSweep:
    """run_sweep sends the whole grid through evaluate_points: one Marcum-Q
    pass and stacked chain solves, each point bit for bit what it is
    alone, fail-fast in grid order."""

    @pytest.mark.parametrize("levels", [20, 200])
    @pytest.mark.parametrize("n_antennas", [1, 2, 3])
    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
    def test_power_grid_equals_one_point_at_a_time(self, tmp_path, levels, n_antennas,
                                                   optimize):
        # 16 points fill three stacks of six at L=200 and one of 16 at L=20
        grid = SPARSE_POWER_GRID if optimize else POWER_GRID
        self.check(tmp_path, f"levels = {levels}\nn_antennas = {n_antennas}\n"
                             f"p_s_dbm_grid = {grid}\n", optimize)

    @pytest.mark.parametrize("levels", [20, 200])
    def test_threshold_grid_equals_one_point_at_a_time(self, tmp_path, levels):
        # one family, and chains of different bands in one stack: each sums
        # its pivot rows over its own band
        grid = ",".join(repr(k * 5e-3 / levels) for k in range(1, levels + 1, levels // 10))
        spec = self.check(tmp_path, f"levels = {levels}\np_s_dbm = 25\ne_t_grid = {grid}\n")
        assert len({replace(spec.battery, e_t=e_t).eps_t_level for e_t in spec.grid}) == 10

    def test_low_power_grid_mixes_cut_and_full_chains(self, tmp_path):
        # at L=20, N=1 below about 22 dBm the chains are cut down to their
        # reachable sets, 18 dBm to the frozen empty state, and solved
        # alone beside the full chains of the stack
        spec = self.check(tmp_path, "p_s_dbm_grid = " + ",".join(
            str(14.0 + 0.5 * k) for k in range(21)) + "\n")
        points = list(er.evaluate_points(point_inputs(spec, v) for v in spec.grid))
        full = [bool(np.all(point.pi.pi > 0.0)) for point in points]
        assert True in full and False in full
        assert points[full.index(False)].pi.pi[0] == 1.0

    def check(self, tmp_path, text, optimize=False):
        spec = cli.load_config(write_cfg(tmp_path, text))
        if optimize:
            spec = replace(spec, sweep_kind="optimal_threshold")
        expected = rows_one_point_at_a_time(spec)
        rows = cli.run_sweep(spec)
        assert rows == expected
        assert [(r.analytic_outage.hex(), r.p_e.hex()) for r in rows] == [
            (r.analytic_outage.hex(), r.p_e.hex()) for r in expected]
        cli.write_csv(rows, str(tmp_path / "batch.csv"))
        cli.write_csv(expected, str(tmp_path / "alone.csv"))
        assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        # the Points themselves, matrix and law included
        inputs = [point_inputs(spec, value) for value in spec.grid]
        for point, (params, battery) in zip(er.evaluate_points(inputs, optimize), inputs):
            assert_same_point(point, er.evaluate_point(params, battery, optimize))
        return spec

    @pytest.mark.parametrize("levels, failing", [(20, 5), (200, 8)])
    def test_zero_pivot_mid_grid_fails_there_alone(self, tmp_path, monkeypatch, levels,
                                                   failing):
        # one chain of a stack (of 16 at L=20; the second stack of six at
        # L=200) cannot be solved: the points before it come out as they do
        # alone, and the sweep fails at that point with its own error
        spec = cli.load_config(write_cfg(tmp_path, f"levels = {levels}\n"
                                                   f"p_s_dbm_grid = {POWER_GRID}\n"))
        inputs = [point_inputs(spec, value) for value in spec.grid]
        params, battery = inputs[failing]
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        broken = er.ChainFamily(params, links, thr, battery.capacity, levels).fail_direct
        fill = er.ChainFamily.fill

        def fill_with_zero_pivot(family, k_thr, z):
            failed = fill(family, k_thr, z)
            if family.fail_direct == broken:
                z[:] = zero_pivot_chain(levels + 1, 7)
            return failed
        monkeypatch.setattr(er.ChainFamily, "fill", fill_with_zero_pivot)
        with pytest.raises(er.NumericalError) as alone:
            er.evaluate_point(params, battery)
        assert "zero pivot at state 7" in str(alone.value)
        taken = []
        with pytest.raises(er.NumericalError) as batched:
            for point in er.evaluate_points(inputs):
                taken.append(point)
        assert str(batched.value) == str(alone.value)
        assert len(taken) == failing
        for point, (params, battery) in zip(taken, inputs):
            assert_same_point(point, er.evaluate_point(params, battery))
        with pytest.raises(er.NumericalError) as swept:
            cli.run_sweep(spec)
        assert str(swept.value) == f"sweep point {spec.grid[failing]!r}: {alone.value}"

    def test_shared_marcum_q_failure_names_the_first_point_alone(self, tmp_path, monkeypatch):
        # a failing shared pass would name every b of the grid; the sweep
        # names its first point, with the message of that point's own pass
        def failing(order, a, b):
            raise er.NumericalError(f"synthetic failure over {np.size(b)} b")
        monkeypatch.setattr(er.channel, "marcum_q", failing)
        spec = cli.load_config(write_cfg(tmp_path, f"levels = 200\n"
                                                   f"p_s_dbm_grid = {POWER_GRID}\n"))
        with pytest.raises(er.NumericalError, match="synthetic failure over 403 b") as alone:
            er.evaluate_point(*point_inputs(spec, spec.grid[0]))
        with pytest.raises(er.NumericalError) as swept:
            cli.run_sweep(spec)
        assert str(swept.value) == f"sweep point 15.0: {alone.value}"

    def test_failing_point_comes_before_a_later_refused_input(self, tmp_path):
        # point 0.001 fails numerically (rate = 300 takes the mode-4 closed
        # form out of the float range) before point 0.006 is refused for
        # exceeding the capacity, as when the points ran one at a time
        spec = cli.load_config(write_cfg(tmp_path, "rate = 300\ne_t_grid = 1e-3, 6e-3\n"))
        with pytest.raises(er.NumericalError,
                           match=r"^sweep point 0\.001: mode-4 closed form leaves"):
            cli.run_sweep(spec)

    def test_skip_warnings_in_grid_order(self, tmp_path, monkeypatch):
        # the first level each search solves fails; an optimized sweep warns
        # for each point in turn, with the text of the point alone
        fill = er.ChainFamily.fill

        def failing_first_level(family, k_thr, z):
            failed = fill(family, k_thr, z)
            if not hasattr(family, "failed_once"):
                family.failed_once = True
                return er.NumericalError("synthetic zero pivot")
            return failed
        monkeypatch.setattr(er.ChainFamily, "fill", failing_first_level)
        spec = replace(cli.load_config(write_cfg(tmp_path, "p_s_dbm_grid = 18,24,30\n")),
                       sweep_kind="optimal_threshold")
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            expected = rows_one_point_at_a_time(spec)
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            rows = cli.run_sweep(spec)
        assert rows == expected
        assert len(swept) == 3
        assert [str(w.message) for w in swept] == [str(w.message) for w in alone]
        assert {w.filename for w in swept} == {cli.__file__}

    @pytest.mark.parametrize("levels", [20, 200])
    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
    def test_a_sweep_builds_no_matrix(self, tmp_path, monkeypatch, levels, optimize):
        # a Point carries the inputs of its chain, which no row reads
        spec = cli.load_config(write_cfg(tmp_path, f"levels = {levels}\n"
                                                   f"p_s_dbm_grid = {SPARSE_POWER_GRID}\n"))
        if optimize:
            spec = replace(spec, sweep_kind="optimal_threshold")
        check, built = er.TransitionMatrix.__post_init__, []

        def counted_matrix(tm):
            built.append(tm.z.shape)
            check(tm)
        monkeypatch.setattr(er.TransitionMatrix, "__post_init__", counted_matrix)
        assert len(cli.run_sweep(spec)) == 6
        inputs = [point_inputs(spec, value) for value in spec.grid]
        for point, (params, _) in zip(er.evaluate_points(inputs, optimize), inputs):
            assert point.params == params
        assert built == []

    def test_peak_traced_memory_of_a_200_level_sweep(self, tmp_path):
        # points are streamed and carry no matrix: the grid holds one 2 MiB
        # stack of chains at a time, not 16 chains (2.8 MiB measured,
        # against 0.9 MiB one point at a time)
        spec = cli.load_config(write_cfg(tmp_path, f"levels = 200\nn_antennas = 2\n"
                                                   f"p_s_dbm_grid = {POWER_GRID}\n"))
        cli.run_sweep(spec)
        tracemalloc.start()
        try:
            cli.run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rsmeta
from rsmeta import channel, harness
from rsmeta.harness import (SCHEMA_VERSION, ExperimentConfig, load_config,
                            run_sweep, validate_config, write_reports)
from rsmeta.layout import StreamLayout
from rsmeta.metaopt import init_precoder
from rsmeta.rates import saf_report


def _write(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_full_file(self, tmp_path):
        path = _write(tmp_path, """
# comment line
scenario = iid
n_tx = 4          # trailing comment
n_users = 4
snr_db = 0, 10, 20
csit_draws = 3
realizations = 50
master_seed = 77
methods = meta, direct
iid.error_power = 0.3
meta.iters = 25
meta.hidden = 16, 16
meta.lr = 0.002
direct.iters = 40
eval.redraw = true
out.dir = out-here
threads = 2
""")
        cfg = load_config(path)
        assert cfg.scenario == "iid"
        assert cfg.n_tx == 4
        assert cfg.snr_db == (0, 10, 20)
        assert cfg.n_csit == 3
        assert cfg.n_realizations == 50
        assert cfg.master_seed == 77
        assert cfg.methods == ("meta", "direct")
        assert cfg.error_power == 0.3
        assert cfg.meta_iters == 25
        assert cfg.meta_hidden == (16, 16)
        assert cfg.meta_lr == 0.002
        assert cfg.direct_iters == 40
        assert cfg.redraw_eval is True
        assert cfg.out_dir == "out-here"
        assert cfg.n_threads == 2

    def test_single_value_promotes_to_tuple(self, tmp_path):
        cfg = load_config(_write(tmp_path, "snr_db = 15\nmethods = direct\n"))
        assert cfg.snr_db == (15,)
        assert cfg.methods == ("direct",)

    def test_none_and_negative_values(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "iid.error_power = none\nring.azimuths = -0.5, 0.5\n"
                      "scenario = one_ring\nn_groups = 2\nn_users = 4\n"))
        assert cfg.error_power is None
        assert cfg.azimuths == (-0.5, 0.5)

    def test_unknown_key_reports_line(self, tmp_path):
        # meta.splits and fixed.rank were keys once: the start point's power
        # fractions and the zero-forcing rank are fixed now, and a file
        # still setting either fails at its line
        for key in ("bogus_key", "meta.splits", "fixed.rank"):
            path = _write(tmp_path, f"n_tx = 4\n{key} = 3\n")
            with pytest.raises(ValueError,
                               match=rf":2: unknown key '{re.escape(key)}'"):
                load_config(path)

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        # the later line used to win silently
        path = _write(tmp_path, "n_tx = 4\nsnr_db = 5\nn_tx = 8\n")
        with pytest.raises(ValueError,
                           match=r":3: key 'n_tx' given again, first on "
                                 r"line 1"):
            load_config(path)

    def test_smooth_temp_key_is_unknown(self, tmp_path):
        # the objective is the hard minimum alone; a file still asking for
        # the smooth surrogate fails rather than run something else
        path = _write(tmp_path, "meta.smooth_temp = 0.3\n")
        with pytest.raises(ValueError, match=r":1: unknown key 'meta\.smooth"):
            load_config(path)

    def test_readme_table_lists_every_key(self):
        # the first column of README's "Config files" table names each key
        # in backticks; it must list exactly the keys load_config accepts
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Config files", 1)[1]
        section = section.split("\n## ", 1)[0]
        keys = []
        for line in section.splitlines():
            if line.startswith("| `"):
                keys += re.findall(r"`([^`]+)`", line.split("|")[1])
        assert len(keys) == len(set(keys))
        assert set(keys) == set(harness.KEYMAP)

    def test_missing_equals_reports_line(self, tmp_path):
        path = _write(tmp_path, "n_tx = 4\njust some words\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_config(path)

    def test_result_is_validated(self, tmp_path):
        path = _write(tmp_path, "scenario = one_ring\n")  # no azimuths
        with pytest.raises(ValueError, match="azimuths"):
            load_config(path)


class TestValidateConfig:
    def test_defaults_are_valid(self):
        validate_config(ExperimentConfig())

    def test_scenario_checked(self):
        with pytest.raises(ValueError, match="scenario"):
            validate_config(ExperimentConfig(scenario="rayleigh"))

    def test_fixed_needs_ring(self):
        with pytest.raises(ValueError, match="one_ring"):
            validate_config(ExperimentConfig(methods=("fixed",)))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            validate_config(ExperimentConfig(methods=("meta", "wmmse")))

    def test_azimuth_count(self):
        with pytest.raises(ValueError, match="azimuths"):
            validate_config(ExperimentConfig(
                scenario="one_ring", n_groups=2, azimuths=(0.1,)))

    def test_group_divisibility(self):
        with pytest.raises(ValueError, match="evenly"):
            validate_config(ExperimentConfig(
                scenario="one_ring", n_users=5, n_groups=2,
                azimuths=(-0.5, 0.5)))

    def test_thread_floor(self):
        with pytest.raises(ValueError, match="threads"):
            validate_config(ExperimentConfig(n_threads=0))

    def test_degenerate_iid_snr_named(self):
        # at 0 dB the tracked error variance p_t ** -alpha equals the unit
        # channel variance, which leaves a zero channel estimate
        with pytest.raises(ValueError, match="snr_db = 0 is degenerate"):
            validate_config(ExperimentConfig(scenario="iid",
                                             snr_db=(10.0, 0.0)))

    def test_degenerate_iid_error_power(self):
        with pytest.raises(ValueError, match="snr_db = 20 is degenerate"):
            validate_config(ExperimentConfig(scenario="iid", snr_db=(20.0,),
                                             error_power=1.0))

    def test_iid_snr_above_degenerate_point_passes(self):
        validate_config(ExperimentConfig(scenario="iid", snr_db=(1.0, 10.0)))

    # each of these used to pass validation and fail once its cell ran
    @pytest.mark.parametrize("key, field, value", [
        ("meta.iters", "meta_iters", 0),
        ("direct.iters", "direct_iters", 0),
        ("meta.lr", "meta_lr", 0.0),
        ("direct.lr", "direct_lr", -0.02),
        ("meta.hidden", "meta_hidden", (50, 0)),
        ("fixed.step", "fixed_step", 0.3),
    ])
    def test_bad_optimizer_setting_named(self, key, field, value):
        if key.startswith("fixed."):
            base = dict(scenario="one_ring", n_tx=4, n_users=4, n_groups=2,
                        azimuths=(-0.5, 0.5), methods=("meta", "fixed"))
        else:
            base = dict(methods=("meta", "direct"))
        validate_config(ExperimentConfig(**base))
        with pytest.raises(ValueError, match=re.escape(key)):
            validate_config(ExperimentConfig(**base, **{field: value}))

    # each of these used to pass validation, or to fail in it naming no
    # key, and then crash the sweep; none allocates what it asks for
    @pytest.mark.parametrize("key, changes", [
        ("iid.alpha", dict(alpha=-1e300)),
        ("fixed.step", dict(fixed_step=1e-300)),
        ("fixed.step", dict(fixed_step=1e-9)),
        ("ring.spread", dict(spread=1e-300)),
        ("ring.spread: azimuth 1e+300", dict(azimuths=(1e300, 0.0))),
        ("ring.spread: azimuth 1e+16", dict(azimuths=(1e16, 1e16))),
        # a config file's true, yes or on, read as 1, and false, no or off
        ("fixed.step", dict(fixed_step=True)),
        ("ring.tau2", dict(tau2=True)),
        ("iid.error_power", dict(error_power=False)),
        # a power whose square underflows (the network gradient's 0 / 0)
        # or overflows; -1700 dB also made the zero-forcing norms vanish
        ("snr_db = -1700", dict(snr_db=(10.0, -1700.0))),
        ("snr_db = -1540", dict(snr_db=(-1540.0,))),
        ("snr_db = 1545", dict(snr_db=(10.0, 1545.0))),
    ], ids=["alpha", "step", "step-1e-9", "spread", "azimuths-1e300",
            "azimuths-1e16", "step-bool", "tau2-bool", "error-power-bool",
            "snr-1e-170", "snr-square-subnormal", "snr-square-overflow"])
    def test_boundary_value_named(self, key, changes):
        base = {} if key.startswith("iid.") else dict(
            scenario="one_ring", n_tx=4, n_users=4, n_groups=2,
            azimuths=(-0.5, 0.5), methods=("meta", "fixed"))
        validate_config(ExperimentConfig(**base))
        with pytest.raises(ValueError, match=re.escape(key)):
            validate_config(ExperimentConfig(**{**base, **changes}))

    @pytest.mark.parametrize("method", ["meta", "direct"])
    @pytest.mark.parametrize("iters", [2.5, 3.0])
    def test_iters_must_be_an_integer(self, method, iters):
        # the runs' own check, in the config's words; a boolean is
        # rejected before it, as for every key but eval.redraw
        with pytest.raises(ValueError, match=re.escape(
                f"{method}.iters must be an integer >= 1, got {iters!r}")):
            validate_config(ExperimentConfig(
                methods=("meta", "direct"), **{f"{method}_iters": iters}))

    def test_unused_optimizer_settings_not_checked(self):
        validate_config(ExperimentConfig(methods=("meta",), direct_iters=0,
                                         fixed_step=0.3))


def _tiny_config(**kw):
    base = dict(scenario="iid", n_tx=2, n_users=2, snr_db=(0.0, 10.0),
                n_csit=2, n_realizations=10, master_seed=42,
                methods=("meta", "direct"), error_power=0.3,
                meta_iters=5, meta_hidden=(8,), direct_iters=5,
                n_threads=1)
    base.update(kw)
    return ExperimentConfig(**base)


def _ring_config(**kw):
    base = dict(scenario="one_ring", n_tx=4, n_users=2, n_groups=2,
                snr_db=(10.0,), n_csit=2, n_realizations=8, master_seed=9,
                methods=("meta", "fixed"), azimuths=(-0.6, 0.6), tau2=0.3,
                meta_iters=5, meta_hidden=(8,), fixed_step=0.2)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSweep:
    def test_cell_inventory_and_order(self):
        res = run_sweep(_tiny_config())
        assert len(res.cells) == 2 * 2 * 2
        key = [(c.snr_idx, c.csit_idx, c.method) for c in res.cells]
        assert key == [(0, 0, "meta"), (0, 0, "direct"),
                       (0, 1, "meta"), (0, 1, "direct"),
                       (1, 0, "meta"), (1, 0, "direct"),
                       (1, 1, "meta"), (1, 1, "direct")]
        assert res.schema_version == SCHEMA_VERSION
        for c in res.cells:
            assert np.isfinite(c.asr) and c.asr > 0
            assert c.wall_time_s > 0
            assert c.snr_db == res.config.snr_db[c.snr_idx]

    def test_bitwise_reproducible(self):
        a = run_sweep(_tiny_config())
        b = run_sweep(_tiny_config())
        assert [c.asr for c in a.cells] == [c.asr for c in b.cells]
        assert [c.start_asr for c in a.cells] == \
            [c.start_asr for c in b.cells]

    def test_methods_share_ensembles(self):
        # the paired design shows up as identical starting rates for the
        # shared start point of meta and direct on the same cell
        res = run_sweep(_tiny_config())
        by_cell = {}
        for c in res.cells:
            by_cell.setdefault((c.snr_idx, c.csit_idx), {})[c.method] = c
        for pair in by_cell.values():
            assert pair["meta"].start_asr == pair["direct"].start_asr

    def test_thread_count_does_not_change_results(self):
        a = run_sweep(_tiny_config(n_threads=1))
        b = run_sweep(_tiny_config(n_threads=2))
        assert [c.asr for c in a.cells] == [c.asr for c in b.cells]

    def test_package_import_leaves_thread_pool_unloaded(self):
        # only a threaded sweep needs concurrent.futures and the logging it
        # imports; a fresh interpreter shows what importing the package loads
        src = os.path.dirname(os.path.dirname(rsmeta.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, rsmeta; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('concurrent', 'logging')))"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_one_channel_model_per_sweep(self, monkeypatch):
        # every cell draws from one model whose correlations and roots are
        # computed before any worker starts, with one decomposition per group
        calls = {}
        for name in ("one_ring_correlation", "herm_eig"):
            def counted(*args, _name=name, _real=getattr(channel, name),
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(channel, name, counted)
        runs = []
        for threads in (1, 2):
            calls.clear()
            cfg = _ring_config(snr_db=(10.0, 20.0), n_threads=threads)
            runs.append(run_sweep(cfg))
            assert calls == {"one_ring_correlation": cfg.n_groups,
                             "herm_eig": cfg.n_groups}
        assert [c.asr for c in runs[0].cells] == \
            [c.asr for c in runs[1].cells]

    def test_library_reads_no_environment(self, tmp_path, monkeypatch):
        # overrides from the environment belong to the command line only
        monkeypatch.setenv("RSMETA_THREADS", "0")
        monkeypatch.setenv("RSMETA_OUT_DIR", str(tmp_path / "env"))
        res = run_sweep(_tiny_config(n_threads=1))
        assert res.config.n_threads == 1
        write_reports(res, out_dir=str(tmp_path / "given"))
        assert (tmp_path / "given" / "results.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_adding_snr_points_keeps_existing_cells(self):
        # hierarchical seeding: results at a given SNR index depend only on
        # that index, so growing the grid never reshuffles earlier cells
        short = run_sweep(_tiny_config(snr_db=(0.0,)))
        full = run_sweep(_tiny_config(snr_db=(0.0, 10.0)))
        want = [c.asr for c in short.cells]
        got = [c.asr for c in full.cells if c.snr_idx == 0]
        assert got == want

    def test_redraw_eval_scores_start_held_out(self, monkeypatch):
        # with eval.redraw the start rate is scored on the held-out batch,
        # as the reported rate is, so "beats its start" compares one batch
        pairs = []

        def spy(model, *args, _real=channel.IidCsitModel.draw_pair):
            pairs.append(_real(model, *args))
            return pairs[-1]

        # meta and direct start from one point, built and scored once per
        # estimate
        starts = []

        def counted(*args, _real=harness.init_precoder):
            starts.append(args)
            return _real(*args)

        monkeypatch.setattr(channel.IidCsitModel, "draw_pair", spy)
        monkeypatch.setattr(harness, "init_precoder", counted)
        plain = run_sweep(_tiny_config())
        assert starts == []
        pairs.clear()
        held = run_sweep(_tiny_config(redraw_eval=True))
        assert [c.asr for c in plain.cells] != [c.asr for c in held.cells]
        layout = StreamLayout.one_layer(2, 2)
        cells = iter(held.cells)
        assert len(pairs) == len(held.cells) // 2 == len(starts)
        for (ens, eval_ens), meta, direct in zip(pairs, cells, cells):
            p_t = 10.0 ** (meta.snr_db / 10.0)
            want = saf_report(init_precoder(layout, ens.estimate, p_t),
                              eval_ens, layout).avg_sum_rate
            assert meta.start_asr == direct.start_asr == want
        assert all(a.start_asr != b.start_asr
                   for a, b in zip(plain.cells, held.cells))

    def test_one_ring_with_fixed(self):
        cfg = _ring_config()
        res = run_sweep(cfg)
        assert len(res.cells) == 4
        fixed = [c for c in res.cells if c.method == "fixed"]
        for c in fixed:
            assert c.q_common + c.q_group + c.q_private == pytest.approx(
                1.0, abs=1e-12)
            assert c.start_asr is None

    def test_one_ring_at_vanishing_power(self):
        # at -300 dB the zero-forcing columns have norms near 1e-31, which
        # an absolute floor on their norms would take for degenerate ones
        cfg = _ring_config(n_tx=8, n_users=4, snr_db=(10.0, -300.0),
                           methods=("meta", "direct", "fixed"),
                           direct_iters=3, meta_iters=3)
        validate_config(cfg)
        res = run_sweep(cfg)
        assert len(res.cells) == 2 * 2 * 3
        assert all(np.isfinite(c.asr) for c in res.cells)

    def test_q_reports_power_the_best_precoder_spends(self, monkeypatch):
        runs = {"meta": [], "direct": []}
        for method, name in (("meta", "run_meta_opt"),
                             ("direct", "run_direct_adam")):
            def spy(*args, _real=getattr(harness, name), _out=runs[method],
                    **kwargs):
                _out.append(_real(*args, **kwargs))
                return _out[-1]
            monkeypatch.setattr(harness, name, spy)
        res = run_sweep(_tiny_config())
        moved = 0
        for method, results in runs.items():
            cells = [c for c in res.cells if c.method == method]
            assert len(cells) == len(results) == 4
            for c, r in zip(cells, results):
                pm, p_t = r.best_precoder, 10.0 ** (c.snr_db / 10.0)
                want = (pm.stream_power(0) / p_t, 0.0,
                        sum(pm.stream_power(pm.layout.col_private(k))
                            for k in range(pm.layout.n_users)) / p_t)
                assert (c.q_common, c.q_group, c.q_private) == \
                    pytest.approx(want, rel=1e-12, abs=1e-15)
                assert c.q_common + c.q_group + c.q_private <= 1.0 + 1e-12
                moved += (c.q_common, c.q_private) != \
                    pytest.approx((0.9, 0.1), rel=1e-9)
        # the test means something only if some run left its start split
        assert moved > 0

    def test_summary_rows_math(self):
        res = run_sweep(_tiny_config())
        rows = res.summary_rows()
        assert len(rows) == 4  # 2 methods x 2 SNR points
        for row in rows:
            sel = [c for c in res.cells
                   if c.method == row["method"]
                   and c.snr_db == row["snr_db"]]
            vals = np.array([c.asr for c in sel])
            assert row["esr_mean"] == pytest.approx(np.mean(vals), rel=1e-12)
            assert row["esr_std"] == pytest.approx(np.std(vals, ddof=1),
                                                   rel=1e-12)

    def test_optimizers_looked_up_at_call_time(self, monkeypatch):
        # the sweep must call each optimizer through the harness module's
        # global at call time, so that a wrapper put there sees every cell
        calls = []
        for method, name in (("meta", "run_meta_opt"),
                             ("direct", "run_direct_adam"),
                             ("fixed", "run_fixed_direction")):
            def spy(*args, _real=getattr(harness, name), _method=method,
                    **kwargs):
                calls.append((_method, _real(*args, **kwargs)))
                return calls[-1][1]
            monkeypatch.setattr(harness, name, spy)
        for cfg in (_tiny_config(), _ring_config(snr_db=(5.0, 15.0))):
            calls.clear()
            res = run_sweep(cfg)
            assert len(calls) == \
                len(cfg.snr_db) * cfg.n_csit * len(cfg.methods)
            assert [m for m, _ in calls] == [c.method for c in res.cells]
            for c, (_, r) in zip(res.cells, calls):
                assert c.asr == r.best_asr
                if c.method == "fixed":
                    split = r.best_split
                    assert (c.q_common, c.q_group, c.q_private) == \
                        pytest.approx((split.common, split.group,
                                       split.private), rel=0, abs=1e-12)


class TestWriteReports:
    def test_files_and_schema(self, tmp_path):
        res = run_sweep(_tiny_config())
        paths = write_reports(res, out_dir=str(tmp_path / "reports"))
        with open(paths["csv"]) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["method", "snr_db", "esr_mean", "esr_std",
                          "time_mean_s", "q_common", "q_group", "q_private"]
        assert len(rows) == 4
        with open(paths["json"]) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["cells"]) == 8
        assert payload["config"]["master_seed"] == 42
        back = [c["asr"] for c in payload["cells"]]
        assert back == [c.asr for c in res.cells]

    def test_records_directory_written(self, tmp_path):
        res = run_sweep(_tiny_config(meta_iters=1, direct_iters=1))
        out_dir = tmp_path / "elsewhere"
        paths = write_reports(res, out_dir)
        assert os.path.dirname(paths["json"]) == str(out_dir)
        with open(paths["json"]) as fh:
            assert json.load(fh)["config"]["out_dir"] == str(out_dir)
        assert res.config.out_dir == "results"

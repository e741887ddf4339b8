import csv
import json
import os
import re
from pathlib import Path

import pytest

from rsmeta import harness
from rsmeta.cli import ENV_OUT_DIR, ENV_THREADS, main

TINY = """
scenario = iid
n_tx = 2
n_users = 2
snr_db = 10
csit_draws = 2
realizations = 10
master_seed = 5
methods = meta, direct
iid.error_power = 0.3
meta.iters = 5
meta.hidden = 8
direct.iters = 5
"""


# the grouped counterpart of TINY: 4 antennas, 2 users on 2 rings
RING = """
scenario = one_ring
n_tx = 4
n_users = 2
n_groups = 2
snr_db = 10
csit_draws = 1
realizations = 10
master_seed = 5
methods = meta, fixed
ring.azimuths = -0.7, 0.7
meta.iters = 5
meta.hidden = 8
"""


# the same sweep as test_harness._tiny_config: 2 SNR points x 2 draws x 2
SWEEP = """
scenario = iid
n_tx = 2
n_users = 2
snr_db = 0, 10
csit_draws = 2
realizations = 10
master_seed = 42
methods = meta, direct
iid.error_power = 0.3
meta.iters = 5
meta.hidden = 8
direct.iters = 5
threads = 1
"""


def _with(base, key, text):
    """The config ``base`` with ``key = text`` in place of its own line for
    ``key``, if it has one: a config may give each key once."""
    kept = [line for line in base.splitlines()
            if line.split("=", 1)[0].strip() != key]
    return "\n".join(kept) + f"\n{key} = {text}\n"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.cfg"))


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP)
    return path


class TestValidate:
    def test_ok(self, tiny_cfg, capsys):
        assert main(["validate", "--config", str(tiny_cfg)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "master_seed = 5" in out

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_shipped_config(self, path, monkeypatch, capsys):
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        monkeypatch.delenv(ENV_THREADS, raising=False)
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_shipped_configs_found(self):
        assert {"smoke.cfg", "smoke_ring.cfg", "single_layer.cfg",
                "grouped_ring.cfg"} <= {p.name for p in SHIPPED}

    def test_broken_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = nope\n")
        assert main(["validate", "--config", str(path)]) != 0
        assert "scenario" in capsys.readouterr().err

    def test_degenerate_snr_rejected(self, tmp_path, capsys):
        # without iid.error_power the error variance tracks the power
        # budget and reaches the channel variance at 0 dB
        path = tmp_path / "zero-db.cfg"
        path.write_text("scenario = iid\nsnr_db = 10, 0\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "snr_db = 0 is degenerate" in capsys.readouterr().err

    # 10^(snr/10) overflowed to an uncaught OverflowError in validate or
    # mid-sweep, or came out 0 and failed in the first cell or under
    # another key
    @pytest.mark.parametrize("base", [TINY, RING], ids=["iid", "ring"])
    @pytest.mark.parametrize("point", ["4000", "-4000"])
    def test_unrepresentable_snr_power_named(self, base, point, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        path = tmp_path / "snr.cfg"
        path.write_text(_with(base, "snr_db", f"10, {point}"))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"snr_db = {point} gives the transmit power" in err

    # each of these used to crash validate with a TypeError, run on a
    # truncated value, or pass validate and fail in the first cell
    @pytest.mark.parametrize("key, text", [
        ("threads", "two"), ("n_tx", "four"), ("n_users", "2.0"),
        ("n_groups", "two"), ("realizations", "2.5"), ("csit_draws", "2.5"),
        ("master_seed", "-3"), ("master_seed", "1.5"),
        ("snr_db", "10, loud"), ("snr_db", "10, nan"),
    ])
    def test_bad_number_named(self, key, text, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        path = tmp_path / "bad.cfg"
        path.write_text(_with(TINY, key, text))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("base, key, text", [
        (TINY, "meta.splits", "0.5, 0.0, 0.3"), (RING, "fixed.rank", "2")],
        ids=["meta.splits", "fixed.rank"])
    def test_removed_setting_named(self, base, key, text, tmp_path, capsys):
        # the start point's power fractions and the zero-forcing rank are
        # fixed; an old config that still sets one fails at its line
        path = tmp_path / "old.cfg"
        path.write_text(base + f"{key} = {text}\n")
        line = len(base.splitlines()) + 1
        assert main(["validate", "--config", str(path)]) != 0
        assert f"{path}:{line}: unknown key '{key}'" in \
            capsys.readouterr().err

    def test_repeated_method_named(self, tmp_path, monkeypatch, capsys):
        # a repeated method used to pass validate, run twice in every cell
        # and write two identical summary rows per SNR point
        monkeypatch.delenv(ENV_THREADS, raising=False)
        path = tmp_path / "twice.cfg"
        path.write_text(_with(TINY, "methods", "direct, meta, direct"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "methods must be a list without repeats" in \
            capsys.readouterr().err

    # each of these used to pass validate: a non-boolean eval.redraw turned
    # held-out scoring on, the others reached the first cell or ran on
    # nonsense; a negative iid.error_power failed without naming its key
    @pytest.mark.parametrize("base, key, text", [
        (TINY, "eval.redraw", "maybe"), (TINY, "eval.redraw", "1"),
        (RING, "ring.tau2", "1.5"), (RING, "ring.tau2", "-0.1"),
        (RING, "ring.spread", "0"), (RING, "ring.spread", "3.5"),
        (RING, "ring.spacing", "0"), (RING, "ring.spacing", "-0.5"),
        (RING, "ring.azimuths", "-0.7, wide"),
        (RING, "ring.azimuths", "-0.7, nan"),
        (TINY, "iid.alpha", "nan"), (TINY, "iid.alpha", "inf"),
        (TINY, "iid.error_power", "-0.1"), (TINY, "iid.error_power", "nan"),
    ], ids=lambda x: "ring" if x is RING else "iid" if x is TINY else None)
    def test_bad_model_setting_named(self, base, key, text, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        path = tmp_path / "bad.cfg"
        path.write_text(_with(base, key, text))
        assert main(["validate", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_other_scenario_settings_unchecked(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        path = tmp_path / "iid.cfg"
        path.write_text(TINY + "ring.tau2 = 1.5\nring.spacing = 0\n")
        assert main(["validate", "--config", str(path)]) == 0
        path = tmp_path / "ring.cfg"
        path.write_text(RING + "iid.alpha = nan\niid.error_power = -1\n")
        assert main(["validate", "--config", str(path)]) == 0
        path.write_text(RING)
        assert main(["validate", "--config", str(path)]) == 0


class TestRun:
    def test_writes_reports(self, tiny_cfg, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code = main(["run", "--config", str(tiny_cfg),
                     "--out-dir", str(out_dir)])
        assert code == 0
        with open(out_dir / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"meta", "direct"}
        with open(out_dir / "results.json") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert len(payload["cells"]) == 4
        table = capsys.readouterr().out
        assert "meta" in table and "direct" in table

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "gone.cfg")]) != 0

    def test_zero_threads_rejected(self, tiny_cfg, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code = main(["run", "--config", str(tiny_cfg),
                     "--out-dir", str(out_dir), "--threads", "0"])
        assert code == 1
        assert "threads" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_optimizer_setting_fails_before_any_cell(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("direct.iters = 5", "direct.iters = 0"))
        cells = []
        monkeypatch.setattr(harness, "run_meta_opt",
                            lambda *a, **k: cells.append("meta"))
        monkeypatch.setattr(harness, "run_direct_adam",
                            lambda *a, **k: cells.append("direct"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "direct.iters" in capsys.readouterr().err
        out_dir = tmp_path / "res"
        assert main(["run", "--config", str(path),
                     "--out-dir", str(out_dir)]) == 1
        assert "direct.iters" in capsys.readouterr().err
        assert cells == []
        assert not out_dir.exists()


class TestEnvOverrides:
    def test_thread_env_override(self, sweep_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "2")
        out_dir = tmp_path / "res"
        assert main(["run", "--config", str(sweep_cfg), "--threads", "1",
                     "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "results.json") as fh:
            payload = json.load(fh)
        assert len(payload["cells"]) == 8
        assert payload["config"]["n_threads"] == 2

    @pytest.mark.parametrize("raw", ["-3", "0", "two"])
    def test_bad_thread_env_override_rejected(self, sweep_cfg, tmp_path,
                                              monkeypatch, capsys, raw):
        monkeypatch.setenv(ENV_THREADS, raw)
        assert main(["run", "--config", str(sweep_cfg),
                     "--out-dir", str(tmp_path / "res")]) == 1
        assert re.search("threads|RSMETA_THREADS", capsys.readouterr().err)

    def test_env_dir_override(self, sweep_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "forced"))
        assert main(["run", "--config", str(sweep_cfg),
                     "--out-dir", str(tmp_path / "ignored")]) == 0
        assert (tmp_path / "forced" / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()
        with open(tmp_path / "forced" / "results.json") as fh:
            assert json.load(fh)["config"]["out_dir"] == \
                str(tmp_path / "forced")

    def test_validate_sees_env_override(self, tiny_cfg, monkeypatch, capsys):
        monkeypatch.setenv(ENV_THREADS, "0")
        assert main(["validate", "--config", str(tiny_cfg)]) == 1
        assert "threads" in capsys.readouterr().err


class TestGradcheck:
    def test_small_battery(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "checked 2 random instances" in out
        assert "PASS" in out

    def test_smooth_temp_flag_gone(self, capsys):
        # the battery checks the one objective, with hard minima
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--smooth-temp", "0.3"])
        assert exc.value.code == 2
        assert "--smooth-temp" in capsys.readouterr().err


class TestSmokeConfigs:
    # the shipped quick runs, one per scenario; only the grouped one
    # reaches the fixed-direction search
    @pytest.mark.parametrize("name, methods", [
        ("smoke.cfg", {"meta", "direct"}),
        ("smoke_ring.cfg", {"meta", "fixed"}),
    ], ids=["single_layer", "grouped"])
    def test_runs_end_to_end(self, name, methods, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        monkeypatch.delenv(ENV_THREADS, raising=False)
        out_dir = tmp_path / "res"
        assert main(["run", "--config", str(CONFIGS / name),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()
        with open(out_dir / "results.json") as fh:
            payload = json.load(fh)
        assert {c["method"] for c in payload["cells"]} == methods

    @pytest.mark.parametrize("command", ["demo-1lrs", "demo-hrs"])
    def test_preset_commands_gone(self, command, capsys):
        # the presets are the shipped config files, run with run --config
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert command in capsys.readouterr().err


class TestEntryPoints:
    def test_no_args_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_installed_console_script(self):
        import shutil
        exe = shutil.which("rsmeta")
        if exe is None:
            pytest.skip("console script not on PATH")
        assert os.access(exe, os.X_OK)

"""Config validation, dispatch, atomic outputs, and reproducibility."""

import ast
import inspect
import json
import os
import textwrap

import numpy as np
import pytest

from scalehom import cli, fieldsim, particle, proxysde, shellcov


def small_config(tmp_path, **overrides):
    cfg = cli.RunConfig.parse(cli.DEFAULT_CONFIG)
    cfg["sde"].update({"lambda2_max": 2.0, "n_steps": 20, "n_traj": 2000})
    cfg["ode"].update({"x_end": 2.0, "n_points": 41})
    cfg["field"].update({"l_max": 4.0, "n": 64, "n_samples": 3})
    cfg["corrector"].update({"l_max": 4.0, "n": 64, "n_samples": 2})
    cfg["particle"].update({"l_list": "4", "n_list": "64", "t_end": 10.0,
                            "n_envs": 2, "paths_per_env": 500})
    for sec, kv in overrides.items():
        cfg[sec].update(kv)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.dumps())
    return path


class TestRunConfig:
    def test_default_parses(self):
        cfg = cli.RunConfig.load("default")
        assert cfg["run"]["seed"] == 11
        assert cfg["sde"]["mode"] == "full"

    def test_roundtrip_unchanged(self):
        cfg = cli.RunConfig.parse(cli.DEFAULT_CONFIG)
        again = cli.RunConfig.parse(cfg.dumps())
        assert cfg == again
        assert cfg.sha256() == again.sha256()

    def test_unknown_key_rejected(self):
        bad = cli.DEFAULT_CONFIG.replace("[sde]", "[sde]\nwarp_factor = 9")
        with pytest.raises(cli.ConfigError, match="warp_factor"):
            cli.RunConfig.parse(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(cli.ConfigError, match="mystery"):
            cli.RunConfig.parse(cli.DEFAULT_CONFIG + "\n[mystery]\nx = 1\n")

    def test_missing_key_named(self):
        bad = cli.DEFAULT_CONFIG.replace("eps = 0.2\n", "", 1)
        with pytest.raises(cli.ConfigError, match="eps"):
            cli.RunConfig.parse(bad)

    def test_range_validation(self):
        bad = cli.DEFAULT_CONFIG.replace("n_traj = 100000", "n_traj = 0")
        with pytest.raises(cli.ConfigError, match="n_traj"):
            cli.RunConfig.parse(bad)

    def test_type_validation(self):
        bad = cli.DEFAULT_CONFIG.replace("n_steps = 400", "n_steps = many")
        with pytest.raises(cli.ConfigError, match="n_steps"):
            cli.RunConfig.parse(bad)

    def test_default_config_hash(self):
        # DEFAULT_CONFIG is rendered from SCHEMA; its parsed content, and so
        # every sidecar's config_sha256 at --config default, is pinned
        assert cli.RunConfig.parse(cli.DEFAULT_CONFIG).sha256() == \
            "3150f4f4f1f0643c87fe46912130f8669610576231a7b97e96868c61e7bdd80d"

    @pytest.mark.parametrize("section, values, key", [
        ("particle", {"n_list": "x"}, "n_list"),
        ("particle", {"l_list": "", "n_list": ""}, "l_list"),
        ("particle", {"n_list": ""}, "n_list"),
        ("particle", {"n_list": "0"}, "n_list"),
        ("particle", {"n_list": "48"}, "n_list"),
        ("particle", {"l_list": "abc"}, "l_list"),
        ("particle", {"l_list": "1, 64"}, "l_list"),
        ("particle", {"l_list": "4, 16"}, "equal length"),
    ])
    def test_list_keys_validated_at_parse(self, tmp_path, section, values, key):
        path = small_config(tmp_path, **{section: values})
        with pytest.raises(cli.ConfigError, match=key):
            cli.RunConfig.load(str(path))
        out = tmp_path / "out"
        assert cli.dispatch(["particle-run", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()


class TestDispatch:
    def test_missing_key_exit_code(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(cli.DEFAULT_CONFIG.replace("eps = 0.2\n", "", 1))
        assert cli.dispatch(["sde-run", "--config", str(path)]) == 1

    def test_zero_trajectories_exit_code(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text(cli.DEFAULT_CONFIG.replace("n_traj = 100000", "n_traj = 0"))
        assert cli.dispatch(["sde-run", "--config", str(path)]) == 1

    def test_unknown_command_rejected(self):
        assert cli.dispatch(["explode", "--config", "default"]) == 1

    def test_unreadable_config(self):
        assert cli.dispatch(["sde-run", "--config", "/nonexistent.cfg"]) == 1

    def test_zero_ode_eps_is_a_config_error(self, tmp_path, capsys):
        # ln L = (lam2 - 1) / eps^2: the moment flow has no eps = 0 case
        out = tmp_path / "out"
        path = small_config(tmp_path, ode={"eps": 0.0})
        assert cli.dispatch(["ode-run", "--config", str(path), "--out", str(out)]) == 1
        assert "[ode] eps = " in capsys.readouterr().err
        assert not out.exists()

    def test_zero_sde_eps_is_a_config_error(self, tmp_path, capsys):
        # nor has the proxy SDE: its rows would read ln L = 0 while lam2 grows
        out = tmp_path / "out"
        path = small_config(tmp_path, sde={"eps": 0.0})
        assert cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)]) == 1
        assert "[sde] eps = " in capsys.readouterr().err
        assert not out.exists()

    def test_sde_snapshot_points_is_an_unknown_key(self, tmp_path, capsys):
        # sde-run kept no snapshot, so the key is gone rather than ignored
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(cli.DEFAULT_CONFIG.replace("[sde]\n", "[sde]\nsnapshot_points = 2.0\n"))
        assert cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)]) == 1
        assert "unknown key 'snapshot_points' in section [sde]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["tail-check", "--sigma-hat", "x"], "sigma_hat"),
        (["sde-run", "--seed", "-1"], "seed"),
        (["sde-run", "--seed", "x"], "seed"),
        (["tail-check", "--tau", "-1"], "tau"),
        (["tail-check", "--margin", "0"], "margin"),
    ])
    def test_bad_flag_names_its_key(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        path = small_config(tmp_path)
        assert cli.dispatch([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert f"] {key} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tau", "--sigma-hat", "--margin"])
    def test_tail_flags_only_on_tail_check(self, tmp_path, flag):
        out = tmp_path / "out"
        argv = ["sde-run", "--config", str(small_config(tmp_path)), flag, "4",
                "--out", str(out)]
        assert cli.dispatch(argv) == 1
        assert not out.exists()

    def test_threads_flag_rejected(self, tmp_path):
        # the draw-thread count is worked out, not set
        out = tmp_path / "out"
        argv = ["sde-run", "--config", str(small_config(tmp_path)), "--threads", "2",
                "--out", str(out)]
        assert cli.dispatch(argv) == 1
        assert not out.exists()

    def test_threads_key_rejected(self, tmp_path, capsys):
        path = small_config(tmp_path)
        path.write_text(path.read_text().replace("[run]\n", "[run]\nthreads = 1\n"))
        out = tmp_path / "out"
        assert cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)]) == 1
        assert "unknown key 'threads' in section [run]" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_failure_exit_code(self, tmp_path):
        # an infrared range too small for a single shell is a runtime
        # (numeric) failure, not a config-shape problem
        path = small_config(tmp_path, field={"l_max": 1.05})
        out = tmp_path / "nf"
        assert cli.dispatch(["field-run", "--config", str(path),
                             "--out", str(out)]) == 2


class TestSdeRun:
    def test_writes_csv_and_sidecar(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)]) == 0
        csv_path = out / "sde_series.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("lambda2,ln_l,E_phi2_resc")
        meta = json.loads((out / "sde_series.csv.meta.json").read_text())
        assert meta["seed"] == 11 and "config_sha256" in meta
        assert "wall_time_s" in meta
        assert meta["draw_threads"] == proxysde.draw_threads() >= 1
        assert meta["normals_per_step"] == shellcov.RANK == 9
        assert meta["step_generator"] == "SFC64"

    @pytest.mark.parametrize("cpus, drew", [(1, 1), (3, proxysde.DRAW_AHEAD)])
    def test_sidecar_records_threads_that_drew(self, tmp_path, monkeypatch, cpus, drew):
        # as many as the CPUs the process may run on, capped at DRAW_AHEAD
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / "out"
        assert cli.dispatch(["sde-run", "--config", str(small_config(tmp_path)),
                             "--out", str(out)]) == 0
        meta = json.loads((out / "sde_series.csv.meta.json").read_text())
        assert meta["draw_threads"] == drew and "workers" not in meta

    def test_csv_columns_equal_run_ensemble(self, tmp_path):
        # 17 significant digits round-trip: every column reads back as the
        # ensemble computed it
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)]) == 0
        data = np.genfromtxt(out / "sde_series.csv", delimiter=",", names=True)
        cfg = cli.RunConfig.load(str(path))
        sec = cfg["sde"]
        s = proxysde.run_ensemble(proxysde.SdeConfig(
            eps=sec["eps"], lambda2_max=sec["lambda2_max"], n_steps=sec["n_steps"],
            n_traj=sec["n_traj"], seed=cfg["run"]["seed"], mode=sec["mode"],
            record_stride=sec["record_stride"])).series
        assert np.array_equal(data["lambda2"], s.lambda2)
        assert np.array_equal(data["ln_l"], s.ln_l)
        for name in proxysde.MOMENT_NAMES:
            assert np.array_equal(data[f"E_{name}"], s.column(name)), name
            assert np.array_equal(data[f"se_{name}"], s.se(name)), name

    def test_byte_identical_across_runs_and_threads(self, tmp_path, monkeypatch):
        path = small_config(tmp_path)
        outs = []
        for name, threads in (("a", 1), ("b", proxysde.DRAW_AHEAD), ("c", 1), ("d", 2)):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=threads: n)
            out = tmp_path / name
            code = cli.dispatch(["sde-run", "--config", str(path), "--out", str(out)])
            assert code == 0
            outs.append((out / "sde_series.csv").read_bytes())
        assert all(o == outs[0] for o in outs[1:])

    def test_seed_override_changes_data(self, tmp_path):
        path = small_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli.dispatch(["sde-run", "--config", str(path), "--out", str(out1)])
        cli.dispatch(["sde-run", "--config", str(path), "--out", str(out2),
                      "--seed", "99"])
        assert (out1 / "sde_series.csv").read_bytes() != \
            (out2 / "sde_series.csv").read_bytes()


class TestOtherCommands:
    def test_ode_run(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "ode"
        assert cli.dispatch(["ode-run", "--config", str(path), "--out", str(out)]) == 0
        data = np.genfromtxt(out / "ode_series.csv", delimiter=",", names=True)
        assert data["E_det"][-1] == 1.0
        assert np.all(data["env_f4_low"] <= data["E_f4"] + 1e-9)
        assert np.all(data["E_f4"] <= data["env_f4_high"] + 1e-9)

    def test_tail_check_with_flag_overrides(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "tail"
        code = cli.dispatch(["tail-check", "--config", str(path), "--out", str(out),
                             "--tau", "4.0", "--sigma-hat", "-2.0"])
        assert code == 0
        summary = json.loads((out / "tail_summary.json").read_text())
        assert summary["tau"] == 4.0 and summary["sigma_hat"] == -2.0
        assert summary["i1"] > 0.0

    def test_tail_check_margin_decides_regime(self, tmp_path):
        # at the shipped [tail] point exp(sigma_hat) is 0.1002 of the
        # admissible scale, so the verdict flips between these margins
        path = small_config(tmp_path)
        verdicts = {}
        for margin in ("0.05", "5"):
            out = tmp_path / f"tail_{margin}"
            assert cli.dispatch(["tail-check", "--config", str(path), "--out", str(out),
                                 "--margin", margin]) == 0
            summary = json.loads((out / "tail_summary.json").read_text())
            assert summary["margin"] == float(margin)
            verdicts[margin] = summary["regime_ok"]
        assert verdicts == {"0.05": False, "5": True}

    def test_qv_check(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "qv"
        assert cli.dispatch(["qv-check", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "qv_check.json").read_text())
        assert payload["algebra suite"]["pass"]
        assert payload["covariance consistency"]["pass"]

    def test_numpy_booleans_written_as_json_booleans(self, tmp_path):
        path = small_config(tmp_path, field={"box_mult": 2.0})
        out = tmp_path / "bools"
        assert cli.dispatch(["qv-check", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "qv_check.json").read_text())
        assert payload["algebra suite"]["pass"] is True
        cli.dispatch(["field-run", "--config", str(path), "--out", str(out)])
        meta = json.loads((out / "field_moments.csv.meta.json").read_text())
        assert isinstance(meta["qv_ok"], bool)

    def test_sidecar_writes_numpy_scalars_as_python_values(self, tmp_path):
        cfg = cli.RunConfig.parse(cli.DEFAULT_CONFIG)
        extra = {"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(False)}
        cli.write_sidecar(tmp_path / "data.csv", cfg, 11, 1.5, extra)
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["x"] == 0.1 and meta["n"] == 3 and meta["ok"] is False
        assert isinstance(meta["n"], int)

    def test_corrector_run(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "corr"
        code = cli.dispatch(["corrector-run", "--config", str(path), "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "corrector.csv", delimiter=",", names=True)
        assert np.all(np.atleast_1d(data["lambda"]) >= 1.0)

    def test_particle_run(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "part"
        code = cli.dispatch(["particle-run", "--config", str(path), "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "msd_L4.csv", delimiter=",", names=True)
        assert np.all(data["msd_x"] > 0.0)

    def test_particle_ratio_se_from_environment_totals(self, tmp_path):
        # the error of the growth ratio is that of each run's total MSD over
        # its environments, which keeps the x-y covariance within them
        path = small_config(tmp_path, particle={"l_list": "4, 8", "n_list": "64, 64",
                                                "n_envs": 3})
        out = tmp_path / "part"
        assert cli.dispatch(["particle-run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "particle_summary.json").read_text())
        cfg = cli.RunConfig.load(str(path))
        sec = cfg["particle"]
        times = particle.default_sample_times(sec["dt"], sec["t_end"])
        lo, hi = (particle.annealed_msd(sec["eps"], l_max, 64, sec["dt"], sec["t_end"],
                                        3, sec["paths_per_env"],
                                        seed=cfg["run"]["seed"] + i, sample_times=times)
                  for i, l_max in enumerate((4.0, 8.0)))
        j = int(np.argmin(np.abs(times - summary["compare_time"])))
        ratio = hi.total[j] / lo.total[j]
        se = ratio * np.hypot(lo.total_se[j] / lo.total[j], hi.total_se[j] / hi.total[j])
        assert summary["growth_ratio"] == ratio
        assert summary["ratio_se"] == pytest.approx(se, rel=1e-12)

    def test_field_run(self, tmp_path):
        path = small_config(tmp_path, field={"box_mult": 2.0})
        out = tmp_path / "field"
        code = cli.dispatch(["field-run", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)   # tiny run; qv_ok not asserted at this size
        assert (out / "field_moments.csv").exists()

    def test_field_snapshot_written_atomically(self, tmp_path, monkeypatch):
        # the snapshot goes through a temporary file and a rename like every
        # output, so a failed rename leaves neither it nor the temporary file
        path = small_config(tmp_path, field={"box_mult": 2.0, "save_snapshot": "true"})
        out = tmp_path / "field"
        replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == "field_state.bin":
                raise OSError("disk full")
            replace(src, dst)
        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cli.dispatch(["field-run", "--config", str(path), "--out", str(out)])
        assert not [p.name for p in out.iterdir() if "field_state.bin" in p.name]
        monkeypatch.setattr(cli.os, "replace", replace)
        cli.dispatch(["field-run", "--config", str(path), "--out", str(out)])
        state, box_len = fieldsim.load_snapshot(out / "field_state.bin")
        cfg = cli.RunConfig.load(str(path))["field"]
        assert box_len == 2.0 * 2.0 * np.pi * cfg["l_max"]
        assert state.f.shape == (2, 2, cfg["n"], cfg["n"])


#: commands that run on ``proxysde.draw_threads()`` threads and record the count
THREADED = ("sde-run", "field-run", "corrector-run", "particle-run", "accept")
#: commands that step the proxy SDE and record how it draws
SDE_DRAWS = ("sde-run", "accept")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_writes_sidecars(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(cli.acceptance, "run_all", lambda verbose=True: [])
    path = small_config(tmp_path, field={"box_mult": 2.0, "save_snapshot": "true"},
                        particle={"l_list": "4, 8", "n_list": "64, 64"})
    out = tmp_path / "out"
    assert cli.dispatch([command, "--config", str(path), "--out", str(out)]) == 0
    data = sorted(p for p in out.iterdir() if not p.name.endswith(".meta.json"))
    assert data
    # one line per file, and the sidecar hashes the config as loaded,
    # before the --out flag is applied
    assert sorted(capsys.readouterr().out.splitlines()) == [f"wrote {p}" for p in data]
    for p in data:
        meta = json.loads(p.with_name(p.name + ".meta.json").read_text())
        assert meta["config_sha256"] == cli.RunConfig.load(str(path)).sha256()
        assert meta.get("draw_threads") == \
            (proxysde.draw_threads() if command in THREADED else None)
        drew = (meta.get("normals_per_step"), meta.get("step_generator"))
        assert drew == ((9, "SFC64") if command in SDE_DRAWS else (None, None))


@pytest.mark.parametrize("command", ["field-run", "corrector-run", "particle-run"])
def test_ensemble_data_byte_identical_across_threads(tmp_path, monkeypatch, command):
    path = small_config(tmp_path, field={"box_mult": 2.0, "save_snapshot": "true"},
                        particle={"n_envs": 3})
    data = []
    for threads in (1, 2):
        monkeypatch.setattr(proxysde, "draw_threads", lambda n=threads: n)
        out = tmp_path / f"threads{threads}"
        assert cli.dispatch([command, "--config", str(path), "--out", str(out)]) == 0
        files = sorted(p for p in out.iterdir() if not p.name.endswith(".meta.json"))
        for p in files:
            meta = json.loads(p.with_name(p.name + ".meta.json").read_text())
            assert meta["draw_threads"] == threads
        data.append({p.name: p.read_bytes() for p in files})
    assert data[0] == data[1]


class TestAccept:
    """``accept`` always runs at ``acceptance.SEED``; the gate itself is
    replaced by an empty criterion list."""

    @pytest.fixture
    def gate_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.acceptance, "run_all",
                            lambda verbose=True: calls.append(verbose) or [])
        return calls

    def test_sidecar_records_the_seed_used(self, tmp_path, gate_calls):
        out = tmp_path / "acc"
        assert cli.dispatch(["accept", "--config", "default", "--out", str(out)]) == 0
        meta = json.loads((out / "accept.json.meta.json").read_text())
        assert meta["seed"] == cli.acceptance.SEED == 11
        assert meta["draw_threads"] == proxysde.draw_threads()
        assert meta["normals_per_step"] == 9 and meta["step_generator"] == "SFC64"
        assert gate_calls == [True]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_other_seed_is_refused(self, tmp_path, gate_calls, capsys, how):
        out = tmp_path / "acc"
        if how == "flag":
            argv = ["--config", "default", "--seed", "5"]
        else:
            argv = ["--config", str(small_config(tmp_path, run={"seed": 5}))]
        assert cli.dispatch(["accept", *argv, "--out", str(out)]) == 1
        assert "fixed seed 11" in capsys.readouterr().err
        assert gate_calls == [] and not (out / "accept.json").exists()


def _keys_read(fn, name: str) -> set:
    """The constant keys ``fn`` reads as ``name["key"]``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == name and isinstance(node.slice, ast.Constant)}


def test_every_config_key_is_read():
    # no key is parsed and then ignored: each command's runner reads every
    # key of its section, dispatch reads every [run] key, and every other
    # section belongs to a command
    for cmd in cli.COMMANDS.values():
        if cmd.section is not None:
            assert _keys_read(cmd.run, "sec") == set(cli.SCHEMA[cmd.section]), cmd.name
    assert _keys_read(cli.dispatch, "run") == set(cli.SCHEMA["run"])
    sections = {cmd.section for cmd in cli.COMMANDS.values()} - {None}
    assert sections == set(cli.SCHEMA) - {"run"}

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drope
import drope.cli as cli
import drope.pipeline as pipeline
from drope.attention import Variant, recording
from drope.cli import main
from drope.kinematics import advance_states
from drope.pipeline import (
    PipelineConfig,
    PipelinePolicy,
    PipelineWeights,
    rollout,
    write_trajectory_csv,
)
from drope.scene import load_scene, make_constant_velocity_scene, save_scene

from schemas import (
    PROFILE_REPORT_SCHEMA,
    ROLLOUT_REPORT_SCHEMA,
    VERIFY_REPORT_SCHEMA,
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(report):
    report = dict(report)
    report.pop("generated_at", None)
    return report


SMALL_VERIFY = ["--trials", "200"]


class TestVerify:
    def test_clean_build_passes(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", *SMALL_VERIFY, "--out", str(out)])
        assert code == 0
        report = read_json(out / "verify_report.json")
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        assert report["all_passed"] is True
        for prop in report["properties"]:
            assert prop["max_error"] < prop["tolerance"], prop["name"]

    def test_fault_injection_fails_angle_identity(self, tmp_path):
        out = tmp_path / "fault"
        code = main([
            "verify", *SMALL_VERIFY,
            "--fault-inject", "rope-freqs-in-fangle",
            "--out", str(out),
        ])
        assert code == 1
        report = read_json(out / "verify_report.json")
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        by_name = {prop["name"]: prop for prop in report["properties"]}
        assert by_name["angle_shift_identity"]["passed"] is False
        # the position identity does not touch the heading embedding
        assert by_name["position_shift_identity"]["passed"] is True

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert main(["verify", "--trials", "0", "--out", str(tmp_path)]) == 2

    def test_bad_config_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["verify", "--nope"]) == 2

    def test_report_reproducible_modulo_timestamp(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", *SMALL_VERIFY, "--seed", "3", "--out", str(out_a)]) == 0
        assert main(["verify", *SMALL_VERIFY, "--seed", "3", "--out", str(out_b)]) == 0
        report_a = strip_timestamp(read_json(out_a / "verify_report.json"))
        report_b = strip_timestamp(read_json(out_b / "verify_report.json"))
        assert report_a == report_b

    #: SHA-256 of the sorted-key JSON of the ``--seed 3 --trials 200`` report
    #: without its timestamp, per fault flag, with the exit code.
    REPORT_DIGESTS = {
        (): ("ebf8b7e9a0cb7a2028b521c266bde596f65514a811ac16802957909ba03318b9", 0),
        ("--fault-inject", "rope-freqs-in-fangle"): (
            "b15ce1fc52dcba3b4b382d0f2de60de872b8debe68607c11ad43c351a396d78f", 1),
    }

    @pytest.mark.parametrize("fault", list(REPORT_DIGESTS), ids=["clean", "fault"])
    def test_report_is_pinned(self, tmp_path, fault):
        code = main(["verify", *SMALL_VERIFY, "--seed", "3", *fault, "--out", str(tmp_path)])
        report = strip_timestamp(read_json(tmp_path / "verify_report.json"))
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert (digest, code) == self.REPORT_DIGESTS[fault]


class TestProfile:
    def test_default_grid_outputs(self, tmp_path):
        out = tmp_path / "profile"
        assert main(["profile", "--out", str(out)]) == 0
        report = read_json(out / "profile_report.json")
        jsonschema.validate(report, PROFILE_REPORT_SCHEMA)
        with open(out / "memory_flops.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["variant"] for row in rows} == {
            "plain", "rpe", "rope", "drope-hbh", "drope-ih",
        }
        # pairwise-encoder memory dominates every other variant at each config
        by_config = {}
        for row in rows:
            key = (row["n_tokens"], row["n_heads"], row["d_k"], row["d_v"])
            by_config.setdefault(key, {})[row["variant"]] = int(row["total_scalars"])
        for totals in by_config.values():
            rpe = totals.pop("rpe")
            assert rpe > max(totals.values())

    def test_plain_and_drope_in_place_columns_equal(self, tmp_path):
        out = tmp_path / "profile"
        assert main(["profile", "--out", str(out)]) == 0
        with open(out / "memory_flops.csv") as fh:
            rows = list(csv.DictReader(fh))
        plain = {
            (r["n_tokens"], r["n_heads"], r["d_k"], r["d_v"]): r["total_scalars"]
            for r in rows if r["variant"] == "plain"
        }
        for row in rows:
            if row["variant"] == "drope-hbh":
                key = (row["n_tokens"], row["n_heads"], row["d_k"], row["d_v"])
                assert row["total_scalars_in_place"] == plain[key]

    def test_gnuplot_tables_written(self, tmp_path):
        out = tmp_path / "profile"
        assert main(["profile", "--out", str(out)]) == 0
        for name in ("memory_vs_width.dat", "flops_vs_width.dat"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0].startswith("#")
            data = [line for line in lines if not line.startswith("#")]
            assert len(data) == 3  # d_k grid of the default config
            assert len(data[0].split()) == 6  # width + five variants

    def test_memory_curve_dominated_by_rpe_and_growing(self, tmp_path):
        out = tmp_path / "profile"
        assert main(["profile", "--out", str(out)]) == 0
        lines = [
            line for line in (out / "memory_vs_width.dat").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = (out / "memory_vs_width.dat").read_text().splitlines()[1].split()[2:]
        rpe_col = header.index("rpe")
        values = [list(map(int, line.split())) for line in lines]
        rpe_series = [row[1 + rpe_col] for row in values]
        assert rpe_series == sorted(rpe_series)
        for row in values:
            others = [v for i, v in enumerate(row[1:]) if i != rpe_col]
            assert row[1 + rpe_col] > max(others)

    def test_dat_tables_hold_one_block_per_heads_and_value_width(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {
            "n_tokens": [8, 16], "n_heads": [4, 8], "d_k": [2, 4], "d_v": [3, 5]}}))
        out = tmp_path / "profile"
        assert main(["profile", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "memory_flops.csv") as fh:
            rows = list(csv.DictReader(fh))
        for name, column in (("memory_vs_width.dat", "total_scalars_in_place"),
                             ("flops_vs_width.dat", "flops_total")):
            blocks = (out / name).read_text().split("\n\n\n")
            assert len(blocks) == 4
            for block, (h, d_v) in zip(blocks, [(4, 3), (4, 5), (8, 3), (8, 5)]):
                title, header, *lines = block.strip().splitlines()
                assert title.endswith(f" at n_tokens=16 n_heads={h} d_v={d_v}")
                variants = header.split()[2:]
                expected = {
                    (2 * int(row["d_k"]), row["variant"]): row[column] for row in rows
                    if (row["n_tokens"], row["n_heads"], row["d_v"]) == ("16", str(h), str(d_v))
                }
                table = {(int(line.split()[0]), variant): value for line in lines
                         for variant, value in zip(variants, line.split()[1:])}
                assert table == expected

    def test_empty_grid_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {"n_tokens": []}}))
        assert main(["profile", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_variant_filter(self, tmp_path):
        out = tmp_path / "profile"
        assert main(["profile", "--variant", "plain", "--variant", "rpe",
                     "--out", str(out)]) == 0
        with open(out / "memory_flops.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["variant"] for row in rows} == {"plain", "rpe"}


class TestRollout:
    def write_scene(self, tmp_path, n_steps=20):
        scene = make_constant_velocity_scene(seed=4, n_steps=n_steps)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        return path

    def test_constant_policy_self_consistency(self, tmp_path):
        scene_path = self.write_scene(tmp_path)
        out = tmp_path / "roll"
        code = main([
            "rollout", "--scene", str(scene_path), "--policy", "constant",
            "--horizon", "16", "--prefix", "4", "--out", str(out),
        ])
        assert code == 0
        report = read_json(out / "rollout_report.json")
        jsonschema.validate(report, ROLLOUT_REPORT_SCHEMA)
        assert report["min_ade_mean"] == pytest.approx(0.0, abs=1e-9)

    def test_same_seed_gives_identical_csv_bytes(self, tmp_path):
        scene_path = self.write_scene(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["rollout", "--scene", str(scene_path), "--horizon", "6",
                "--prefix", "4", "--seed", "9"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        bytes_a = (out_a / "trajectories_00.csv").read_bytes()
        bytes_b = (out_b / "trajectories_00.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_missing_scene_file_is_config_error(self, tmp_path):
        assert main(["rollout", "--scene", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_ragged_scene_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({
            "dt": 0.5,
            "agents": [{"states": [[0, 0, 0, 1], [1, 0, 0, 1]]},
                       {"states": [[0, 0, 0, 1]]}],
            "map": [],
        }))
        code = main(["rollout", "--scene", str(path), "--out", str(tmp_path / "roll")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_long_horizon_warns_but_succeeds(self, tmp_path):
        scene_path = self.write_scene(tmp_path)
        out = tmp_path / "roll"
        with pytest.warns(UserWarning, match="soft limit"):
            code = main([
                "rollout", "--scene", str(scene_path), "--policy", "constant",
                "--horizon", "18", "--prefix", "2", "--out", str(out),
            ])
        assert code == 0

    def test_sampled_rollouts_write_one_file_per_sample(self, tmp_path):
        scene_path = self.write_scene(tmp_path)
        out = tmp_path / "roll"
        code = main([
            "rollout", "--scene", str(scene_path), "--horizon", "4", "--prefix", "4",
            "--samples", "3", "--mode", "sample", "--out", str(out),
        ])
        assert code == 0
        report = read_json(out / "rollout_report.json")
        assert len(report["trajectory_files"]) == 3
        for name in report["trajectory_files"]:
            assert (out / name).exists()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_k_samples_are_one_batched_rollout_of_k_single_ones(self, tmp_path, variant):
        """``--samples 4`` writes the CSVs of four one-sample rollouts with
        policy seeds seed + k, and makes the attention calls of one sample."""
        scene_path = self.write_scene(tmp_path, n_steps=6)
        args = ["rollout", "--scene", str(scene_path), "--horizon", "5", "--prefix", "4",
                "--mode", "sample", "--variant", variant.value, "--seed", "11"]
        calls = {}
        for samples in (1, 4):
            with recording() as records, contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--samples", str(samples),
                             "--out", str(tmp_path / f"k{samples}")]) == 0
            calls[samples] = len(records)
        assert calls[4] == calls[1] > 0
        config = PipelineConfig(variant=variant)
        weights = PipelineWeights.seeded(config, seed=11)
        history = load_scene(scene_path).prefix(4)
        for k in range(4):
            single = tmp_path / f"single_{k}.csv"
            policy = PipelinePolicy(weights, config, mode="sample", seed=11 + k)
            write_trajectory_csv(single, rollout(history, policy, 5))
            assert (tmp_path / "k4" / f"trajectories_{k:02d}.csv").read_bytes() == (
                single.read_bytes()), k

    @pytest.mark.parametrize("value, column", [(np.nan, 0), (-1.0, 3)])
    def test_a_malformed_step_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                    value, column):
        def corrupted(states, controls, dt):
            out = advance_states(states, controls, dt)
            out[..., 1, column] = value
            return out

        monkeypatch.setattr(pipeline, "advance_states", corrupted)
        scene_path = self.write_scene(tmp_path)
        code = main(["rollout", "--scene", str(scene_path), "--horizon", "3", "--prefix", "4",
                     "--samples", "2", "--out", str(tmp_path / "roll")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: agent "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        {"policy": "constant", "mode": "bogus"},
        {"policy": "bogus"},
        {"mode": "bogus"},
        {"policy": ["pipeline"]},
    ])
    def test_unknown_policy_or_mode_exits_2_before_any_output(self, tmp_path, capsys,
                                                               monkeypatch, payload):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        assert main(["rollout", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "rollout-out").exists()

    def test_synthetic_scene_from_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "synthetic": {"kind": "constant-velocity", "n_agents": 3, "n_steps": 12},
            "horizon": 4,
        }))
        out = tmp_path / "roll"
        assert main(["rollout", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "trajectories_00.csv").exists()


_GRID = {"n_heads": [4], "d_k": [32], "d_v": [64]}


@pytest.mark.parametrize("command, payload, key", [
    pytest.param("rollout", {"horizon": "16"}, "horizon", id="rollout-horizon"),
    pytest.param("rollout", {"samples": 1.5}, "samples", id="rollout-samples"),
    pytest.param("rollout", {"seed": "x"}, "seed", id="rollout-seed"),
    pytest.param("rollout", {"seed": -1}, "seed", id="rollout-negative-seed"),
    pytest.param("rollout", {"d_model": "64"}, "d_model", id="rollout-d_model"),
    pytest.param("rollout", {"synthetic": []}, "synthetic", id="rollout-synthetic"),
    pytest.param("verify", {"trials": "5"}, "trials", id="verify-trials"),
    pytest.param("verify", {"seed": "x"}, "seed", id="verify-seed"),
    pytest.param("verify", {"d_k_values": 3}, "d_k_values", id="verify-d_k_values"),
    pytest.param("verify", {"d_k_values": []}, "d_k_values", id="verify-empty-d_k_values"),
    pytest.param("verify", {"d_k_values": [-1]}, "d_k_values", id="verify-negative-d_k_values"),
    pytest.param("verify", {"d_k_values": [0]}, "d_k_values", id="verify-zero-d_k_values"),
    pytest.param("profile", {"grid": {"n_tokens": ["a"], **_GRID}}, "n_tokens",
                 id="profile-grid"),
    pytest.param("profile", {"grid": {"n_tokens": [0], **_GRID}}, "n_tokens",
                 id="profile-zero-n_tokens"),
    pytest.param("profile", {"variants": "plain"}, "variants", id="profile-variants"),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, command, payload, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b"[" * 200_000, id="nested-too-deep"),
])
@pytest.mark.parametrize("command, flag", [
    ("verify", "--config"), ("profile", "--config"), ("rollout", "--scene")])
def test_an_unreadable_json_file_exits_2_with_one_line(tmp_path, capsys, command, flag,
                                                       content):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    code = main([command, flag, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert not out.exists()


def scene_payload(**changes):
    """A small valid scene file's JSON payload, with top-level keys replaced."""
    payload = {
        "dt": 0.5,
        "agents": [{"states": [[float(t), 0.5 * i, 0.0, 2.0] for t in range(4)]}
                   for i in range(2)],
        "map": [{"points": [[0.0, 0.0], [5.0, 0.0], [10.0, 1.0]]}],
    }
    payload.update(changes)
    return payload


OVERFLOWING_STATE = scene_payload(agents=[
    {"states": [[1e308, -1e308, 0.0, 1e308]] + [[float(t), 0.0, 0.0, 2.0] for t in range(1, 4)]},
    {"states": [[float(t), 1.0, 0.0, 2.0] for t in range(4)]},
])
HUGE_GRID = {"n_tokens": [4294967296], "n_heads": [256], "d_k": [65536], "d_v": [65536]}


@pytest.mark.parametrize("argv", [
    pytest.param(["--config", "nul.json"], id="config-scene"),
    pytest.param(["--config", "a\0b"], id="config"),
    pytest.param(["--scene", "a\0b"], id="scene"),
    pytest.param(["--out", "a\0b", "--horizon", "2"], id="out"),
])
def test_a_path_with_a_nul_byte_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "nul.json").write_text(json.dumps({"scene": "a\0b"}))
    monkeypatch.chdir(tmp_path)
    code = main(["rollout", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert [path.name for path in tmp_path.iterdir()] == ["nul.json"]


@pytest.mark.parametrize("command, work", [
    ("rollout", "rollout_samples"), ("verify", "run_verification"), ("profile", "sweep"),
])
def test_an_out_path_under_a_regular_file_exits_2_before_the_work(tmp_path, capsys, monkeypatch,
                                                                  command, work):
    (tmp_path / "file").write_text("")

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(cli, work, never)
    code = main([command, "--out", str(tmp_path / "file" / "sub")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("payload", [
    pytest.param(scene_payload(dt="0.5"), id="string-dt"),
    pytest.param(scene_payload(dt=True), id="boolean-dt"),
    pytest.param(scene_payload(agents=[
        {"states": [["0.0", 0.0, 0.0, 2.0]] + [[float(t), 0.0, 0.0, 2.0] for t in range(1, 4)]},
        {"states": [[float(t), 1.0, 0.0, 2.0] for t in range(4)]},
    ]), id="string-state"),
])
def test_a_scene_number_that_is_not_a_json_number_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = main(["rollout", "--scene", str(path), "--horizon", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert not out.exists()


def run_cli(argv, cwd, address_space=None):
    """``drope-bench`` in a fresh interpreter, so that its warnings reach stderr;
    ``address_space`` caps the child's virtual memory in bytes."""
    src = str(Path(drope.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = None
    if address_space is not None:
        # BLAS reserves address space per thread: one thread leaves the cap to the program
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-m", "drope.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)


class TestArithmeticErrors:
    """An overflow or invalid value on extreme inputs ends with one error line."""

    @pytest.mark.parametrize("command, file, payload, flags", [
        pytest.param("rollout", "scene", scene_payload(dt=1e300), [], id="rollout-huge-dt"),
        pytest.param("rollout", "scene", OVERFLOWING_STATE, ["--variant", "rpe"],
                     id="rollout-rpe-huge-state"),
        pytest.param("profile", "config", {"grid": HUGE_GRID}, [], id="profile-huge-grid"),
    ])
    def test_exits_2_without_traceback_or_runtime_warning(self, tmp_path, command, file,
                                                          payload, flags):
        path = tmp_path / f"{file}.json"
        path.write_text(json.dumps(payload))
        proc = run_cli([command, f"--{file}", str(path), *flags, "--out", str(tmp_path / "out")],
                       tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, proc.stderr


class TestSizesBeyondMemory:
    """Sizes that fit 64 bits but not memory, and a scene without steps, end
    with exit 2 and one error line. Each runs in a child capped at 2 GiB of
    address space, so an allocation that escapes the checks fails there."""

    @pytest.mark.parametrize("command, payload", [
        pytest.param("rollout", {"d_model": 2**62}, id="d_model-beyond-address-space"),
        pytest.param("rollout", {"d_model": 2**40}, id="d_model-beyond-memory"),
        pytest.param("rollout", {"synthetic": {"n_steps": 10**8}}, id="n_steps-beyond-memory"),
        pytest.param("rollout", {"synthetic": {"n_steps": 2**62}},
                     id="n_steps-beyond-address-space"),
        pytest.param("verify", {"d_k_values": [2**40]}, id="d_k-beyond-memory"),
        pytest.param("verify", {"d_k_values": [2**62]}, id="d_k-beyond-address-space"),
        pytest.param("verify", {"trials": 2**62}, id="trials-beyond-address-space"),
        pytest.param("rollout", {"horizon": 2**62}, id="horizon-beyond-address-space"),
        pytest.param("rollout", {"synthetic": {"kind": "constant-velocity", "n_steps": 0}},
                     id="constant-velocity-without-steps"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, command, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        proc = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")],
                       tmp_path, address_space=2 << 30)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr

    @pytest.mark.parametrize("argv", [["verify", "--trials", str(2**62)],
                                      ["rollout", "--horizon", str(2**62)],
                                      ["rollout", "--samples", str(2**62)]])
    def test_flags_beyond_address_space_exit_2_with_one_error_line(self, tmp_path, argv):
        proc = run_cli([*argv, "--out", str(tmp_path / "out")], tmp_path, address_space=2 << 30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert "cannot be allocated" in proc.stderr
        if argv[0] == "rollout":
            assert not (tmp_path / "out").exists()

    def test_a_huge_block_count_fails_before_drawing_any_block(self, tmp_path):
        # every block's weights are allocated before any is drawn, so the size fails at once
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_blocks": 2**40}))
        start = time.perf_counter()
        proc = run_cli(["rollout", "--config", str(path), "--out", str(tmp_path / "out")],
                       tmp_path, address_space=2 << 30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert elapsed < 3.0, elapsed


#: Valid configs per command, each run in well under a second. A "scene"
#: holding a JSON object stands for a scene file with that payload.
VALID_CONFIGS = {
    "verify": [
        {"trials": 20, "seed": 3, "d_k_values": [1, 2, 8]},
        {"trials": 50, "fault_inject": "rope-freqs-in-fangle", "d_k_values": [2]},
    ],
    "profile": [
        {"grid": {"n_tokens": [4, 8], "n_heads": [2], "d_k": [2, 4], "d_v": [4]},
         "variants": ["plain", "rpe", "drope-hbh"]},
        {"variants": ["rope", "drope-ih"]},
    ],
    "rollout": [
        {"synthetic": {"kind": "random", "n_agents": 2, "n_steps": 6, "dt": 0.5, "seed": 1},
         "horizon": 4, "samples": 2, "mode": "sample", "variant": "drope-ih", "seed": 2},
        {"synthetic": {"kind": "constant-velocity", "n_agents": 3, "n_steps": 4},
         "horizon": 3, "policy": "constant", "prefix_steps": 2},
        {"scene": scene_payload(), "horizon": 2, "variant": "rpe", "d_model": 16,
         "n_heads": 2, "d_k": 2, "d_v": 4, "n_blocks": 1},
    ],
}

# small or unconvertible integers only: a mid-sized one (a d_model of 10**5,
# say) would be a valid request for more memory than a test may take
_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
    | st.sampled_from(["plain", "rpe", "drope-hbh", "sample", "constant", "random"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=2),
    max_leaves=4,
)


def _mutated(draw, config, known):
    """``config`` with one key, at any depth, replaced by a JSON value or dropped."""
    keys = sorted(set(config) | known)
    if not keys:
        return
    key = draw(st.sampled_from(keys))
    if isinstance(config.get(key), dict) and draw(st.booleans()):
        _mutated(draw, config[key], set())
    elif key in config and not draw(st.integers(0, 3)):
        del config[key]
    else:
        config[key] = draw(_values)


@st.composite
def _cli_configs(draw):
    command = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    config = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS[command])))
    known = {key for valid in VALID_CONFIGS[command] for key in valid}
    for _ in range(draw(st.integers(0, 3))):
        _mutated(draw, config, known)
    return command, config


#: A valid 64-bit config integer that numpy cannot address as an array size,
#: so a run given it as a trial count or horizon fails before any allocation.
UNADDRESSABLE = 2**62


@settings(max_examples=150, deadline=None)
@given(_cli_configs())
@example(("rollout", {"scene": scene_payload(dt=1e300), "horizon": 4}))
@example(("rollout", {"scene": OVERFLOWING_STATE, "horizon": 4, "variant": "rpe"}))
@example(("profile", {"grid": HUGE_GRID}))
@example(("rollout", {"d_model": 10**400, "horizon": 2}))   # no array has that many rows
@example(("rollout", {"d_v": 0}))
@example(("rollout", {"d_v": -1}))
@example(("rollout", {"n_heads": 0, "variant": "plain"}))
@example(("rollout", {"d_k": -4}))
@example(("verify", {"trials": UNADDRESSABLE}))
@example(("rollout", {"horizon": UNADDRESSABLE}))
def test_generated_configs_exit_0_1_or_2_with_one_error_line(tmp_path_factory, case):
    command, config = case
    out = tmp_path_factory.mktemp("cli")
    if isinstance(config.get("scene"), dict):
        (out / "scene.json").write_text(json.dumps(config["scene"]))
        config["scene"] = str(out / "scene.json")
    (out / "config.json").write_text(json.dumps(config))
    stderr = io.StringIO()
    with (contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)   # numpy's overflow warnings
        code = main([command, "--config", str(out / "config.json"), "--out", str(out / "out")])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: Flags with the values the fuzz gives them: integers from small ranges only
#: or too large to address, non-integers and unknown choices. "<scene>" and
#: "<config>" stand for files.
_INTS = st.integers(-2, 6).map(str)
_BAD_INTS = st.sampled_from(["", "x", "1.5", "0x10", "--"])
_UNADDRESSABLE = st.just(str(UNADDRESSABLE))
_FLAG_VALUES = {
    "--seed": _INTS | _BAD_INTS,
    "--trials": _INTS | _BAD_INTS | _UNADDRESSABLE,
    "--horizon": _INTS | _BAD_INTS | _UNADDRESSABLE,
    "--prefix": _INTS | _BAD_INTS,
    "--samples": _INTS | _BAD_INTS,
    "--policy": st.sampled_from(["pipeline", "constant", "greedy"]),
    "--mode": st.sampled_from(["greedy", "sample", "beam"]),
    "--variant": st.sampled_from(["plain", "rpe", "rope", "drope-hbh", "drope-ih", "alibi"]),
    "--fault-inject": st.sampled_from(["rope-freqs-in-fangle", "none"]),
    "--scene": st.sampled_from(["<scene>", "missing.json"]),
    "--config": st.sampled_from(["<config>", "missing.json"]),
}


@st.composite
def _flag_tokens(draw):
    """One flag with a value, a known flag missing its value, an unknown flag
    or a stray word."""
    flag = draw(st.sampled_from(sorted(_FLAG_VALUES)))
    form = draw(st.integers(0, 9))
    if form == 0:
        return [flag]
    if form == 1:
        return [draw(st.sampled_from(["--nope", "-x", "--trial", "stray"]))]
    return [flag, draw(_FLAG_VALUES[flag])]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["verify", "profile", "rollout", "bogus"]),
       st.lists(_flag_tokens(), max_size=4))
@example("rollout", [["--horizon"]])
@example("verify", [["--trials", "0"]])
@example("rollout", [["--prefix", "x"]])
def test_generated_argv_exit_0_1_or_2_with_one_error_line(tmp_path_factory, command, flags):
    out = tmp_path_factory.mktemp("argv")
    files = {"<scene>": out / "scene.json", "<config>": out / "config.json"}
    save_scene(make_constant_velocity_scene(seed=1, n_steps=6), files["<scene>"])
    files["<config>"].write_text("{}")
    argv = [command, "--out", str(out / "out"),
            *(str(files.get(token, token)) for group in flags for token in group)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err

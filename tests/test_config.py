"""Configuration loading, defaults, overrides, and strict validation."""

import json

import numpy as np
import pytest

from fvmnet.config import (
    DEFAULTS,
    InitialCondition,
    apply_override,
    default_tree,
    load_config,
    resolve_config,
)
from fvmnet.errors import ArtifactIOError, ConfigurationError
from fvmnet.network import CASES
from fvmnet.solver import stability_numbers


def test_defaults_resolve_to_the_reference_experiment():
    cfg = load_config()
    assert (cfg.grid.m, cfg.grid.n) == (96, 24)
    assert cfg.partition.m_star == 16
    assert cfg.partition.flame == (16, 80)
    assert cfg.recipe.spec.hidden == CASES["c"].hidden == (64, 64, 64)
    assert cfg.recipe.spec.activation == CASES["c"].activation
    assert cfg.recipe.spec.n_inputs == 30
    assert cfg.recipe.train.learning_rate == 0.001
    assert cfg.recipe.train.batch_size == 128
    assert cfg.rollout_horizon == 10
    assert cfg.macnet.cfd_window == 2
    assert cfg.macnet.tolerance == 5.0
    assert cfg.macnet.horizon == 40
    assert cfg.params.wall_temperature == 300.0
    assert cfg.seed == 0 and not hasattr(cfg.recipe.train, "seed")
    assert cfg.recipe.layout.wall_values is None
    assert cfg.macnet.recipe is cfg.recipe


def test_default_initial_state_respects_stability_gates():
    cfg = load_config()
    snap = cfg.initial_snapshot()
    cfl, diffusion = stability_numbers(snap, cfg.grid, cfg.params)
    assert cfl <= 0.5 and diffusion <= 0.25
    assert snap.var("T").max() <= 1200.0
    assert snap.var("T").min() >= 300.0
    assert np.all(snap.var("X_fuel") == 0.08)
    assert np.all(snap.var("X_ox") == 0.2)
    assert np.all(snap.var("X_prod") == 0.0)


def test_initial_velocity_profiles():
    cfg = load_config()
    snap = cfg.initial_snapshot()
    vx = snap.var("v_x")
    vr = snap.var("v_r")
    # Parabolic: fastest at the axis, slowest at the wall, one column profile.
    assert np.all(vx[:, 0] == vx[0, 0])
    assert np.all(np.diff(vx[0, :]) < 0)
    assert vx.max() <= 0.25
    # Radial profile vanishes toward axis and wall, peaks between.
    peak = vr[0].argmax()
    assert 0 < peak < cfg.grid.n - 1
    assert vr.min() >= 0.0 and vr.max() <= 0.02


def test_unknown_section_and_key_are_named(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown config section 'grids'"):
        resolve_config_from({"grids": {"m": 4}})
    with pytest.raises(ConfigurationError, match="unknown config key macnet.tol"):
        resolve_config_from({"macnet": {"tol": 3}})


def resolve_config_from(user):
    from fvmnet.config import merge_tree

    return resolve_config(merge_tree(default_tree(), user))


def test_null_required_field_reports_missing():
    with pytest.raises(ConfigurationError, match="macnet.tolerance is missing"):
        resolve_config_from({"macnet": {"tolerance": None}})
    with pytest.raises(ConfigurationError, match="grid.dt is missing"):
        resolve_config_from({"grid": {"dt": None}})


def test_nullable_wall_temperature():
    cfg = resolve_config_from({"physical": {"wall_temperature": None}})
    assert cfg.params.wall_temperature is None


def test_type_errors_name_the_field():
    with pytest.raises(ConfigurationError, match="grid.m must be an integer"):
        resolve_config_from({"grid": {"m": 4.5}})
    with pytest.raises(ConfigurationError, match="macnet.retrain must be a string"):
        resolve_config_from({"macnet": {"retrain": 7}})
    with pytest.raises(ConfigurationError, match="macnet.tolerance must be a number"):
        resolve_config_from({"macnet": {"tolerance": "soon"}})
    with pytest.raises(ConfigurationError, match="dataset.wall_values must be a list of numbers"):
        resolve_config_from({"dataset": {"wall_values": 300.0}})
    for bad in ([0.0] * 5, [0.0] * 7):
        with pytest.raises(ConfigurationError, match=f"wall_values must hold 6 numbers, got {len(bad)}"):
            resolve_config_from({"dataset": {"wall_values": bad}})
    with pytest.raises(ConfigurationError, match=r"dataset.wall_values\[2\] must be a number"):
        resolve_config_from({"dataset": {"wall_values": [0, 0, "hot", 0, 0, 0]}})
    for bad in ("[0,0,1e999,0,0,0.2]", '[0,0,"-inf",0,0,0.2]'):
        tree = default_tree()
        apply_override(tree, f"dataset.wall_values={bad}")
        with pytest.raises(ConfigurationError, match="wall_values must be finite"):
            resolve_config(tree)
    walled = resolve_config_from({"dataset": {"wall_values": [0, 0, 300, 0, 0, 0.2]}})
    assert walled.recipe.layout.wall_values == (0.0, 0.0, 300.0, 0.0, 0.0, 0.2)


def test_enum_fields_are_validated():
    for section, key, bad in (
        ("dataset", "input_mode", "everything"),
        ("dataset", "output_mode", "rate"),
        ("macnet", "retrain", "sometimes"),
        ("network", "activation", "tanh"),
        ("physical", "axial_bc", "periodic"),
    ):
        with pytest.raises(ConfigurationError, match=f"{key} must be one of"):
            resolve_config_from({section: {key: bad}})


def test_network_hidden_and_activation_set_the_spec():
    for bad in ([], 64, "64", {"hidden": [8]}):
        with pytest.raises(ConfigurationError, match="network.hidden must be a non-empty list"):
            resolve_config_from({"network": {"hidden": bad}})
    for bad, message in (
        ([16, 0], r"hidden widths must be >= 1, got \(16, 0\)"),
        ([16, -8], r"hidden widths must be >= 1, got \(16, -8\)"),
        ([8.0], r"network.hidden\[0\] must be an integer"),
        ([True], r"network.hidden\[0\] must be an integer"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            resolve_config_from({"network": {"hidden": bad}})
    with pytest.raises(ConfigurationError, match="network.hidden is missing"):
        resolve_config_from({"network": {"hidden": None}})
    with pytest.raises(ConfigurationError, match="unknown config key network.case"):
        resolve_config_from({"network": {"case": "c"}})
    cfg = resolve_config_from({"network": {"hidden": [16, 8], "activation": "sigmoid"}})
    assert cfg.recipe.spec.hidden == (16, 8)
    assert cfg.recipe.spec.activation == "sigmoid"
    assert cfg.tree["network"] == {"hidden": [16, 8], "activation": "sigmoid"}
    assert load_config().recipe.spec == CASES["c"]


def test_center_mode_resizes_network_inputs():
    cfg = resolve_config_from({"dataset": {"input_mode": "center"}})
    assert cfg.recipe.spec.n_inputs == 6
    assert cfg.macnet.recipe.spec.n_inputs == 6


def test_range_checks():
    with pytest.raises(ConfigurationError, match=r"split_fraction must be in \(0, 1\)"):
        resolve_config_from({"dataset": {"split_fraction": 1.0}})
    with pytest.raises(ConfigurationError, match="train_window"):
        resolve_config_from({"dataset": {"train_window": 0}})
    with pytest.raises(ConfigurationError, match="burn_in"):
        resolve_config_from({"generate": {"burn_in": -1}})
    with pytest.raises(ConfigurationError, match="rollout.horizon"):
        resolve_config_from({"rollout": {"horizon": 0}})
    for section, key in (
        ("train", "batch_size"),
        ("train", "max_epochs"),
        ("train", "patience"),
        ("macnet", "cfd_window"),
        ("macnet", "max_ml_steps"),
    ):
        with pytest.raises(ConfigurationError, match=f"{key} must be >= 1"):
            resolve_config_from({section: {key: 0}})
    # NaN fails every range check it meets, so it is refused as "not a number".
    for override in (
        "initial.vx_max=nan", "physical.heat_release=NaN", "train.learning_rate=nan",
        "train.min_delta=nan", "physical.diffusivity.T=nan",
    ):
        tree = default_tree()
        apply_override(tree, override)
        path = override.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"{path} must be a number, got"):
            resolve_config(tree)
    for value in (-1, 0.0, float("inf")):
        with pytest.raises(ConfigurationError, match="learning_rate must be finite and > 0"):
            resolve_config_from({"train": {"learning_rate": value}})


def test_overrides_parse_json_then_fall_back_to_strings():
    tree = default_tree()
    apply_override(tree, "macnet.tolerance=2.5")
    apply_override(tree, "network.hidden=[64]")
    apply_override(tree, "seed=11")
    apply_override(tree, "physical.wall_temperature=null")
    cfg = resolve_config(tree)
    assert cfg.macnet.tolerance == 2.5
    assert cfg.recipe.spec.hidden == CASES["a"].hidden
    assert cfg.recipe.spec.activation == CASES["a"].activation
    assert cfg.seed == 11 and cfg.recipe == load_config(overrides=["network.hidden=[64]"]).recipe
    assert cfg.params.wall_temperature is None


def test_override_accepts_inf():
    tree = default_tree()
    apply_override(tree, "macnet.tolerance=inf")
    assert resolve_config(tree).macnet.tolerance == float("inf")


def test_bad_overrides_are_rejected():
    tree = default_tree()
    with pytest.raises(ConfigurationError, match="section.key=value"):
        apply_override(tree, "justakey")
    with pytest.raises(ConfigurationError, match="unknown config key grid.q"):
        apply_override(tree, "grid.q=1")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        apply_override(tree, "nope.x=1")
    with pytest.raises(ConfigurationError, match="no sub-keys"):
        apply_override(tree, "seed.deep=1")


def test_file_and_override_share_the_unknown_name_errors(tmp_path):
    for user, override in (
        ({"grids": {"m": 4}}, "grids.m=4"),
        ({"macnet": {"tol": 3}}, "macnet.tol=3"),
        ({"network": {"case": "c"}}, "network.case=c"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(user))
        with pytest.raises(ConfigurationError) as from_file:
            load_config(str(path))
        with pytest.raises(ConfigurationError) as from_flag:
            load_config(overrides=[override])
        assert str(from_file.value) == str(from_flag.value)
        assert str(from_file.value).startswith("unknown config ")


def test_file_diffusivity_replaces_the_mapping_and_override_edits_one_entry(tmp_path):
    default = DEFAULTS["physical"]["diffusivity"]
    cfg = load_config(overrides=["physical.diffusivity.T=1e-5"])
    assert cfg.params.diffusivity == {**default, "T": 1e-5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"physical": {"diffusivity": {"T": 1e-5}}}))
    with pytest.raises(ConfigurationError, match="diffusivity missing entries"):
        load_config(str(path))
    path.write_text(json.dumps({"physical": {"diffusivity": {**default, "T": 1e-5}}}))
    assert load_config(str(path)).params == cfg.params


def test_config_file_merges_and_bad_files_are_reported(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"m": 48}, "seed": 9}))
    cfg = load_config(str(path))
    assert cfg.grid.m == 48
    assert cfg.grid.n == 24
    assert cfg.seed == 9

    with pytest.raises(ArtifactIOError, match="config file not found"):
        load_config(str(tmp_path / "absent.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(str(bad))

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_config(str(arr))


def test_initial_condition_validation():
    with pytest.raises(ConfigurationError, match="initial.fuel"):
        InitialCondition(
            temperature=300.0, blob_peak=1200.0, blob_center_x=0.25,
            blob_center_r=0.0, blob_sigma_x=0.08, blob_sigma_r=0.25,
            fuel=1.5, oxidizer=0.2, product=0.0, vx_max=0.25, vr_max=0.02,
        )
    with pytest.raises(ConfigurationError, match="blob_peak"):
        resolve_config_from({"initial": {"temperature": 2000.0}})


def test_diffusivity_rejects_velocity_entries():
    with pytest.raises(ConfigurationError, match="diffusivity given for non-transported variable 'v_x'"):
        resolve_config_from({"physical": {"diffusivity": {"v_x": 1e-5}}})


def test_effective_tree_round_trips():
    cfg = load_config()
    again = resolve_config(json.loads(json.dumps(cfg.tree)))
    assert again.grid == cfg.grid
    assert again.recipe == cfg.recipe
    assert again.macnet == cfg.macnet
    assert json.dumps(again.tree, sort_keys=True) == json.dumps(
        cfg.tree, sort_keys=True
    )
    assert cfg.tree["grid"]["m"] == DEFAULTS["grid"]["m"]

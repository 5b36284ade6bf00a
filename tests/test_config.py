"""Flat key = value config files: parsing, typing, path resolution."""

from dataclasses import asdict

import pytest

from biasgrid.classifier import TrainHyper
from biasgrid.config import OWNED, SCHEMA, default_config, load_config
from biasgrid.errors import ConfigError
from biasgrid.loop import LoopConfig
from biasgrid.sampler import WEIGHT_MODES
from biasgrid.synth import CorpusSpec


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_defaults_mirror_the_dataclass_defaults():
    cfg = default_config()
    assert cfg.corpus_spec() == CorpusSpec()
    assert cfg.train_hyper() == TrainHyper()
    assert cfg.loop_config() == LoopConfig()


def _other_value(kind, default):
    """A value of the given kind that differs from default."""
    if kind == "int":
        return 3 if default is None else default + 1
    if kind == "float":
        return default / 2 if default else 0.5
    if kind == "float_list":
        return (1e-3, 1e-4)
    return next(mode for mode in WEIGHT_MODES if mode != default)


BUILDERS = {CorpusSpec: "corpus_spec", TrainHyper: "train_hyper", LoopConfig: "loop_config"}


@pytest.mark.parametrize("key", sorted(OWNED))
def test_each_owned_key_sets_its_own_field_and_no_other(key):
    kind, owner, name = OWNED[key]
    # the key names its field: corpus.n_val -> n_val, grid.rows -> grid_rows
    assert key.replace(".", "_").endswith(name)
    value = _other_value(kind, SCHEMA[key][1])
    cfg = default_config()
    cfg.override(key, value)
    before = asdict(getattr(default_config(), BUILDERS[owner])())
    after = asdict(getattr(cfg, BUILDERS[owner])())
    assert {f: v for f, v in after.items() if v != before[f]} == {name: value}


def test_parse_types_comments_and_blank_lines(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            """
            # full run configuration
            seed = 7
            run.name = exp-a

            corpus.n_train = 50
            corpus.train_complexion_mix = 0.5
            train.l2 = 1e-3
            loop.lr_schedule = 1e-4, 5e-5, 1e-5
            paths.train_manifest = data/train.jsonl
            """,
        )
    )
    assert cfg["seed"] == 7
    assert cfg["run.name"] == "exp-a"
    assert cfg["corpus.n_train"] == 50
    assert cfg["corpus.train_complexion_mix"] == 0.5
    assert cfg["train.l2"] == 1e-3
    assert cfg["loop.lr_schedule"] == (1e-4, 5e-5, 1e-5)
    assert cfg["paths.train_manifest"] == (tmp_path / "data" / "train.jsonl").resolve()
    # untouched keys keep their defaults
    assert cfg["corpus.n_val"] == SCHEMA["corpus.n_val"][1]


def test_settings_flow_into_dataclasses(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "seed = 9\n"
            "corpus.noise_sigma = 0.2\n"
            "train.learning_rate = 0.01\n"
            "loop.weight_mode = success\n"
            "loop.m = 2\n"
            "render.alpha = 0.5\n",
        )
    )
    assert cfg.corpus_spec().noise_sigma == 0.2
    assert cfg.corpus_spec().master_seed == 9
    hyper = cfg.train_hyper()
    assert hyper.learning_rate == 0.01
    assert hyper.seed == 9
    assert cfg.train_hyper(seed=1).seed == 1
    loop_cfg = cfg.loop_config()
    assert loop_cfg.weight_mode == "success"
    assert loop_cfg.m == 2
    assert loop_cfg.alpha == 0.5
    assert loop_cfg.seed == 9


def test_unknown_key_reports_line_number(tmp_path):
    path = write(tmp_path, "seed = 1\ncorpus.n_trian = 5\n")
    with pytest.raises(ConfigError, match="line 2: unknown config key 'corpus.n_trian'"):
        load_config(path)


def test_duplicate_key_reports_both_lines(tmp_path):
    path = write(tmp_path, "seed = 1\n\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 3: key 'seed' already set on line 1"):
        load_config(path)


def test_unparseable_value_reports_key_and_kind(tmp_path):
    path = write(tmp_path, "corpus.n_train = many\n")
    with pytest.raises(ConfigError, match="cannot parse 'many' as int"):
        load_config(path)
    path = write(tmp_path, "train.l2 = inf\n")
    with pytest.raises(ConfigError, match="as float"):
        load_config(path)
    path = write(tmp_path, "loop.lr_schedule = ,\n")
    with pytest.raises(ConfigError, match="as float_list"):
        load_config(path)
    for listed in ("nan, 1e-4", "1e-4, inf", "-inf"):
        path = write(tmp_path, f"loop.lr_schedule = {listed}\n")
        with pytest.raises(ConfigError, match=r"as float_list \(not finite\)"):
            load_config(path)


def test_line_without_equals_is_rejected(tmp_path):
    path = write(tmp_path, "seed: 4\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_override_checks_the_schema():
    cfg = default_config()
    cfg.override("seed", 5)
    assert cfg["seed"] == 5
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg.override("no.such.key", 1)


def test_every_schema_key_has_a_kind_and_default():
    for key, (kind, _) in SCHEMA.items():
        assert kind in {"int", "float", "str", "path", "float_list"}, key

"""Shared fixtures: the synthetic text scene, its patch database and the
two `verify` runs that the CLI, battery and determinism tests all read."""

import contextlib
import io

import numpy as np
import pytest

from patchdenoise import build_database, synthetic
from patchdenoise.cli import main

SCENE_SEED = 7
DB_STRIDE = 2


@pytest.fixture(scope="session")
def corpus():
    clean, pages = synthetic.make_corpus(SCENE_SEED)
    return clean, pages


@pytest.fixture(scope="session")
def clean_scene(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def scene_db(corpus):
    _, pages = corpus
    return build_database(pages, 8, DB_STRIDE)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def _verify_cli(path, *flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *flags, "--json", str(path)])
    return code, out.getvalue(), path.read_bytes()


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    """`verify --json` and `verify --seed 0 --json`: (exit code, stdout, JSON
    bytes) each. Two full runs of the battery, so reruns can be compared."""
    tmp = tmp_path_factory.mktemp("verify")
    return _verify_cli(tmp / "default.json"), _verify_cli(tmp / "seed0.json",
                                                          "--seed", "0")

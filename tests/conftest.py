"""Shared fixtures: the synthetic text scene, its patch database and the
two `verify` runs that the CLI, battery and determinism tests all read."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchdenoise
from patchdenoise import build_database, database, synthetic
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


@pytest.fixture()
def screen_builds(monkeypatch):
    """The database of every screen index built from here on, in order."""
    built, build = [], database.screen_index
    monkeypatch.setattr(database, "screen_index",
                        lambda db: built.append(db) or build(db))
    return built


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


@pytest.fixture()
def fresh_python():
    """Run a script in a new interpreter that imports this patchdenoise, with
    extra environment variables; returns its stdout. A nonzero exit fails."""
    src = str(Path(patchdenoise.__file__).resolve().parent.parent)

    def run(script, *args, **env):
        env = {**os.environ, **env}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, check=True).stdout

    return run

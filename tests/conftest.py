import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import wmsdspace
from wmsdspace.cli import main as cli_main, parse_config, read_matrix

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_python(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter that imports this checkout's
    package, with buffered standard streams; output is captured as bytes."""
    src = str(Path(wmsdspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, timeout=60)


def fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this
    checkout's package."""
    result = run_python("-c", code)
    result.check_returncode()
    return result.stdout.decode()


def load_config(name):
    return parse_config((FIXTURES / name).read_text())


def load_matrix(csv_name, config):
    return read_matrix((FIXTURES / csv_name).read_text(), config)


@pytest.fixture(scope="session")
def students_config():
    return load_config("students_config.json")


@pytest.fixture(scope="session")
def students_equal_config():
    return load_config("students_config_equal.json")


@pytest.fixture(scope="session")
def students_matrix(students_config):
    return load_matrix("students.csv", students_config)


@pytest.fixture(scope="session")
def countries_configs():
    return {name: load_config(f"countries_{name}.json")
            for name in ("w1", "w2", "w3", "w4")}


@pytest.fixture(scope="session")
def countries_matrix(countries_configs):
    return load_matrix("countries.csv", countries_configs["w1"])


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*args):
        code = cli_main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def random_weight_vectors(rng, count, n_range=(2, 10)):
    """Random valid raw weight lists, some containing zeros."""
    out = []
    for _ in range(count):
        n = rng.integers(n_range[0], n_range[1] + 1)
        w = rng.random(n)
        zeros = rng.random(n) < 0.15
        if zeros.all():
            zeros[rng.integers(n)] = False
        w[zeros] = 0.0
        out.append(w)
    return out

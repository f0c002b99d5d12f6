import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import wmsdspace
from wmsdspace import geometry
from wmsdspace.aggregate import agg_values
from wmsdspace.cli import main as cli_main, parse_config, read_matrix
from wmsdspace.geometry import EXACT_LIMIT
from wmsdspace.wmsd import plane

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def python_env(unbuffered: bool = False) -> dict:
    """The environment of a new interpreter that imports this checkout's
    package, with buffered standard streams unless ``unbuffered``."""
    src = str(Path(wmsdspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_python(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter that imports this checkout's
    package, with buffered standard streams; output is captured as bytes."""
    return subprocess.run([sys.executable, *map(str, args)], env=python_env(),
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
def fresh_tables():
    """The edge-table cache, empty at the start and the end of the test:
    the cache is process-wide, so builds and hits counted through it
    then count the test's own calls alone."""
    geometry._cached_tables.cache_clear()
    yield geometry._cached_tables
    geometry._cached_tables.cache_clear()


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


def plane_scores(kind, v, w):
    """The library's scores of weighted rows ``v``: each row's (WM, WSD)
    point, aggregated."""
    return agg_values(kind, *plane(v, w), w.mean_w)


def projection(v, w):
    """Textbook split of each weighted row of ``v``: its projection onto
    ``w`` and the rejection from it, whose lengths divided by ``s`` are the
    row's (WM, WSD)."""
    proj = np.outer(v @ w.weights / (w.norm * w.norm), w.weights)
    return proj, v - proj


def box_distances(v, w):
    """Textbook (d_anti, d_ideal) of each weighted row: its distances to
    the anti-ideal 0 and to the ideal ``w``, measured in the weighted box
    and divided by ``s``."""
    v = np.asarray(v, dtype=float)
    return (np.linalg.norm(v, axis=1) / w.s,
            np.linalg.norm(v - w.weights, axis=1) / w.s)


def box_scores(kind, v, w):
    """Textbook TOPSIS I, A or R of each weighted row, from its box
    distances: the oracle for :func:`plane_scores`."""
    d_anti, d_ideal = box_distances(v, w)
    return {"I": 1.0 - d_ideal / w.mean_w, "A": d_anti / w.mean_w,
            "R": d_anti / (d_anti + d_ideal)}[str(kind)]


def reversal_ids(cmp, r1):
    """The reversal pairs of ``cmp``, a comparison against ``r1``, as
    (id, id) tuples."""
    return [(r1.ids[i], r1.ids[j]) for i, j in cmp.reversals.tolist()]


def uniform_utilities(n: int, count: int, rng: np.random.Generator,
                      bound_bias: float = 0.0) -> np.ndarray:
    """Random utility points, optionally biased toward the box corners.

    With ``bound_bias`` b, each coordinate is snapped to 0 or 1 with
    probability b each and drawn uniformly otherwise.  Used to exercise
    the envelope: corner-heavy samples reach the extreme configurations
    that define it.
    """
    u = rng.random((count, n))
    if bound_bias > 0.0:
        mode = rng.random((count, n))
        u = np.where(mode < bound_bias, 0.0, u)
        u = np.where(mode >= 1.0 - bound_bias, 1.0, u)
    return u


def edge_sweep_utilities(w, per_edge: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Jittered sweeps along every edge of the utility hypercube.

    For each edge (one free coordinate, the other active coordinates held
    at 0 or 1) the free coordinate takes ``per_edge`` stratified-random
    values, guaranteeing samples near every part of the envelope.
    Zero-weight coordinates are filled uniformly; they do not move the
    image.  Requires n_p within the exact-envelope cap.
    """
    active = np.flatnonzero(w.weights > 0)
    assert active.size <= EXACT_LIMIT, active.size
    rows = []
    for j in active:
        rest = [i for i in active if i != j]
        for mask in range(1 << len(rest)):
            u = rng.random((per_edge, w.n))  # zero-weight coords: any value
            for bit, i in enumerate(rest):
                u[:, i] = 1.0 if (mask >> bit) & 1 else 0.0
            u[:, j] = (np.arange(per_edge) + rng.random(per_edge)) / per_edge
            rows.append(u)
    return np.vstack(rows)


def exact_subset_sums(squares) -> list:
    """Every subset sum of ``squares`` as an exact ``Fraction``, one per
    subset (repeats kept)."""
    sums = [Fraction(0)]
    for s in squares:
        sums += [q + s for q in sums]
    return sums


def exact_squares(weights) -> list:
    """The squares of the positive float weights, rounded to floats as the
    geometry rounds them and then held exactly; a square that underflows
    to 0 is left out, as the geometry leaves it out."""
    return [Fraction(x * x) for x in sorted(map(float, weights)) if x * x > 0]


def exact_envelope_sq(weights, taus) -> list:
    """X(tau) = max |v|^2 / N - tau^2 over box points v with v . w = tau N,
    exactly, for each ``tau`` in [0, 1], a float or a ``Fraction``: the
    squared envelope in units of mean(w)^2 (N the full sum of the rounded
    squares).

    Brute force over every edge of the box (n_p at most 7): an edge holds
    the weights of a subset S of the others at their top, sum q, and
    frees one weight with square s, so along it v . w = q + a sqrt(s) and
    |v|^2 = q + a^2 for a in [0, sqrt(s)]; at v . w = c it takes
    |v|^2 = q + (c - q)^2 / s where q <= c <= q + s.
    """
    sq = exact_squares(weights)
    assert len(sq) <= 7
    n_total = sum(sq)
    edges = [(s, exact_subset_sums(sq[:j] + sq[j + 1:]))
             for j, s in enumerate(sq)]
    out = []
    for tau in taus:
        tau = Fraction(tau)
        c = tau * n_total
        best = max(q + (c - q) ** 2 / s for s, sums in edges for q in sums
                   if q <= c <= q + s)
        out.append(best / n_total - tau * tau)
    return out

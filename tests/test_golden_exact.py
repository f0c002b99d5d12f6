"""The golden tables are correct, not only unchanged.

Every numeric cell of ``fixtures/golden/students_transform.csv`` and of
the four ``countries_w*_rank.csv`` files is recomputed from the fixture
texts in 60-digit decimal arithmetic, with the textbook formulas in the
weighted box, and must equal that value correctly rounded (half-even) to
six places; ranks and groups must follow from the recomputed scores.
"""

import csv
import json
from decimal import Decimal, localcontext

import pytest

from conftest import FIXTURES

SIX = Decimal("0.000001")
GOLDEN = FIXTURES / "golden"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def exact_rows(data_name, config_name):
    """``(id, u, weights)`` of every data row, as decimals: utilities from
    the criteria domains and weights divided by their maximum."""
    config = json.loads((FIXTURES / config_name).read_text(),
                        parse_float=Decimal, parse_int=Decimal)
    crit = config["criteria"]
    top = max(c["weight"] for c in crit)
    weights = [c["weight"] / top for c in crit]
    header, *rows = read_csv(FIXTURES / data_name)
    assert header[1:] == [c["name"] for c in crit]
    out = []
    for pid, *cells in rows:
        u = []
        for c, x in zip(crit, map(Decimal, cells)):
            span = c["max"] - c["min"]
            u.append((c["max"] - x if c["kind"] == "cost" else x - c["min"])
                     / span)
        out.append((pid, u, weights))
    return config, out


def norm(x):
    return sum(a * a for a in x).sqrt()


def box_scores(v, w):
    """(I, A, R) of the weighted row ``v`` from its box distances."""
    d_anti, d_ideal = norm(v), norm([a - b for a, b in zip(v, w)])
    return (1 - d_ideal / norm(w), d_anti / norm(w),
            d_anti / (d_anti + d_ideal))


def plane_point(v, w):
    """(WM, WSD) of the weighted row ``v``: its projection on ``w`` and
    the rejection from it, divided by s = |w| / mean(w)."""
    mean_w = sum(w) / len(w)
    dot, w2 = sum(a * b for a, b in zip(v, w)), sum(b * b for b in w)
    rejection = [a - dot / w2 * b for a, b in zip(v, w)]
    return dot * mean_w / w2, norm(rejection) * mean_w / w2.sqrt()


def text(x):
    return str(x.quantize(SIX))


def test_students_transform_is_correctly_rounded():
    golden = read_csv(GOLDEN / "students_transform.csv")
    with localcontext() as ctx:
        ctx.prec = 60
        _, rows = exact_rows("students.csv", "students_config.json")
        expected = []
        for pid, u, w in rows:
            v = [a * b for a, b in zip(u, w)]
            ones = [Decimal(1)] * len(u)
            cells = (u + v + list(plane_point(u, ones))
                     + list(plane_point(v, w)) + list(box_scores(u, ones))
                     + list(box_scores(v, w)))
            expected.append([pid] + [text(x) for x in cells])
    assert len(expected) * (len(expected[0]) - 1) == 240
    assert golden[1:] == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_countries_ranks_are_correctly_rounded(k):
    golden = read_csv(GOLDEN / f"countries_w{k}_rank.csv")
    with localcontext() as ctx:
        ctx.prec = 60
        config, rows = exact_rows("countries.csv", f"countries_w{k}.json")
        assert config["aggregation"] == "R" and "weighted" not in config
        tolerance = Decimal(config.get("tie_tolerance", "1e-9"))
        scored = sorted(((box_scores([a * b for a, b in zip(u, w)], w)[2],
                          pid) for pid, u, w in rows),
                        key=lambda item: -item[0])
        expected, leader, rank, group = [], None, 0, 0
        for pos, (score, pid) in enumerate(scored, 1):
            if leader is None or leader - score > tolerance:
                leader, rank, group = score, pos, group + 1
            expected.append([pid, text(score), str(rank), str(group)])
    assert golden[1:] == expected

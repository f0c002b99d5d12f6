"""README "Library" examples run, the package exports what it says,
loading each name from its module on first use, and the README flag table
matches the CLI parser."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import wmsdspace
from conftest import FIXTURES, fresh_python
from wmsdspace import cli

README = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")


def section(title: str, level: str = "##") -> str:
    """The README text under the heading ``title``, up to the next heading
    of the same level."""
    start = README.index(f"\n{level} {title}\n")
    end = README.find(f"\n{level} ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def removed_names() -> list[str]:
    """The names in the first column of the "Removed names" table, each as
    a dotted path without its call arguments."""
    table = section("Removed names", "###")
    names = []
    for line in table.splitlines():
        if line.startswith("| `"):
            first = line.split("|")[1]
            names += re.findall(r"`([A-Za-z_][\w.]*)", first)
    return names


def package_modules():
    return [wmsdspace] + [
        importlib.import_module(f"wmsdspace.{info.name}")
        for info in pkgutil.iter_modules(wmsdspace.__path__)]


def resolves(dotted: str) -> bool:
    """Whether some package module defines ``dotted``, attribute by
    attribute; the first part must exist for the rest to be looked up."""
    head, *rest = dotted.split(".")
    for module in package_modules():
        obj = vars(module).get(head)
        if obj is None:
            continue
        for attr in rest:
            if attr not in vars(obj):
                break
            obj = vars(obj)[attr]
        else:
            return True
    return False


def test_cli_states_each_cap():
    # whitespace collapsed and thousands separators dropped: 65,536 -> 65536
    text = re.sub(r"(\d),(\d{3})\b", r"\1\2",
                  " ".join(section("CLI").split()))
    assert f"N must be between 16 and {cli.MAX_GRID}," in text
    assert f"N must be between 2 and {cli.MAX_RESOLUTION}," in text
    assert f"at most {cli.MAX_MARKERS} markers per document" in text


def cli_block_commands() -> list[list[str]]:
    """The argument lists of the commands in the README "CLI" sh block,
    with continuation lines joined and ``wmsdspace`` dropped."""
    (block,) = re.findall(r"```sh\n(.*?)```", section("CLI"), re.S)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "wmsdspace", line
            commands.append(words[1:])
    return commands


def test_cli_block_runs(capsys, monkeypatch, tmp_path):
    """Each README CLI example runs from the repository root, with its
    ``--out`` file written under ``tmp_path``."""
    monkeypatch.chdir(FIXTURES.parent)
    commands = cli_block_commands()
    assert [c[0] for c in commands] == ["rank", "transform", "boundary",
                                        "plot", "plot", "plot", "compare"]
    for argv in commands:
        argv = [tmp_path / Path(a).name if prev == "--out" else a
                for prev, a in zip([None, *argv], argv)]
        code = cli.main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert out or "--out" in argv
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "overlay.svg", "panels.svg", "students.svg"]


def subparsers() -> dict:
    """Each CLI command's argparse parser, by command name."""
    return {c: cli.build_parser(c) for c in cli._COMMANDS}


def test_flag_table_matches_each_parser():
    """The README "Flags" table lists, for each command, exactly the
    optional flags its parser declares, apart from ``--help``."""
    table = {}
    for line in section("Flags", "###").splitlines():
        cells = line.split("|")[1:-1]
        if line.startswith("| `") and len(cells) == 3:
            command = cells[0].strip().strip("`")
            table[command] = [re.findall(r"`(--[\w-]+)`", cell)
                              for cell in cells[1:]]
    parsers = subparsers()
    assert sorted(table) == sorted(parsers)
    overrides = {"--aggregation", "--unweighted", "--clamp", "--tie-tol"}
    for command, parser in parsers.items():
        declared = {flag for a in parser._actions for flag in a.option_strings
                    if flag.startswith("--")} - {"--help"}
        first, rest = table[command]
        assert set(first) <= overrides and not set(rest) & overrides, command
        assert sorted(first + rest) == sorted(declared), command


def test_library_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    ranking, scores = namespace["ranking"], namespace["scores"]
    assert list(ranking.ids) == ["S9", "S8"]  # the weights favour Art
    assert ranking.scores.tolist() == sorted(scores.tolist(), reverse=True)
    assert np.allclose(namespace["same"], scores, atol=1e-12)
    assert namespace["inside"].all()
    w, vertices = namespace["w"], namespace["vertices"]
    env_wm, env_wsd = namespace["env_wm"], namespace["env_wsd"]
    assert env_wm.shape == env_wsd.shape == (512,)
    assert env_wsd[0] == env_wsd[-1] == 0.0 and env_wsd.max() > 0
    assert vertices.shape == (2 ** w.n_p, 2)  # three distinct weights
    assert wmsdspace.attainable(w, vertices[:, 0], vertices[:, 1]).all()
    assert namespace["svg"].count('class="marker"') == 2
    assert namespace["moved"].count('class="arrow"') == 2


def test_exports_resolve_and_removed_names_are_gone():
    for name in wmsdspace.__all__:
        assert hasattr(wmsdspace, name), name
    removed = removed_names()
    assert len(removed) >= 30 and any("." in name for name in removed)
    for dotted in removed:
        assert dotted not in wmsdspace.__all__, dotted
        assert not resolves(dotted), dotted
    # the check can see a name that is there
    assert resolves("DecisionMatrix.m") and resolves("plane")


def test_removed_names_are_not_called():
    """No undotted name of the "Removed names" table is called in a README
    example, in the table's array forms or in the package source."""
    names = [name for name in removed_names() if "." not in name]
    call = re.compile(r"(?<!\w)(%s)\(" % "|".join(map(re.escape, names)))
    table = section("Removed names", "###")
    texts = {
        "README examples": "\n".join(
            re.findall(r"```(?:python|sh)\n(.*?)```", README, re.S)),
        "array forms": "\n".join("|".join(line.split("|")[2:])
                                 for line in table.splitlines()
                                 if line.startswith("| `")),
    }
    package = Path(wmsdspace.__file__).parent
    texts.update((path.name, path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py")))
    found = {where: calls for where, text in texts.items()
             if (calls := call.findall(text))}
    assert not found, found
    # the check can see a stale call, also through a module prefix
    assert call.findall("plane(u, ws.uniform_weights(n))") == [
        "uniform_weights"]


def docstring_references() -> set[str]:
    """Every ``:func:`` and ``:class:`` target named in the package
    source."""
    package = Path(wmsdspace.__file__).parent
    return {ref for path in sorted(package.glob("*.py"))
            for ref in re.findall(r":(?:func|class):`([\w.]+)`",
                                  path.read_text(encoding="utf-8"))}


def test_docstring_references_resolve():
    """A cross-reference names something the package defines; a dotted
    ``wmsdspace.<module>.<name>`` is looked up through its module."""
    refs = docstring_references()
    assert len(refs) >= 20
    assert "wmsdspace.wmsd.plane" in refs
    for ref in refs:
        assert resolves(ref.removeprefix("wmsdspace.")), ref
    # the check can see a stale target
    assert not resolves("aggregate.agg_rows") and not resolves("agg_rows")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wmsdspace import *", namespace)
    for name in wmsdspace.__all__:
        home = importlib.import_module(f"wmsdspace.{wmsdspace._HOME[name]}")
        assert namespace[name] is vars(home)[name], name
    assert set(wmsdspace.__all__) <= set(dir(wmsdspace))


def test_bare_import_loads_nothing_until_asked():
    code = """
import json, sys
import wmsdspace
before = sorted(m for m in sys.modules
                if m == "numpy" or m.startswith("wmsdspace."))
module = wmsdspace.geometry
print(json.dumps([before, module.__name__, "numpy" in sys.modules,
                  "wmsdspace.render" in sys.modules]))
"""
    assert json.loads(fresh_python(code)) == [[], "wmsdspace.geometry",
                                              True, False]


# One malformed input of each public record a caller builds from its own
# input, and the error record its constructor raises for it.
MALFORMED = {
    "CriterionSpec": (lambda: wmsdspace.CriterionSpec("x", 5.0, 1.0, "gain"),
                      "DegenerateDomain"),
    "DecisionMatrix": (lambda: wmsdspace.DecisionMatrix(
        ["a", "a"], [[0.5], [0.5]], [wmsdspace.CriterionSpec("x", 0, 1,
                                                             "gain")]),
        "DuplicateName"),
    "WeightVector": (lambda: wmsdspace.WeightVector([-1.0, 1.0]),
                     "NegativeWeight"),
    "PlotSpec": (lambda: wmsdspace.PlotSpec(wmsdspace.WeightVector([1.0]),
                                            "R", grid=8),
                 "ValidationError"),
}


@pytest.mark.parametrize("record", sorted(MALFORMED))
def test_record_refuses_malformed_input(record):
    """A public record checks the input it is built from: a malformed one
    raises an error record, so no unchecked record can be built."""
    build, error = MALFORMED[record]
    with pytest.raises(wmsdspace.WmsdError) as exc:
        build()
    assert exc.type.__name__ == exc.value.details()["error"] == error


def test_every_public_record_is_checked_or_computed():
    """Each public record class is either built from a caller's input, and
    then in ``MALFORMED``, or returned by a function of the package."""
    from wmsdspace.model import _Record

    public = {name for name in wmsdspace.__all__
              if isinstance(obj := getattr(wmsdspace, name), type)
              and issubclass(obj, _Record)}
    computed = {"Ranking", "RankingComparison", "Isoline"}
    assert public == set(MALFORMED) | computed


@pytest.mark.parametrize("name", ["no_such_name", "to_utility"])
def test_unknown_name_is_attribute_error(name):
    with pytest.raises(AttributeError) as info:
        getattr(wmsdspace, name)
    assert str(info.value) == f"module 'wmsdspace' has no attribute {name!r}"
    assert name not in dir(wmsdspace)


def test_startup_line_count_is_the_imported_modules():
    """README "Start-up" names the modules every command imports and their
    line count: the modules are those ``import wmsdspace.cli`` loads, and
    the count is ``wc -l`` of them."""
    text = " ".join(section("Start-up", "###").split())
    match = re.search(r"\(((?:`\w+`,? )+and `\w+`), ([\d,]+) lines\)", text)
    names = re.findall(r"`(\w+)`", match[1])
    loaded = json.loads(fresh_python(
        "import json, sys, wmsdspace.cli\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules\n"
        "                        if m.startswith('wmsdspace.'))))"))
    assert sorted(names) == sorted(loaded + ["__init__"])
    package = Path(wmsdspace.__file__).parent
    assert int(match[2].replace(",", "")) == sum(
        (package / f"{name}.py").read_bytes().count(b"\n") for name in names)


def test_startup_names_every_record():
    """README "Start-up" names every record class of the package, and
    those that compare by value."""
    from wmsdspace.model import _Record, _Value

    package_modules()  # every record class is defined once its module is
    paragraph = next(p for p in section("Start-up", "###").split("\n\n")
                     if "records are plain classes" in p)
    listed, *rest = " ".join(paragraph.split()).split(". ")
    by_value = next(s for s in rest if "compare and hash by value" in s)
    classes, todo = set(), [_Record]
    while todo:
        subs = todo.pop().__subclasses__()
        classes.update(subs)
        todo += subs
    records = {c.__name__ for c in classes - {_Value}}
    values = {c.__name__ for c in classes - {_Value} if issubclass(c, _Value)}
    assert set(re.findall(r"`(\w+)`", listed)) == records
    assert set(re.findall(r"`(\w+)`", by_value)) == values
    assert "FieldCells" in records and "RunConfig" in values

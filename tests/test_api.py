"""The public surface: the README examples and the exported signatures."""

import ast
import inspect
import re
from pathlib import Path

import imprimlab

README = Path(__file__).resolve().parents[1] / "README.md"


def is_expression(code: str) -> bool:
    try:
        ast.parse(code, mode="eval")
    except SyntaxError:
        return False
    return True


def test_readme_examples_run_and_match_their_comments():
    # the python blocks run in order in one namespace; an expression whose
    # line comment opens with a literal must evaluate to that literal
    checked = []

    def check(value, expected):
        assert value == expected
        checked.append(expected)

    namespace = {"check": check}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        lines = []
        for line in block.splitlines():
            match = re.fullmatch(r"(\s*)(\S.*?)\s+#\s*(\d+|True|False)\b.*", line)
            if match and is_expression(match[2]):
                line = f"{match[1]}check({match[2]}, {match[3]})"
            lines.append(line)
        exec("\n".join(lines), namespace)
    assert checked == [3, 2, True]


def test_public_callables_take_no_cap_parameter():
    # caps are set once per run with imprimlab.limits, never passed along
    offenders, inspected = [], 0
    for name in imprimlab.__all__:
        obj = getattr(imprimlab, name)
        if not callable(obj):
            continue
        target = obj.__init__ if isinstance(obj, type) else obj
        inspected += 1
        offenders += [f"{name}({p})" for p in inspect.signature(target).parameters
                      if "cap" in p.lower()]
    assert inspected > 30 and offenders == []


def test_cap_phases_are_documented_where_they_are_checked():
    # every phase name given to check_cap in the package, and only those, is
    # a row of the README's "Scope and caps" table and is named in the
    # errors module's docstring
    source = Path(imprimlab.__file__).parent
    checked = set()
    for path in source.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "check_cap"):
                phase = node.args[0]
                assert isinstance(phase, ast.Constant), f"{path.name}: a phase that is not a literal"
                checked.add(phase.value)
    scope = README.read_text(encoding="utf-8").split("## Scope and caps", 1)[1]
    table = re.search(r"\| phase \| counts \| cap \|\n\| --- .*?\n((?:\|.*\n)+)", scope).group(1)
    in_readme = set(re.findall(r"^\| `([^`]+)` \|", table, re.M))
    in_errors = set(re.findall(r'"([^"]+)"', imprimlab.errors.__doc__))
    assert checked == in_readme == in_errors
    assert checked == {"group closure", "stabilizer chain", "subspace scan", "block systems"}

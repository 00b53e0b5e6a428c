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

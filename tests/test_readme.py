"""The README's library quickstart runs as written.  Each expression
statement is followed by a `# expected` comment, on its own last line or on
the next line, and the repr of its value must read exactly that."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def expected_comment(lines, node):
    """The comment after the statement's last line, or on the next line."""
    last = lines[node.end_lineno - 1]
    tail = last[node.end_col_offset:].strip()
    if tail.startswith("#"):
        return tail[1:].strip()
    following = lines[node.end_lineno].strip() if node.end_lineno < len(lines) else ""
    assert following.startswith("#"), f"no expected value after line {node.end_lineno}"
    return following[1:].strip()


def test_quickstart_prints_what_its_comments_say():
    source = quickstart()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == expected_comment(lines, node), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 8

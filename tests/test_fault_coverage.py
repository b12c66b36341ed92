"""Every certificate in src/ that fails with RuntimeError has a fault test.

A certificate's failure is the program's own fault, so no input of a user
reaches it; only a test that injects the fault does.  Each `raise
RuntimeError(<message>)` in `src/normspace/` must have its message quoted
by some string in a `tests/test_*.py` file, or be listed in UNREACHED.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# certificate sites that no fault test reaches yet, by the start of their message
UNREACHED = (
    "intersection witness escaped",
    "Helly counterexample",
    "negative distance",
    "kuratowski image failed the extremal identity",
    "extremal closure failed the extremal identity",
)


def _pieces(path, node):
    """The literal text of a message: the string, or an f-string's constant parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [v.value for v in node.values if isinstance(v, ast.Constant)]
    raise AssertionError(f"{path.name}:{node.lineno}: a RuntimeError message must be literal text")


def _runtime_errors():
    """{site: literal pieces of its message} for every raise RuntimeError in src/."""
    sites = {}
    for path in sorted((ROOT / "src" / "normspace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "RuntimeError"):
                sites[f"{path.name}:{node.lineno}"] = _pieces(path, node.exc.args[0])
    return sites


def _test_strings():
    """The strings of the other test files, docstrings left out."""
    strings = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        if path.name != pathlib.Path(__file__).name:
            tree = ast.parse(path.read_text())
            docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
            strings |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and isinstance(node.value, str) and id(node) not in docs}
    return strings


def _quoted(pieces, strings):
    """Whether a test string of two words or more quotes the message: seven
    characters or more of it, all but at most three at its ends, run in one
    piece; the rest may be a formatted value, as the 1 in "escaped ball 1"."""
    return any(" " in s and any(s[a:len(s) - b] in piece for a in range(4) for b in range(4 - a)
                                if len(s) - a - b >= 7 for piece in pieces)
               for s in strings)


def test_every_runtime_error_has_a_fault_test():
    sites, strings = _runtime_errors(), _test_strings()
    assert len(sites) >= 20  # the scan sees the certificates
    unlisted = {site: "".join(pieces) for site, pieces in sites.items()
                if not "".join(pieces).startswith(UNREACHED)}
    assert {site: text for site, text in unlisted.items()
            if not _quoted(sites[site], strings)} == {}


def test_every_unreached_site_is_in_src():
    texts = ["".join(pieces) for pieces in _runtime_errors().values()]
    assert [u for u in UNREACHED if not any(t.startswith(u) for t in texts)] == []

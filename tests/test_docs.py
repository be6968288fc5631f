"""README's library example runs against the current API, its claims ledger names tests that exist, and CI reads
shared fixtures only from ``tests/fixtures.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_runs_and_prints_what_it_says(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})
    printed = capsys.readouterr().out.strip()
    assert printed and f"# {printed}" in block


def _defines(path, names) -> bool:
    """Whether the module at path defines the class and function chain names, outermost first."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_claims_ledger_names_existing_tests():
    section = README.read_text(encoding="utf-8").split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| ---")][1:]
    assert len(rows) >= 10  # one per claim of the abstract
    for row in rows:
        claim, gates, open_ = (cell.strip() for cell in row.strip("|").split(" | "))
        ids = re.findall(r"`([^`]*)`", gates)
        assert ids and open_, claim
        for node_id in ids:
            path, *names = node_id.split("::")
            assert re.fullmatch(r"tests/\w+\.py", path) and names, node_id  # in full, no "…"
            assert _defines(ROOT / path, names), node_id


def test_ci_imports_no_test_module():
    # a reference CI shares with the checks lives in tests/fixtures.py, not in a test file
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert not re.findall(r"^\s*(?:from|import)\s+test_.*$", workflow, re.M)

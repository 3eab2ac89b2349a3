import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    """README's `python` block runs as written: it uses only package exports
    and its router does not collapse (a collapsed sweep has no nAUC)."""
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})
    assert len(capsys.readouterr().out.split()) == 3

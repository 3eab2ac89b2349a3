import re
from pathlib import Path

from equirouter.cli import build_config, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    """README's `python` block runs as written: it uses only package exports
    and its router does not collapse (a collapsed sweep has no nAUC)."""
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})
    assert len(capsys.readouterr().out.split()) == 3


def test_readme_example_config_is_accepted():
    """README's example config parses, fits every key's range and passes
    validate() as written: a comment sits on its own line, since a value
    (a table or out path) may contain '#'."""
    (text,) = re.findall(r"Example config:\n\n```\n(.*?)```", README.read_text(), re.DOTALL)
    cfg = build_config(parse_config_text(text))
    cfg.validate()
    assert (cfg.router, cfg.cost_source) == ("equirouter", "predicted")

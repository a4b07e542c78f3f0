import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_the_readme_says(capsys):
    # runs the library quick start as written, the per-band SURE path
    section = README.read_text(encoding="utf-8").split(
        "## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    claimed = [float(v) for v in re.findall(r"print\(.*\)\s*# ([0-9.]+)", code)]
    assert claimed == [0.817, 0.149]
    exec(code, {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert [round(v, 3) for v in printed] == claimed

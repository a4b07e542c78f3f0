import re
from pathlib import Path

from poissonridge.config import DEFAULTS_TABLE

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


def test_key_block_lists_the_defaults_table_keys_in_order():
    # the command-line section says its key block is the same list as
    # config.DEFAULTS_TABLE: the keys must agree in order, and each
    # default with the first alternative of its README row
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1].split("\n## ", 1)[0]
    after = section.split("`config.DEFAULTS_TABLE` is the same list", 1)[1]
    block = after.split("```\n", 1)[1].split("```", 1)[0]
    readme_rows = [(key, value.split(" | ")[0])
                   for key, value in (line.split(None, 1)
                                      for line in block.splitlines()
                                      if line.strip())]
    table_rows = [tuple(line.split(None, 1))
                  for line in DEFAULTS_TABLE.splitlines()[1:]]
    assert readme_rows == table_rows

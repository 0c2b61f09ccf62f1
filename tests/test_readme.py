"""README's "Library use" example runs as written."""
import re
from dataclasses import replace
from pathlib import Path

from marketgap.panel import write_metadata, write_price_panel

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The ```python block under README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, three_phase):
    # The example reads prices.csv and meta.csv from the working directory and
    # analyses market "US": the three-phase preset's panel, relabelled.
    panel = replace(three_phase.panel, market_of=dict.fromkeys(three_phase.panel.tickers, "US"))
    write_price_panel(panel, tmp_path / "prices.csv")
    write_metadata(panel, tmp_path / "meta.csv")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), names)
    assert names["phases"].event_date == names["series"].dates[120]
    assert names["stats"].shock.n == 5  # the event date +- 2 trading days
    assert names["report"].n_observations == len(names["study"].observations) > 0

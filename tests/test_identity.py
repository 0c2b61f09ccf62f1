"""tools/identity.py's listing and comparison, on small run roots with no CLI run."""
import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

RUNS = {
    "panel/synth": {"prices.csv": "date,ticker,close\n2025-01-02,A,100.5\n"},
    "panel/gap": {"gap_SYN.csv": "end_date,delta\n2025-03-03,0.0123\n", "summary.json": "{}\n"},
}


def make_root(root: Path) -> Path:
    """Two runs whose manifests name their paths under `root`, and an input beside them."""
    for run, files in RUNS.items():
        (root / run).mkdir(parents=True)
        for name, text in files.items():
            (root / run / name).write_text(text)
        manifest = {"config": {"out_dir": str(root / run),
                               "prices": str(root / "panel" / "wide.csv")},
                    "outputs": sorted(files)}
        (root / run / "manifest.json").write_text(json.dumps(manifest))
    (root / "panel" / "wide.csv").write_text("date,A\n2025-01-02,100.5\n")
    return root


def test_equal_roots_at_different_paths_compare_equal(tmp_path, capsys):
    a, b = make_root(tmp_path / "a"), make_root(tmp_path / "elsewhere" / "b")
    left, right = identity.listing(a), identity.listing(b)
    assert sorted(left) == ["panel/gap/gap_SYN.csv", "panel/gap/manifest.json",
                            "panel/gap/summary.json", "panel/synth/manifest.json",
                            "panel/synth/prices.csv"]
    # The manifests differ on disk, in their paths only.
    assert identity.file_sha(a / "panel/gap/manifest.json") != \
        identity.file_sha(b / "panel/gap/manifest.json")
    assert identity.compare(left, right, ("a", "b")) == 0
    assert capsys.readouterr().out == ""


def test_a_changed_digit_an_extra_file_and_a_missing_file_are_each_reported(tmp_path, capsys):
    a, b = make_root(tmp_path / "a"), make_root(tmp_path / "b")
    gap = b / "panel" / "gap" / "gap_SYN.csv"
    gap.write_text(gap.read_text().replace("0.0123", "0.0124"))
    (b / "panel" / "gap" / "extra.csv").write_text("x\n")
    (b / "panel" / "synth" / "prices.csv").unlink()
    assert identity.compare(identity.listing(a), identity.listing(b), ("a", "b")) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: panel/gap/gap_SYN.csv",
        "only in a: panel/synth/prices.csv",
        "only in b: panel/gap/extra.csv",
    ]

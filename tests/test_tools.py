"""The gate tools under tools/ import, enumerate and count without running
any suite, so a rename in the package that breaks them fails here."""

import importlib.util
import json
from pathlib import Path

import pytest

from amwave.cli import RunConfig, _collect_config, build_parser
from amwave.zitter import PAIRS

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report_hashes():
    return load("report_hashes")


def test_report_hashes_lists_96_distinct_runs_that_all_build(report_hashes):
    configs = list(report_hashes.configs())  # each RunConfig checks itself as it is built
    exports = list(report_hashes.exports())
    labels = [label for label, _ in configs + exports]
    assert len(labels) == len(set(labels)) == 96
    # an export's CSV and its verdict are hashed apart, under distinct labels
    verdicts = [f"{label} verdict" for label, _ in exports]
    assert len(set(labels + verdicts)) == len(configs) + 2 * len(exports) == 107
    assert "107 lines for\n96 runs" in report_hashes.__doc__
    assert all(type(cfg) is RunConfig for _, cfg in configs)
    for _, argv in exports:
        cfg = _collect_config(build_parser().parse_args([*argv, "--out", "out.csv"]))
        assert cfg.suite == argv[0]
    # the defect runs are a second set, which no hash line holds
    defects = [label for label, _ in report_hashes.defect_configs()]
    assert len(defects) == len(set(defects) - set(labels + verdicts)) == 10


def test_report_hashes_exports_every_pair_of_the_pair_table(report_hashes):
    assert sorted(tuple(map(int, pair.split(","))) for pair in report_hashes.ZITTER_PAIRS) \
        == sorted(PAIRS)


SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
x = 1  # a trailing comment
TEXT = """a multi-line string
that is code, not a docstring"""


def f():
    """A function docstring."""
    return x
'''


def test_src_lines_counts_code_apart_from_docstrings_comments_and_blanks():
    src_lines = load("src_lines")
    # code: x = 1, the two lines of TEXT, def f() and return x
    assert src_lines.counts(SAMPLE) == (12, 5)


def test_every_mutant_names_text_that_occurs_once():
    mutants = load("mutants")
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) and set(mutants.EQUIVALENT) <= set(names)
    for m in mutants.MUTANTS:
        text = (mutants.SRC / "amwave" / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_compare_of_a_tree_with_itself_reports_no_change(report_hashes, capsys):
    # a few hashed runs, and every defect run, which fails items in both trees
    labels = ["zitter seed=11 trials=3", "wca seed=3 fixed R",
              "zitter csv pair=1,4 momentum=0.3,-0.4,0.9", "poynting csv seed=2 su2_spin_one",
              *(label for label, _ in report_hashes.defect_configs())]
    assert report_hashes.compare(str(report_hashes.NEW_SRC), labels) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("0 of 14 runs differ; 0 pass flags changed; "
                   "items or tolerances changed in 0; largest margin drop 0.00 decades\n")


def test_an_export_is_compared_by_its_verdict_item(report_hashes, capsys):
    # the items the exports' verdicts judge, one per export
    assert [it["name"] for it in report_hashes.export_items(["zitter", "--steps", "5"])] \
        == ["abs_dev"]
    items = report_hashes.export_items(["poynting", "--steps", "5", "--samples", "5"])
    assert [it["name"] for it in items] == ["quadrature_vs_closed"] and items[0]["pass"]
    report_hashes.print_items(["zitter csv pair=2,3 momentum=0,0,0.8"])
    label, items = json.loads(capsys.readouterr().out)
    # a pair without a closed form compares nothing: its deviation is 0
    assert label == "zitter csv pair=2,3 momentum=0,0,0.8" and items == [
        ["abs_dev", 0.0, 1e-12, True]]


def test_margin_counts_a_residual_below_eps_as_eps(report_hashes):
    assert report_hashes.margin(1e-14, 1e-12) == 2.0
    assert report_hashes.margin(0.0, 1e-12) == report_hashes.margin(1e-20, 1e-12)
    assert report_hashes.margin(float("nan"), 1e-12) == float("-inf")

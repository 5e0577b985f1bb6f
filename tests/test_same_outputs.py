"""The output comparison of ``tools/same_outputs.py``, which checks that
two checkouts write the same bytes: on two small trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_same_trees_have_no_differences(tmp_path):
    files = {"case/stdout.txt": b"out/a.csv\n", "case/out/a.csv": b"1,2\n"}
    a, b = write_tree(tmp_path / "a", files), write_tree(tmp_path / "b", files)
    assert same_outputs.tree_differences(a, b) == []


def test_each_differing_byte_and_missing_file_is_named(tmp_path):
    a = write_tree(tmp_path / "a", {"case/out/a.csv": b"1,2\n", "case/out/b.csv": b"x",
                                    "case/stdout.txt": b"out/a.csv\nout/b.csv\n"})
    b = write_tree(tmp_path / "b", {"case/out/a.csv": b"1,3\n",
                                    "case/stdout.txt": b"out/a.csv\nout/b.csv\n",
                                    "case/out/c.csv": b""})
    assert same_outputs.tree_differences(a, b) == [
        "case/out/a.csv: bytes differ from offset 2",
        f"case/out/b.csv: only in {a}",
        f"case/out/c.csv: only in {b}",
    ]


def test_a_prefix_differs_at_its_end(tmp_path):
    a = write_tree(tmp_path / "a", {"f": b"abc"})
    b = write_tree(tmp_path / "b", {"f": b"abcd"})
    assert same_outputs.tree_differences(a, b) == ["f: bytes differ from offset 3"]


def test_cases_cover_the_packaged_config_and_every_workload_at_two_seeds():
    runs = same_outputs.cases()
    assert runs["packaged/reproduce-all"] == ("reproduce-all", None)
    assert sorted(name for name in runs if name.startswith("dense-coupling-seed7/")) == [
        "dense-coupling-seed7/gain", "dense-coupling-seed7/icsi", "dense-coupling-seed7/mc-eigen"]
    assert len(runs) == 1 + 2 * (1 + 2 + 3)


def test_tolerance_compares_differing_csvs_with_the_regression_rule(tmp_path):
    header = b"# target: t\nindex,eigenvalue,eigenvalue_db,tag\n"
    a = write_tree(tmp_path / "a", {
        "near.csv": header + b"0,1,0,x\n1,1e-17,-170,x\n",
        "far.csv": header + b"0,1,0,x\n",
        "text.csv": header + b"0,1,0,x\n",
        "f.gp": b"plot 1\n"})
    b = write_tree(tmp_path / "b", {
        # a round-off eigenvalue become 0, and a last-digit change
        "near.csv": header + b"0,1.00000000000001,0,x\n1,0,-inf,x\n",
        "far.csv": header + b"0,1.000001,0,x\n",
        "text.csv": header + b"0,1,0,y\n",
        "f.gp": b"plot 2\n"})
    assert same_outputs.tree_differences(a, b, tolerance=True) == [
        "f.gp: bytes differ from offset 5",
        "far.csv:eigenvalue: 1 rows differ, first at row 0: 1 vs reference 1.000001",
        "text.csv:tag: 1 rows differ, first at row 0: x vs reference y",
    ]
    assert len(same_outputs.tree_differences(a, b)) == 4


def test_tolerance_notes_name_the_worst_cell_and_the_new_zeros(tmp_path):
    header = b"# target: t\nindex,eigenvalue,eigenvalue_db,tag\n"
    a = write_tree(tmp_path / "a", {
        "case/zeros.csv": header + b"0,1,0,x\n1,0,-inf,x\n",
        "case/same.csv": header + b"0,1,0,x\n",
        "case/far.csv": header + b"0,1,0,x\n"})
    b = write_tree(tmp_path / "b", {
        # round-off of 1/2 and 1/10 of the floor, which became exact 0 in a
        "case/zeros.csv": header + b"0,1,0,x\n1,5e-13,-130,x\n",
        "case/same.csv": header + b"0,1,0,x\n",
        "case/far.csv": header + b"0,1.000001,0,x\n"})
    assert same_outputs.tolerance_notes(a, b) == [
        "case/zeros.csv: within tolerance, worst cell 50 % of it (eigenvalue, row 1); "
        "became exact 0: eigenvalue 1, eigenvalue_db 1",
    ]
    # a note is not a difference; the file out of tolerance gets none
    assert same_outputs.tree_differences(a, b, tolerance=True) == [
        "case/far.csv:eigenvalue: 1 rows differ, first at row 0: 1 vs reference 1.000001"]
    assert same_outputs.tolerance_note("f.csv", (header + b"0,1,0,x\n").decode(),
                                       (header + b"0,1.00000000001,0,x\n").decode()) == (
        "f.csv: within tolerance, worst cell 9.9 % of it (eigenvalue, row 0); "
        "became exact 0: none")

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parent.parent / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _write(folder, files):
    folder.mkdir()
    for name, text in files.items():
        (folder / name).write_text(text)
    return str(folder)


def test_report_diff_compares_directories_file_by_file(tmp_path, capsys):
    common = {"01_nr.txt": "w(A) = 1.25\n", "02_kbound.txt": "K <= 2 (disk)\n"}
    old = _write(tmp_path / "old", {**common, "03_gone.txt": "x\n"})
    new = _write(tmp_path / "new", {**common, "04_added.txt": "y\n",
                                     "02_kbound.txt": "K <= 2.0000001 (disk)\n"})
    assert report_diff.main([old, new, "--rtol", "0"]) == 1
    out = capsys.readouterr().out
    assert f"03_gone.txt: missing from {new}" in out
    assert f"04_added.txt: missing from {old}" in out
    assert "1 of 4 file(s) agree; differing or missing: 02_kbound.txt, 03_gone.txt, " \
           "04_added.txt" in out
    # within a tolerance the numbers agree, but a missing file still counts
    assert report_diff.main([old, new, "--rtol", "1e-6"]) == 1
    assert "differing or missing: 03_gone.txt, 04_added.txt" in capsys.readouterr().out


def test_report_diff_of_identical_directories_exits_zero(tmp_path, capsys):
    files = {"a.txt": "1.5 0.25i\nnan inf\n", "b.txt": "text only\n"}
    old, new = _write(tmp_path / "old", files), _write(tmp_path / "new", files)
    assert report_diff.main([old, new, "--rtol", "0"]) == 0
    assert "2 of 2 file(s) agree; differing or missing: none" in capsys.readouterr().out


def test_report_diff_of_two_files_and_usage_errors(tmp_path, capsys):
    old = tmp_path / "old.txt"
    new = tmp_path / "new.txt"
    old.write_text("value 1.0\n")
    new.write_text("value 1.0000000000001\n")
    assert report_diff.main([str(old), str(new), "--rtol", "1e-12"]) == 0
    assert report_diff.main([str(old), str(new), "--rtol", "0"]) == 1
    assert report_diff.main([str(old), str(tmp_path / "absent.txt")]) == 2
    with pytest.raises(SystemExit):
        report_diff.main([str(old), str(new), "--rtol", "-1"])

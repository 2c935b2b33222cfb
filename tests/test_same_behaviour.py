"""``tools/same_behaviour.py`` compares what two checkouts print."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_behaviour.py"
ONLY = ["--only", "help,scalar-direct.csv"]


def compare(parent):
    return subprocess.run([sys.executable, str(TOOL), str(parent), *ONLY],
                          capture_output=True, text=True, timeout=60)


def test_a_checkout_is_the_same_as_itself():
    done = compare(ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["same", "help"], ["same", "scalar-direct.csv"]]
    assert lines[2:] == ["2/2 artifacts the same"]


def copy_src(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src" / "inexactfp"


def test_a_changed_help_text_differs(tmp_path):
    cli = copy_src(tmp_path) / "cli.py"
    text = cli.read_text()
    assert text.count('description="Reproduce') == 1
    cli.write_text(text.replace('description="Reproduce', 'description="Rerun'))
    done = compare(tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == (
        "DIFFERS help: line 11: parent 'Rerun the inexact fixed point experiments or run "
        "the acceptance suite.\\n', here 'Reproduce the inexact fixed point experiments or "
        "run the acceptance suite.\\n'")
    assert lines[1].split()[:2] == ["same", "scalar-direct.csv"]
    assert lines[2] == "1/2 artifacts the same"


def test_a_message_on_stderr_alone_differs(tmp_path):
    entry = copy_src(tmp_path) / "__main__.py"
    entry.write_text('import sys\nprint("warning", file=sys.stderr)\n' + entry.read_text())
    done = compare(tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "DIFFERS help: stderr line 1: parent 'warning\\n', here end of output",
        "DIFFERS scalar-direct.csv: stderr line 1: parent 'warning\\n', here end of output",
        "0/2 artifacts the same"]

"""Every pytest run in the repository fails a test whose kernel saw a
process die of a bug, even a defused process (the root ``conftest.py``)."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

DEFUSING_TESTS = '''
import pytest

from repro.sim import Kernel


def run_a_defused_bug():
    kernel = Kernel()

    def buggy():
        yield kernel.timeout(1.0)
        len(None)

    kernel.process(buggy()).defuse()
    kernel.run()


def test_defuses_a_bug():
    run_a_defused_bug()


@pytest.mark.kills_process
def test_defuses_a_bug_on_purpose():
    run_a_defused_bug()
'''


def test_a_defused_process_dying_of_a_type_error_fails_its_test(pytester, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    pytester.makeconftest((ROOT / "conftest.py").read_text())
    pytester.makepyfile(DEFUSING_TESTS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=2, errors=1)
    result.stdout.fnmatch_lines([
        "*ERROR at teardown of test_defuses_a_bug *",
        "*process * died of TypeError*",
    ])

"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import pytest

from saddlelab.acceptance import (CRITERIA, criterion_10_reproducibility,
                                  run_criterion)


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, fn):
    result = run_criterion(name, fn)
    print(result.line)
    assert result.passed, result.line


def test_reproducibility_criterion_prints_nothing(capsys):
    # validate prints one line per criterion; the sweeps that criterion 10
    # runs through the CLI must not add theirs
    passed, _ = criterion_10_reproducibility()
    assert passed
    assert capsys.readouterr().out == ""

"""The in-process CLI runner the test modules share."""

import contextlib
import io
from typing import NamedTuple

import pytest


class Ran(NamedTuple):
    """One in-process `vandermetric` run: its exit code and what it wrote to each stream."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr


def run_cli(args) -> Ran:
    """Run `vandermetric` on args in this process and catch its exit."""
    from vandermetric.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Ran(code, out.getvalue(), err.getvalue())


@pytest.fixture
def cli():
    return run_cli

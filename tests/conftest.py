"""The in-process CLI runner and the block-stream mutant the test modules share."""

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


@pytest.fixture
def plant_rhs(monkeypatch):
    """Plant a wrong right side in a block stream: plant(module, name, rewrite).

    name is a block generator of module, core.replacement_blocks or
    batch.identity_blocks; for the rest of the test it yields each block
    with its rhs replaced by rewrite(rhs), in the block's own domain.
    """
    def plant(module, name, rewrite):
        blocks = getattr(module, name)

        def planted(*args, **kwargs):
            for rows, lhs, rhs, domain in blocks(*args, **kwargs):
                yield rows, lhs, rewrite(rhs), domain

        monkeypatch.setattr(module, name, planted)

    return plant

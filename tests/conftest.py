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
    """Plant a wrong right side in the blocks a campaign judges: plant(module, name, rewrite).

    name is a block source of module: the generator core.replacement_blocks
    or batch.identity_blocks, or campaign._whole, which makes the one block
    of the polygon, ode and multilinear-oracle campaigns.  For the rest of
    the test each block it gives has its rhs replaced by rewrite(rhs), in
    the block's own domain.
    """
    def plant(module, name, rewrite):
        source = getattr(module, name)

        def planted_block(rows, lhs, rhs, domain):
            return rows, lhs, rewrite(rhs), domain

        def planted(*args, **kwargs):
            made = source(*args, **kwargs)
            if isinstance(made, tuple):  # one block
                return planted_block(*made)
            return (planted_block(*block) for block in made)

        monkeypatch.setattr(module, name, planted)

    return plant

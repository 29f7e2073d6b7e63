"""The in-process CLI runner, the block-stream mutant and the lowered-dispatch runner the test
modules share."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS = Path(__file__).resolve().parent


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
    the test each block it gives has its rhs replaced by
    rewrite(lhs, rhs, domain), in the block's own domain.
    """
    def plant(module, name, rewrite):
        source = getattr(module, name)

        def planted_block(rows, lhs, rhs, domain):
            return rows, lhs, rewrite(lhs, rhs, domain), domain

        def planted(*args, **kwargs):
            made = source(*args, **kwargs)
            if isinstance(made, tuple):  # one block
                return planted_block(*made)
            return (planted_block(*block) for block in made)

        monkeypatch.setattr(module, name, planted)

    return plant


def dispatch_targets(prefixes: tuple) -> list:
    """numpy's dispatch targets that this CPU runs, of those that start with one of prefixes."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__
            if target.startswith(prefixes) and __cpu_features__.get(target)]


# Sets of dispatch targets to turn off: the AVX-512 ones, and every one,
# which leaves the build's baseline (x86-64-v2 on x86-64).
DISPATCH_SETS = {"avx512": ("AVX512", "X86_V4"), "baseline": ("",)}

# Runs body, which reads its JSON input from stdin into result, and writes
# numpy's CPU features and result as JSON.
_DISPATCH_CHILD = """
import json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
{body}
json.dump([__cpu_features__, result], sys.stdout)
"""


def run_at_lowered_dispatch(turned_off: str, body: str, payload):
    """The result of body on payload in a child process with a DISPATCH_SETS set turned off.

    body is Python that reads the JSON payload from stdin and sets result,
    which comes back through JSON.  The child imports vandermetric from
    src and conftest from the tests.  Skips the test where numpy runs none
    of the set's targets on this CPU.
    """
    targets = dispatch_targets(DISPATCH_SETS[turned_off])
    if not targets:
        pytest.skip(f"numpy runs no {turned_off} dispatch target to turn off on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    env.pop("VANDERMETRIC_LOG", None)
    proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD.format(body=body)],
                          input=json.dumps(payload), capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    features, result = json.loads(proc.stdout)
    assert not any(features[target] for target in targets)
    return result

"""Every output of the benchmark's ``cli-rational`` requests, pinned.

The benchmark checks its generated outputs only against the same run's
first pass, so a change that alters them would pass it.  This test builds
the workload of ``perfbench/workloads.py`` (read, not changed) for seeds
0 and 1, runs each request as text and with ``--json``, and compares one
sha256 over all outputs with ``data/cli_rational_outputs.sha256``.

That file holds ``<count> <hex digest>``: the number of outputs and the
digest of each output's UTF-8 bytes followed by a NUL byte, in request
order, seed 0 first and the text output before the ``--json`` one.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import oddsym.cli as cli

ROOT = Path(__file__).resolve().parents[1]
PIN = ROOT / "tests" / "data" / "cli_rational_outputs.sha256"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "cli_rational_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_rational_outputs_pinned():
    workloads = _workloads()
    digest, count = hashlib.sha256(), 0
    for seed in (0, 1):
        workload = workloads.CliWorkload(seed, False)
        try:
            for command, path, _ in workload.requests:
                for extra in ([], ["--json"]):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = cli.main([command, "--manifest", path, *extra])
                    assert (code, err.getvalue()) == (0, ""), \
                        f"{command} {path} {extra}"
                    digest.update(out.getvalue().encode("utf-8") + b"\0")
                    count += 1
        finally:
            workload.close()
    assert f"{count} {digest.hexdigest()}" == PIN.read_text().strip()

"""Execution of one ``cli-cache`` item: one ``ospkostka.cli`` process.

Kept apart from ``items.py`` so that the process driving the CLI never
imports the package itself.
"""

import os
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_SHIM = os.path.join(HERE, "cli_shim.py")
CLI_TIMEOUT_S = 120


class CliError(RuntimeError):
    """A CLI item exited non-zero."""


@dataclass
class CliContext:
    """Where CLI items run: the child environment, the shared cache file,
    and (when traced) the directory that receives one span file per child."""

    env: dict
    cache: str
    spans_dir: str = None
    calls: int = 0


def cli_item(ctx: CliContext, args, uses_cache: bool) -> str:
    """One CLI process.  Only Kostka-computing commands get --cache."""
    argv = list(args) + ([f"--cache={ctx.cache}"] if uses_cache else [])
    if ctx.spans_dir is None:
        cmd = [sys.executable, "-m", "ospkostka.cli", *argv]
    else:
        spans = os.path.join(ctx.spans_dir, f"cli-{ctx.calls:04d}.json")
        cmd = [sys.executable, CLI_SHIM, spans, *argv]
    ctx.calls += 1
    proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return f"exit {proc.returncode}\n{proc.stdout}"


def package_env(src_dir: str) -> dict:
    """The parent environment with the package source on PYTHONPATH and no
    cache variable, so cache-free commands never touch a cache."""
    env = dict(os.environ)
    env.pop("OSP_KOSTKA_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env

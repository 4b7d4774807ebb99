"""The server/leader child process, driven over its standard streams."""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from .common import OUT_DIR

LAUNCHER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "launch.py")


class Launched:
    """One ``launch.py`` process plus the scratch directory it works in.

    Use as ``async with Launched(spec, inputs) as proc``; leaving the
    block stops the process (politely, then by kill) and waits for it,
    and removes the scratch directory.
    """

    def __init__(self, spec: dict, inputs: dict[str, np.ndarray]) -> None:
        self.spec = dict(spec)
        self.inputs = inputs
        self.proc: asyncio.subprocess.Process | None = None
        self.ready: dict = {}
        self.scratch = ""

    async def __aenter__(self) -> "Launched":
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        inputs_path = os.path.join(self.scratch, "inputs.npz")
        np.savez(inputs_path, **self.inputs)
        self.spec["inputs"] = inputs_path
        if self.spec.get("durable"):
            self.spec["durable_root"] = os.path.join(self.scratch, "durable")
        spec_path = os.path.join(self.scratch, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec, fh)
        try:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, LAUNCHER, spec_path,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE)
            self.ready = await self.read(timeout=150)
        except BaseException:
            await self.stop()
            raise
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def read(self, timeout: float = 60.0) -> dict:
        """The next ``PBENCH`` message from the child."""
        async def next_msg():
            while True:
                line = await self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("launch.py exited early")
                if line.startswith(b"PBENCH "):
                    return json.loads(line[7:])
        return await asyncio.wait_for(next_msg(), timeout)

    async def command(self, cmd: str, timeout: float = 60.0, **args) -> dict:
        self.proc.stdin.write((json.dumps({"cmd": cmd, **args}) + "\n")
                              .encode())
        await self.proc.stdin.drain()
        return await self.read(timeout)

    async def stop(self) -> None:
        proc = self.proc
        if proc is not None and proc.returncode is None:
            try:
                await self.command("stop", timeout=30)
                await asyncio.wait_for(proc.wait(), 30)
            except (OSError, RuntimeError, asyncio.TimeoutError):
                pass
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
        if self.scratch:
            shutil.rmtree(self.scratch, ignore_errors=True)

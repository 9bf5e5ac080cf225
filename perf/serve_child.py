"""The served side of ``wire_mixed``: ``serve(build_service(AppConfig))``.

Run by the harness as a child process with the resolved AppConfig as one
JSON argument.  Prints the port it listens on as its only line of
output and serves until its standard input is closed.
"""

from __future__ import annotations

import asyncio
import json
import sys


async def _main(config_json: str) -> None:
    from repro.config import build_service, from_dict
    from repro.service import serve

    service = build_service(from_dict(json.loads(config_json)))
    async with service:
        server = await serve(service, port=0)
        print(server.sockets[0].getsockname()[1], flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
        server.close()
        await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(_main(sys.argv[1]))

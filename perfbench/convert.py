"""Convert a Bristol document to the JSON circuit document through the
public library functions; the CLI has no import path.

Usage: python perfbench/convert.py IN.bristol OUT.json
"""

import sys

from xagsynth import cli, io_formats


def convert(src: str, dst: str) -> None:
    with open(src) as fh:
        text = fh.read()
    circuit = io_formats.import_bristol(text)
    cli.write_text_atomic(dst, io_formats.export_json(circuit))


if __name__ == "__main__":
    convert(*sys.argv[1:3])

"""LTNC003 clean twin: reads are fine; writes go through the atomic helper."""

import json
import pathlib

from repro.fileio import atomic_write_text


def load(path):
    with open(path) as fh:
        return json.load(fh)


def save(payload, path):
    atomic_write_text(
        pathlib.Path(path), json.dumps(payload, sort_keys=True) + "\n"
    )

"""Deterministic report emission: CSV tables, JSON documents, manifests.

Data files must be byte-identical across reruns with the same
configuration, so every float is formatted at a fixed 12 significant
digits and rows are emitted in a deterministic order by the callers.
The manifest records wall time (explicitly outside the determinism
contract) and the sha256 of each data file written.

That sha256 comes from CPython's built-in `_sha256` module, not from
`hashlib`: `hashlib` loads OpenSSL's libcrypto, about 3.7 MB of every
run's peak memory, to take one digest.  Python 3.12 renamed the module
(`_sha2`), and there `hashlib` serves instead: the same digest, without
the memory gain.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

try:
    from _sha256 import sha256
except ImportError:  # Python 3.12+, where it is _sha2
    from hashlib import sha256

SIG_DIGITS = 12


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.{SIG_DIGITS}g}"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def render_csv(header: list[str], rows: list[list]) -> str:
    """RFC-4180-style CSV with a mandatory header row and \n line ends."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return sink.getvalue()


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_text(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def write_report(path: str | Path, text: str) -> str:
    """Write a data file and return its sha256 (of the exact bytes)."""
    Path(path).write_text(text, encoding="utf-8")
    return sha256_text(text)


@dataclass
class RunManifest:
    """Reproducibility sidecar for one CLI run.

    files maps each emitted data file to its sha256; wall_seconds maps each
    phase of the run ("compute", "write") to its wall time in seconds, and
    is informational and excluded from the byte-identity contract.
    """

    command: str
    version: str
    config: dict
    wall_seconds: dict[str, float]
    files: dict

    def render(self) -> str:
        return render_json(asdict(self))

    def write_next_to(self, out_path: str | Path) -> Path:
        target = Path(str(out_path) + ".manifest.json")
        target.write_text(self.render(), encoding="utf-8")
        return target

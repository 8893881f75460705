"""Plain-text `key = value` configuration with dotted section keys.

One line per setting, `#` starts a comment, keys are case-sensitive. The same
format drives pipeline runs and synthetic-generator settings.
"""

from __future__ import annotations

from passthru.errors import PassthruError


class KvSyntaxError(PassthruError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise KvSyntaxError(line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise KvSyntaxError(line_no, "empty key")
        if key in out:
            raise KvSyntaxError(line_no, f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_kv(mapping: dict[str, str]) -> str:
    """Canonical serialization: sorted keys, one per line."""
    return "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))

"""A telemetry sink that keeps what it is sent, for span tests."""

from __future__ import annotations


class ListSink(list):
    """Every record a recorder emits, in emission order."""

    def emit(self, record: dict) -> None:
        self.append(record)

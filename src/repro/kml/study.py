"""The study each use case starts from (paper section 4, "Studying the
problem"): run every knob setting under every workload class, then map
each class to the setting "that provided the best throughput".  Section
6 carries the recipe to the page cache and I/O schedulers; the three
studies differ only in how one point runs and, for schedulers, in the
ranking key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Sequence

__all__ = ["Sweep", "sweep"]


def _throughput(run: Any) -> float:
    return run.throughput


@dataclass
class Sweep:
    """``results[name][setting]`` is what one run measured; ``key`` ranks
    a run, higher is better (by default its throughput)."""

    results: Dict[str, Dict[Any, Any]] = field(default_factory=dict)
    key: Callable[[Any], Any] = _throughput

    def best(self, name: str) -> Any:
        """``name``'s winning setting; a tie goes to the first swept."""
        runs = self.results[name]
        return max(runs, key=lambda setting: self.key(runs[setting]))


def sweep(
    names: Iterable[str],
    settings: Sequence[Any],
    start: Callable[[str], Callable[[Any], Any]],
    key: Callable[[Any], Any] = _throughput,
) -> Sweep:
    """Run every setting under every name, one name at a time:
    ``start(name)`` does that class's set-up and returns ``run(setting)``.
    """
    study = Sweep(key=key)
    for name in names:
        run = start(name)
        study.results[name] = {setting: run(setting) for setting in settings}
    return study

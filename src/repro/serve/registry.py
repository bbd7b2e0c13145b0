"""Versioned model store with atomic hot-swap snapshots.

The paper's deployment story is a *handoff*: train in user space, save
to the KML model file format, load in the kernel for inference.  The
registry turns that one-shot handoff into a lifecycle:

- :meth:`ModelRegistry.publish` writes an immutable, numbered model
  image (``v00001.kml``, ``v00002.kml``, ...) into the registry
  directory with the same tmp+rename discipline minikv's manifest uses,
  so a crash mid-publish can never leave a half-written version behind;
- :meth:`ModelRegistry.activate` loads a version into an immutable
  :class:`ModelSnapshot` and swaps it in with one reference assignment.
  In-flight inference keeps the snapshot it already resolved, so no
  request ever observes a torn model -- every response is produced by
  exactly one complete version;
- :meth:`ModelRegistry.rollback` re-activates the previously active
  version (the escape hatch for a bad deploy).

Integrity reuses ``kml.model_io``: every load runs the full
magic/version/CRC validation of :func:`repro.kml.model_io.parse_model`,
and ``attach_faults`` arms the ``serve.registry.load`` site so tests
can corrupt the image in flight -- a registry must never activate a
damaged model (the paper: "a kernel must never trust a bad model").
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List, Optional

from ..kml.decision_tree import DecisionTreeClassifier
from ..kml.model_io import Model, dump_model, parse_model
from ..kml.network import Sequential

__all__ = ["RegistryError", "ModelSnapshot", "ModelRegistry"]

_VERSION_RE = re.compile(r"^v(\d{5})\.kml$")


def _version_filename(version: int) -> str:
    return f"v{version:05d}.kml"


class RegistryError(Exception):
    """A registry operation failed: unknown version, corrupt model
    image, or an I/O error underneath the store.  Activation failures
    leave the previously active snapshot in place."""


class ModelSnapshot:
    """An immutable handle on one fully-loaded model version.

    Snapshots are what inference actually runs: the model instance is
    private to the snapshot (decoded fresh from the stored image), its
    ``predict`` / ``predict_classes`` mutate no state, and no field is
    ever reassigned after construction -- which is what makes the
    registry's hot-swap safe for readers that never take a lock.
    """

    __slots__ = ("version", "model", "kind", "dtype")

    def __init__(self, version: int, model: Model):
        self.version = version
        self.model = model
        if isinstance(model, Sequential):
            self.kind = "sequential"
            params = model.parameters()
            self.dtype = params[0].value.dtype if params else "float32"
        elif isinstance(model, DecisionTreeClassifier):
            self.kind = "tree"
            self.dtype = "float64"
        else:  # pragma: no cover - parse_model only returns these two
            raise RegistryError(f"unsupported model type {type(model).__name__}")

    def __repr__(self) -> str:
        return (
            f"ModelSnapshot(version={self.version}, kind={self.kind!r}, "
            f"dtype={self.dtype!r})"
        )


class ModelRegistry:
    """Directory-backed, versioned model store with one active snapshot.

    Thread safety: ``publish`` / ``activate`` / ``rollback`` serialize
    on an internal lock; :meth:`active` is a single attribute read, so
    inference hot paths pay nothing for the ability to hot-swap.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._versions: Dict[int, str] = {}
        self._history: List[int] = []  # activation order
        self._active: Optional[ModelSnapshot] = None
        self._fault_site = None
        self.loads = 0
        self.load_failures = 0
        self.activations = 0
        self.rollbacks = 0
        for entry in sorted(os.listdir(root)):
            match = _VERSION_RE.match(entry)
            if match:
                self._versions[int(match.group(1))] = os.path.join(root, entry)

    # -- fault wiring (duck-typed; see repro.faults) -------------------

    def attach_faults(self, plane) -> None:
        """Resolve the ``serve.registry.load`` site handle."""
        self._fault_site = plane.site("serve.registry.load")

    def detach_faults(self) -> None:
        self._fault_site = None

    # -- store ---------------------------------------------------------

    def versions(self) -> List[int]:
        with self._lock:
            return sorted(self._versions)

    def path_for(self, version: int) -> str:
        with self._lock:
            path = self._versions.get(version)
        if path is None:
            raise RegistryError(
                f"unknown model version {version}; have {self.versions()}"
            )
        return path

    def publish(self, model, activate: bool = False) -> int:
        """Store a model (instance or ``.kml`` path) as the next version.

        The image is verified by a full parse *before* the tmp+rename
        commit, so a version that exists in the registry is always
        loadable (absent later media corruption, which ``activate``
        still catches via the CRC).
        """
        if isinstance(model, str):
            with open(model, "rb") as f:
                data = f.read()
        else:
            data = dump_model(model)
        try:
            parse_model(data)
        except Exception as exc:
            raise RegistryError(f"refusing to publish damaged model: {exc}") from exc
        with self._lock:
            version = max(self._versions, default=0) + 1
            path = os.path.join(self.root, _version_filename(version))
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            self._versions[version] = path
        if activate:
            self.activate(version)
        return version

    # -- load / activate ------------------------------------------------

    def load(self, version: int) -> ModelSnapshot:
        """Decode a stored version into a fresh snapshot (no activation).

        Every load re-validates the image end to end; the armed
        ``serve.registry.load`` fault site can damage the bytes in
        flight, which must surface as :class:`RegistryError`, never as
        a half-decoded model.
        """
        path = self.path_for(version)
        self.loads += 1
        try:
            with open(path, "rb") as f:
                data = f.read()
            site = self._fault_site
            if site is not None:
                action = site.fire()
                if action is not None:
                    data = action.apply(data)
            model = parse_model(data)
        except RegistryError:
            self.load_failures += 1
            raise
        except Exception as exc:
            self.load_failures += 1
            raise RegistryError(
                f"cannot load model version {version}: {exc}"
            ) from exc
        return ModelSnapshot(version, model)

    def activate(self, version: int) -> ModelSnapshot:
        """Load ``version`` and make it the active snapshot, atomically.

        The load (and its integrity check) happens before the swap: a
        corrupt candidate raises and the previous snapshot stays
        active, so a bad deploy can degrade nothing.
        """
        snapshot = self.load(version)
        with self._lock:
            self._active = snapshot
            self._history.append(version)
            self.activations += 1
        return snapshot

    def rollback(self) -> ModelSnapshot:
        """Re-activate the version that was active before the current one."""
        with self._lock:
            previous = None
            current = self._history[-1] if self._history else None
            for version in reversed(self._history[:-1]):
                if version != current:
                    previous = version
                    break
        if previous is None:
            raise RegistryError("no previous activation to roll back to")
        snapshot = self.activate(previous)
        with self._lock:
            self.rollbacks += 1
        return snapshot

    def active(self) -> Optional[ModelSnapshot]:
        """The current snapshot: one attribute read, never a lock."""
        return self._active

    @property
    def active_version(self) -> int:
        """Active version number, or -1 when nothing is activated."""
        snapshot = self._active
        return snapshot.version if snapshot is not None else -1

    def history(self) -> List[int]:
        with self._lock:
            return list(self._history)

    def describe(self) -> str:
        """Human-readable listing for ``repro serve --registry``."""
        active = self.active_version
        lines = [f"ModelRegistry at {self.root}: {len(self._versions)} version(s)"]
        for version in self.versions():
            path = self.path_for(version)
            size = os.path.getsize(path)
            marker = "  * " if version == active else "    "
            lines.append(f"{marker}v{version:05d}  {size:>8} bytes  {path}")
        if active < 0:
            lines.append("    (no active version)")
        return "\n".join(lines)

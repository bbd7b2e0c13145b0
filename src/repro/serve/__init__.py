"""Model serving: the versioned model registry.

The paper stops at the handoff -- train in user space, load the saved
model in the kernel.  :class:`ModelRegistry` turns that handoff into a
lifecycle: a versioned, integrity-checked ``.kml`` store with atomic
hot-swap (``publish`` / ``activate`` / ``rollback``).  Inference stays
inline: a caller reads ``registry.active()`` and runs the model of the
immutable :class:`ModelSnapshot` it gets back, as
``ReadaheadAgent(registry=...)`` does once per tick.

Layering: ``serve`` sits beside ``readahead`` and imports only ``kml``
(models, model_io).  Fault injection attaches from the outside via the
duck-typed ``attach_faults`` hook, same as every other plane.
"""

from .registry import ModelRegistry, ModelSnapshot, RegistryError

__all__ = ["ModelRegistry", "ModelSnapshot", "RegistryError"]

"""Block layer: the device-level readahead knob KML actuates.

The paper's KML application "changes readahead sizes using block device
layer ioctls and updates the readahead values in struct files"
(section 3.3).  :class:`BlockLayer` is that actuation point: it owns
the device-wide default ``ra_pages`` (set by the ``BLKRASET`` ioctl,
read back through the property) that files inherit unless they carry a
per-file override.
"""

from __future__ import annotations

from .device import DeviceModel

__all__ = ["BlockLayer", "DEFAULT_RA_PAGES"]

#: Linux's default readahead is 128 KiB; in our page units that is 128,
#: matching the midpoint of the paper's 8..1024 sweep range.
DEFAULT_RA_PAGES = 128


class BlockLayer:
    """One block device plus its tunable readahead default."""

    def __init__(self, device: DeviceModel, ra_pages: int = DEFAULT_RA_PAGES):
        if ra_pages < 0:
            raise ValueError("ra_pages must be non-negative")
        self.device = device
        self._ra_pages = ra_pages
        self.ra_changes = 0  # how many times the knob moved (KML telemetry)

    def ioctl_blkraset(self, ra_pages: int) -> None:
        """Set the device readahead value (BLKRASET)."""
        if ra_pages < 0:
            raise ValueError("ra_pages must be non-negative")
        if ra_pages != self._ra_pages:
            self.ra_changes += 1
        self._ra_pages = ra_pages

    @property
    def ra_pages(self) -> int:
        return self._ra_pages

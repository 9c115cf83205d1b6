"""repro.integrity — end-to-end data integrity for the simulated server.

Per-block checksums attach where bytes become durable (the
:class:`~repro.fs.buffer_cache.DurableImage` commit points) and are
verified on every path that turns durable bytes back into served bytes —
buffer-cache miss, fsck, replica resync, scrub.  A mismatch is never
silent: it raises :class:`~repro.integrity.errors.CorruptBlockError`,
which the NFS read path surfaces as EIO and quarantines.

Media faults that *create* corruption (bit rot, latent sector errors,
torn writes, NVRAM battery degrade) live in ``repro.faults.events``; the
:class:`~repro.integrity.scrub.Scrubber` closes the loop by detecting
them in the background and self-healing from replica peers — or, with
nobody to fetch from, surfacing them loudly.

The package itself exports only the checksum/error primitives (leaves
the buffer cache depends on); the scrubber lives in
:mod:`repro.integrity.scrub` and the experiment in
:mod:`repro.integrity.experiment`.
"""

from repro.integrity.checksum import block_digest
from repro.integrity.errors import CorruptBlockError

__all__ = ["block_digest", "CorruptBlockError"]

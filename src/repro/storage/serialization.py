"""The page-store codec: binary page images of R-tree nodes.

:class:`NodeCodec` is the one node codec the live index runs on.  It sits
at the buffer pool's **disk boundary**
(:class:`~repro.storage.buffer.BufferPool`): frames hold decoded nodes,
:meth:`NodeCodec.decode` runs once per physical read (and per uncharged
peek of a page that is not resident), and :meth:`NodeCodec.encode` once
per physical write — a dirty eviction, a flush, or an unbuffered write.  A
buffer hit costs no codec work and keeps whatever the node memoised (its
MBR) alive between visits; the simulated disk holds ``bytes``.  The format
is columnar and always binary64 (the live index must not quantize
coordinates): a header, then all entry MBRs as one contiguous f64 block,
then all entry ids as one contiguous u32 block — the node's own two
columns (:class:`~repro.rtree.node.Node`), moved with
``array.tobytes``/``frombytes`` and no per-entry parsing.  The header of a
non-empty node also carries the node's tight MBR (flag bit 1), which seeds
the decoded node's memo: the bound is page data, kept current by the
node's write methods, not something every physical read re-derives with a
sweep over the entries.

The physical image of a full node (36 bytes per entry) exceeds the
paper's logical 1 KB page budget, which assumes 4-byte coordinates.  That
is deliberate: the logical sizing model — capacities, fan-out, tree
height, and therefore every I/O count the paper figures report — is
unchanged; only the bytes a simulated page holds differ.  The mapping
between logical and physical accesses stays 1:1.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Optional

from repro.geometry import Rect
from repro.rtree.node import Node

_NO_PARENT = 0xFFFFFFFF
_FLAG_HAS_STORED_MBR = 0x01
_FLAG_HAS_TIGHT_MBR = 0x02
_KNOWN_FLAGS = _FLAG_HAS_STORED_MBR | _FLAG_HAS_TIGHT_MBR
#: Flags and stored-MBR fields of a header whose node has no ε-slack.
_NO_STORED_MBR = (0, 0.0, 0.0, 0.0, 0.0)

# Header (level, count, parent, flags, stored MBR), always binary64, then a
# columnar body; the tight MBR of a non-empty node trails the fixed header.
_PAGE_HEADER = struct.Struct("<HHIB4d")
_PAGE_HEADER_WITH_MBR = struct.Struct("<HHIB4d4d")
_FLAGS_OFFSET = 8  # the B of <HHIB...
_COORD_BYTES = 8  # one binary64 coordinate
_CHILD_BYTES = 4  # one unsigned 32-bit id
_ENTRY_BYTES = 4 * _COORD_BYTES + _CHILD_BYTES

# The node's columns are the image's blocks byte for byte on a little-endian
# platform whose array('I') items are 4 bytes wide (array('d') is always
# IEEE-754 binary64).  Anywhere else the codec packs and unpacks the columns
# through ``struct`` — the only path on those platforms.
_COLUMNS_ARE_IMAGE = sys.byteorder == "little" and array("I").itemsize == _CHILD_BYTES


class SerializationError(ValueError):
    """Raised when a page image is not a well-formed node image."""


class NodeCodec:
    """Lossless columnar page codec for the live page store.

    Page image format (little-endian)::

        header   <HHIB4d>  level, entry count, parent (0xFFFFFFFF = none),
                           flags, stored MBR (valid iff flag bit 0)
        [mbr     <4d>      tight MBR of the entries, present iff flag bit 1]
        coords   count * 4 binary64   all MBRs, stride 4
        children count * 1 uint32     all ids

    :meth:`encode` sets flag bit 1 for every non-empty node (an empty node
    has no MBR); :meth:`decode` reads images with and without it, so a page
    written before the bit existed is a valid image whose node derives its
    bound on first use.  Any other flag bit is rejected.

    Coordinates are binary64 — a decode always reproduces exactly what was
    encoded, so the page store never perturbs the index geometry.
    """

    __slots__ = ()

    def encode(self, node: Node) -> bytes:
        count = len(node.children)
        parent = node.parent_page_id
        if parent is None:
            parent = _NO_PARENT
        stored = node.stored_mbr
        flags, sx0, sy0, sx1, sy1 = (
            _NO_STORED_MBR if stored is None
            else (_FLAG_HAS_STORED_MBR, stored.xmin, stored.ymin, stored.xmax, stored.ymax)
        )  # fmt: skip
        if count:
            tight = node.mbr()
            header = _PAGE_HEADER_WITH_MBR.pack(
                node.level, count, parent, flags | _FLAG_HAS_TIGHT_MBR,
                sx0, sy0, sx1, sy1,
                tight.xmin, tight.ymin, tight.xmax, tight.ymax,
            )  # fmt: skip
        else:
            header = _PAGE_HEADER.pack(node.level, 0, parent, flags, sx0, sy0, sx1, sy1)
        if _COLUMNS_ARE_IMAGE:
            return b"".join((header, node.coords.tobytes(), node.children.tobytes()))
        return b"".join(
            (
                header,
                struct.pack(f"<{len(node.coords)}d", *node.coords),
                struct.pack(f"<{count}I", *node.children),
            )
        )

    def decode(self, page_id: int, data: bytes) -> Node:
        if not isinstance(data, (bytes, bytearray)):
            raise SerializationError(
                f"page {page_id} holds {type(data).__name__}, not a binary image"
            )
        size = len(data)
        if size < _PAGE_HEADER.size:
            raise SerializationError("page image shorter than the node header")
        flags = data[_FLAGS_OFFSET]
        mbr = None
        if flags & _FLAG_HAS_TIGHT_MBR:
            if size < _PAGE_HEADER_WITH_MBR.size:
                raise SerializationError("page image shorter than its flagged header")
            (level, count, parent, flags, sx0, sy0, sx1, sy1,
             xmin, ymin, xmax, ymax) = _PAGE_HEADER_WITH_MBR.unpack_from(data)  # fmt: skip
            # Written as a chain so that a NaN fails it.
            if not (count and xmin <= xmax and ymin <= ymax):
                raise SerializationError(
                    f"page {page_id}: header MBR ({xmin}, {ymin}, {xmax}, {ymax}) "
                    f"is not a bound of {count} entries"
                )
            mbr = Rect._raw(xmin, ymin, xmax, ymax)
            coords_start = _PAGE_HEADER_WITH_MBR.size
        else:
            level, count, parent, flags, sx0, sy0, sx1, sy1 = _PAGE_HEADER.unpack_from(data)
            coords_start = _PAGE_HEADER.size
        if flags & ~_KNOWN_FLAGS:
            raise SerializationError(
                f"page {page_id}: unknown header flag bits {flags & ~_KNOWN_FLAGS:#04x}"
            )
        coords_end = coords_start + count * 4 * _COORD_BYTES
        children_end = coords_end + count * _CHILD_BYTES
        if size < children_end:
            raise SerializationError("truncated entry blocks in page image")

        # The node as last written, adopting the decoded columns; its memo is
        # the header bound (or unknown), and nothing has arrived since.
        node = Node.__new__(Node)
        node.page_id = page_id
        node.level = level
        node.parent_page_id = None if parent == _NO_PARENT else parent
        node.stored_mbr = (
            Rect._raw(sx0, sy0, sx1, sy1) if flags & _FLAG_HAS_STORED_MBR else None
        )
        node.coords = coords = array("d")
        node.children = children = array("I")
        node.arrived = None
        node._mbr = mbr
        if _COLUMNS_ARE_IMAGE:
            coords.frombytes(data[coords_start:coords_end])
            children.frombytes(data[coords_end:children_end])
        else:
            coords.extend(struct.unpack(f"<{4 * count}d", data[coords_start:coords_end]))
            children.extend(struct.unpack(f"<{count}I", data[coords_end:children_end]))
        return node

    def decode_mbr(self, page_id: int, data: bytes) -> Optional[Rect]:
        """The tight MBR of the node on *data* (``None`` if empty), read from the header.

        Only an image :meth:`decode` accepts with the bound in its header is
        read here.  Any other goes through :meth:`decode`, which rejects a
        malformed image: an empty node's carries no bound, and one written
        before the header carried it derives the bound from its entries.
        """
        if isinstance(data, (bytes, bytearray)) and len(data) >= _PAGE_HEADER_WITH_MBR.size:
            (_level, count, _parent, flags, _sx0, _sy0, _sx1, _sy1,
             xmin, ymin, xmax, ymax) = _PAGE_HEADER_WITH_MBR.unpack_from(data)  # fmt: skip
            if (
                flags & _FLAG_HAS_TIGHT_MBR and not flags & ~_KNOWN_FLAGS
                and count and xmin <= xmax and ymin <= ymax
                and len(data) >= _PAGE_HEADER_WITH_MBR.size + count * _ENTRY_BYTES
            ):  # fmt: skip
                return Rect._raw(xmin, ymin, xmax, ymax)
        node = self.decode(page_id, data)
        return node.mbr() if len(node) else None

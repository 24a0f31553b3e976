"""Self-describing binary marshaling (FFS/PBIO-like).

EVPath marshals messages with FFS: message *formats* (named, typed field
lists) are registered once, and messages on the wire carry a compact format
id plus packed field data.  A receiver that has not seen a format yet can
recover it from the format's self-description, which is itself encodable.

This package implements that scheme for real: :class:`FormatRegistry` holds
formats, :func:`encode` / :func:`decode` produce and parse actual bytes.
Both the messaging layer and the BP-lite file format build on it.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "codec": "MarshalError decode_message decode_stream decode_view "
             "encode_into encode_message encoded_size",
    "format": "Field FieldKind Format FormatRegistry",
})

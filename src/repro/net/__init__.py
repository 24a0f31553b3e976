"""Network plane: the directory daemon, its frame protocol, and clients.

Everything before this package lived in one process; :mod:`repro.net`
is where FlexIO becomes a *service*.  Three modules:

* :mod:`repro.net.protocol` — the small length-prefixed, versioned
  frame protocol both planes speak, built on the marshal codec's
  generated per-format ``encode_into``/``decode_view`` over spans;
* :mod:`repro.net.server` — the asyncio directory daemon: a control
  port (hello/auth, named-stream open, lease heartbeats) and a data
  port (step publish/fetch broker, a held FETCH a timer) with
  per-tenant admission control and labeled telemetry, every frame
  answered from protocol callbacks in the turn that completed it;
* :mod:`repro.net.client` — ``connect("flexio://host:port/tenant")``
  and the remote step-API handles behind it.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "client": "Client NetError RemoteClient connect parse_flexio_uri",
    "protocol": "PROTOCOL_VERSION Frame MsgType ProtocolError decode_frame "
                "encode_frame",
})

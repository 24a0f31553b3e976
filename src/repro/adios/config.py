"""The external XML configuration file (ADIOS-style).

Applications never name their transport in code: an XML file binds each
adios-group to an I/O *method* plus parameter hints, and "a one-line update
to the configuration file is sufficient to switch between file I/O and
online data movement transports" (paper Section II.B).

Example::

    <adios-config>
      <adios-group name="particles">
        <var name="zion" type="float64" dimensions="n,7"/>
        <var name="electron" type="float64" dimensions="n,7"/>
      </adios-group>
      <method group="particles" method="FLEXPATH">
        caching=ALL;batching=true;sync=false
      </method>
      <buffer size-MB="64"/>
    </adios-config>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from repro.adios.model import Group


#: The ``MPI_AGGREGATE`` parameter (aggregator fan-in).  Spelled here,
#: below :mod:`repro.core.hints` which registers it, because the method
#: reading it is in this layer.
AGGREGATORS = "aggregators"


class ConfigError(RuntimeError):
    """Malformed configuration document."""


@dataclass(frozen=True)
class MethodSpec:
    """Which I/O method a group uses, plus its hint parameters."""

    group: str
    method: str
    parameters: dict[str, str] = field(default_factory=dict)

    def param(self, key: str, default: str | None = None) -> Optional[str]:
        return self.parameters.get(key, default)

    def param_bool(self, key: str, default: bool = False) -> bool:
        raw = self.parameters.get(key)
        if raw is None:
            return default
        return raw.strip().lower() in ("1", "true", "yes", "on")

    def param_int(self, key: str, default: int = 0) -> int:
        raw = self.parameters.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"parameter {key}={raw!r} is not an integer") from exc

    def param_float(self, key: str, default: float = 0.0) -> float:
        raw = self.parameters.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"parameter {key}={raw!r} is not a number") from exc


def _parse_params(text: Optional[str]) -> dict[str, str]:
    """Parse ``key=value;key=value`` hint strings."""
    out: dict[str, str] = {}
    if not text:
        return out
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad parameter {piece!r} (expected key=value)")
        key, _, value = piece.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_dimensions(text: Optional[str]) -> Optional[tuple[int, ...]]:
    """Dimensions like ``128,64`` (or ``n,7`` — letters mean write-time)."""
    if not text:
        return None
    dims = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError(f"empty dimension in {text!r}")
        dims.append(int(tok) if tok.lstrip("-").isdigit() else -1)
    return tuple(dims)


@dataclass
class AdiosConfig:
    """Parsed configuration: groups, method bindings, buffer settings."""

    groups: dict[str, Group] = field(default_factory=dict)
    methods: dict[str, MethodSpec] = field(default_factory=dict)
    buffer_mb: int = 64

    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, text: str) -> "AdiosConfig":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigError(f"XML parse error: {exc}") from exc
        if root.tag != "adios-config":
            raise ConfigError(f"root element is <{root.tag}>, expected <adios-config>")
        cfg = cls()
        for elem in root:
            if elem.tag == "adios-group":
                name = elem.get("name")
                if not name:
                    raise ConfigError("<adios-group> missing name attribute")
                if name in cfg.groups:
                    raise ConfigError(f"duplicate group {name!r}")
                group = Group(name)
                for var in elem.findall("var"):
                    vname = var.get("name")
                    if not vname:
                        raise ConfigError(f"<var> in group {name!r} missing name")
                    group.declare(
                        vname,
                        dtype=var.get("type", "float64"),
                        global_shape=_parse_dimensions(var.get("dimensions")),
                    )
                cfg.groups[name] = group
            elif elem.tag == "method":
                gname = elem.get("group")
                method = elem.get("method")
                if not gname or not method:
                    raise ConfigError("<method> needs group and method attributes")
                if gname in cfg.methods:
                    raise ConfigError(f"group {gname!r} bound to two methods")
                cfg.methods[gname] = MethodSpec(
                    gname, method.upper(), _parse_params(elem.text)
                )
            elif elem.tag == "buffer":
                size = elem.get("size-MB")
                if size is not None:
                    cfg.buffer_mb = int(size)
            else:
                raise ConfigError(f"unknown element <{elem.tag}>")
        for gname in cfg.methods:
            if gname not in cfg.groups:
                raise ConfigError(f"<method> references unknown group {gname!r}")
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "AdiosConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_xml(fh.read())

    # ------------------------------------------------------------------
    def method_for(self, group: str) -> MethodSpec:
        spec = self.methods.get(group)
        if spec is None:
            # ADIOS default: file I/O.
            return MethodSpec(group, "BP", {})
        return spec

    def group(self, name: str) -> Group:
        try:
            return self.groups[name]
        except KeyError:
            raise ConfigError(f"no group {name!r} in configuration") from None

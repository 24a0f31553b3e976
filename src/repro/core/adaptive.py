"""Runtime management: monitoring-driven placement decisions
(paper Sections II.F, II.G, IV).

:class:`DCPlacementController` decides, step by step, which address
space each Data Conditioning plug-in should execute in.  Monitoring
data gathered from the simulation side (its busy fraction) combines
with each codelet's observed behaviour (its data-reduction ratio and
execution cost): reducers migrate toward the writer when the writer
has CPU headroom (saving movement), expanders and heavy codelets
migrate toward the reader.  Hysteresis prevents ping-ponging.  Each
migration is a ``plugin.migrate`` flight event and, through
:meth:`PluginManager.migrate`, a ``plugin.migrations`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.plugins import DCPlugin, PluginManager, PluginSide
from repro.obs import recorder as flight
from repro.obs.events import EV_PLUGIN_MIGRATE


# ---------------------------------------------------------------------------
# DC plug-in placement control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptivePolicy:
    """Thresholds for the placement rules."""

    #: A codelet whose output/input byte ratio is below this is a
    #: *reducer*: running it writer-side shrinks what must move.
    reducer_ratio: float = 0.9
    #: A codelet at/above this ratio is an *expander* (e.g. annotation):
    #: it belongs reader-side so the extra bytes never cross.
    expander_ratio: float = 1.0
    #: Writer-side codelets may consume at most this fraction of the
    #: simulation's step time; beyond it they migrate off the writer.
    writer_cpu_budget: float = 0.10
    #: The simulation must be below this busy fraction for codelets to
    #: migrate toward it.
    writer_busy_limit: float = 0.95
    #: Consecutive identical decisions required before migrating.
    hysteresis: int = 2

    def __post_init__(self) -> None:
        if not (0 < self.reducer_ratio <= self.expander_ratio):
            raise ValueError("need 0 < reducer_ratio <= expander_ratio")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")


@dataclass(frozen=True)
class MigrationEvent:
    """One migration the controller performed."""

    step: int
    plugin: str
    from_side: PluginSide
    to_side: PluginSide
    reason: str


class DCPlacementController:
    """Per-stream controller migrating codelets between address spaces."""

    def __init__(
        self,
        plugins: PluginManager,
        policy: Optional[AdaptivePolicy] = None,
    ) -> None:
        self.plugins = plugins
        self.policy = policy or AdaptivePolicy()
        self.events: list[MigrationEvent] = []
        self._votes: dict[str, tuple[PluginSide, int]] = {}
        self._step = 0

    # ------------------------------------------------------------------
    def _desired_side(
        self, plugin: DCPlugin, writer_busy: float, sim_step_time: float
    ) -> tuple[PluginSide, str]:
        ratio = plugin.reduction_ratio
        if plugin.stats.invocations == 0:
            return plugin.side, "no observations yet"
        if ratio >= self.policy.expander_ratio:
            return PluginSide.READER, f"expander (ratio {ratio:.2f})"
        # Reducers want the writer — if the writer can afford them.
        exec_per_step = (
            plugin.stats.exec_time / plugin.stats.invocations
            if plugin.stats.exec_time > 0
            else 0.0
        )
        cost_frac = exec_per_step / sim_step_time if sim_step_time > 0 else 0.0
        if ratio < self.policy.reducer_ratio:
            if (
                writer_busy < self.policy.writer_busy_limit
                and cost_frac <= self.policy.writer_cpu_budget
            ):
                return PluginSide.WRITER, f"reducer (ratio {ratio:.2f})"
            return (
                PluginSide.READER,
                f"reducer but writer overloaded (busy {writer_busy:.2f}, "
                f"cost {cost_frac:.2f})",
            )
        return plugin.side, f"neutral (ratio {ratio:.2f})"

    def observe_step(
        self, writer_busy_fraction: float, sim_step_time: float = 1.0
    ) -> list[MigrationEvent]:
        """Feed one step's simulation-side monitoring; maybe migrate.

        Returns the migrations performed this step.
        """
        if not (0.0 <= writer_busy_fraction <= 1.0):
            raise ValueError("writer_busy_fraction in [0, 1]")
        performed: list[MigrationEvent] = []
        for plugin in self.plugins.plugins():
            desired, reason = self._desired_side(
                plugin, writer_busy_fraction, sim_step_time
            )
            if desired == plugin.side:
                self._votes.pop(plugin.name, None)
                continue
            side, count = self._votes.get(plugin.name, (desired, 0))
            count = count + 1 if side == desired else 1
            self._votes[plugin.name] = (desired, count)
            if count >= self.policy.hysteresis:
                event = MigrationEvent(
                    step=self._step,
                    plugin=plugin.name,
                    from_side=plugin.side,
                    to_side=desired,
                    reason=reason,
                )
                self.plugins.migrate(plugin.name, desired)
                self._votes.pop(plugin.name, None)
                self.events.append(event)
                performed.append(event)
                flight.record(
                    EV_PLUGIN_MIGRATE, plugin=event.plugin, step=event.step,
                    src=event.from_side.value, dst=event.to_side.value,
                    reason=event.reason,
                )
        self._step += 1
        return performed

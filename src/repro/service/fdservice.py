"""The shared failure-detection service (monitor side).

§V-C Step 4: "The FD service uses Δi_min for sending heartbeats and
computes freshness points τ_{i,j} differently for each app_j by using each
Δto_j".  The crucial efficiency property is that the *estimation* work is
shared: the service maintains one set of arrival windows; each application
only contributes a constant margin added to the common expected-arrival
estimate.  q therefore does O(windows) work per heartbeat regardless of how
many applications are registered, and each application sees exactly the
output a dedicated detector with its margin would produce.

:class:`SharedFDMonitor` is that monitor-side engine (usable directly in
the simulator); :class:`FDService` wraps it together with the §V-C
configuration procedure, going from application QoS tuples straight to a
running shared monitor.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro._validation import ensure_non_negative, ensure_positive
from repro.core.estimation import ArrivalEstimator
from repro.core.freshness import FreshnessOutput
from repro.qos.estimators import NetworkBehavior
from repro.qos.shared import SharedConfiguration, combine
from repro.service.application import Application

__all__ = ["SharedFDMonitor", "FDService"]


class SharedFDMonitor:
    """One estimation state, one heartbeat stream, per-app freshness points.

    Parameters
    ----------
    interval:
        The shared heartbeat interval Δi_min.
    margins:
        ``app name -> Δto_j`` (each application's adapted safety margin).
    window_sizes:
        Estimation windows shared by all applications; the default
        ``(1, 1000)`` runs the service on the paper's 2W-FD, its
        best-performing detector (a single-window tuple yields Chen's FD).
    """

    def __init__(
        self,
        interval: float,
        margins: Mapping[str, float],
        window_sizes: Sequence[int] = (1, 1000),
    ):
        ensure_positive(interval, "interval")
        if not margins:
            raise ValueError("at least one application margin is required")
        self._interval = float(interval)
        self._margins: Dict[str, float] = {
            name: ensure_non_negative(m, f"margin[{name}]")
            for name, m in margins.items()
        }
        if not window_sizes:
            raise ValueError("at least one window size is required")
        self._estimators = tuple(
            ArrivalEstimator(w, interval) for w in window_sizes
        )
        self._outputs: Dict[str, FreshnessOutput] = {
            name: FreshnessOutput() for name in self._margins
        }
        self._largest_seq = 0
        self._deadlines: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def interval(self) -> float:
        return self._interval

    @property
    def application_names(self) -> Tuple[str, ...]:
        return tuple(self._margins)

    def margin(self, name: str) -> float:
        return self._margins[name]

    # ------------------------------------------------------------------
    def receive(self, seq: int, arrival: float) -> bool:
        """Deliver one heartbeat; updates every application's output.

        The expected arrival is computed once (max over the shared
        windows, Eq. 12) and each application's freshness point is
        ``EA + Δto_j`` — the §V-C Step 4 rule.
        """
        seq = int(seq)
        if seq <= self._largest_seq:
            return False
        self._largest_seq = seq
        for est in self._estimators:
            est.observe(seq, arrival)
        ea = max(est.expected_arrival(seq + 1) for est in self._estimators)
        for name, margin in self._margins.items():
            deadline = ea + margin
            self._deadlines[name] = deadline
            self._outputs[name].on_heartbeat(arrival, deadline)
        return True

    def is_trusting(self, name: str, now: float) -> bool:
        """Application ``name``'s view of the monitored process at ``now``."""
        deadline = self._deadlines.get(name)
        if deadline is None:
            self._require(name)
            return False
        return now < deadline

    def outputs_at(self, now: float) -> Dict[str, bool]:
        return {name: self.is_trusting(name, now) for name in self._margins}

    def suspicion_deadline(self, name: str) -> float | None:
        self._require(name)
        return self._deadlines.get(name)

    def advance_to(self, now: float) -> None:
        """Materialize deadline expiries up to ``now`` for every application.

        Online users (the live runtime's poll timer) call this so that a
        freshness point passing between heartbeats becomes an S-transition
        at the expiry instant, exactly as the per-detector engines do.
        """
        for out in self._outputs.values():
            out.advance_to(now)

    def transitions(self, name: str) -> List[Tuple[float, bool]]:
        """Application ``name``'s retained transition log (time, trust)."""
        self._require(name)
        return list(self._outputs[name].transitions)

    def n_suspicions(self, name: str) -> int:
        """Total S-transitions ever recorded for ``name`` (O(1))."""
        self._require(name)
        return self._outputs[name].n_suspicions

    def drain_transitions(
        self, name: str, cursor: int
    ) -> Tuple[List[Tuple[float, bool]], int]:
        """``(new transitions, new cursor)`` for ``name`` past ``cursor``.

        Absolute-cursor incremental drain, O(new) per call — the live
        bridge's event-stream hot path.
        """
        self._require(name)
        return self._outputs[name].transitions_since(cursor)

    def set_transition_retention(self, max_retained: int | None) -> None:
        """Bound every application's retained transition log."""
        for out in self._outputs.values():
            out.set_retention(max_retained)

    def finalize(self, end_time: float) -> Dict[str, List[Tuple[float, bool]]]:
        """Close all applications' observation windows; return transitions."""
        return {
            name: out.finalize(end_time) for name, out in self._outputs.items()
        }

    def _require(self, name: str) -> None:
        if name not in self._margins:
            raise KeyError(
                f"unknown application {name!r}; registered: "
                f"{', '.join(self._margins)}"
            )


class FDService:
    """End-to-end shared service: QoS tuples in, shared monitor out.

    Runs the §V-C combination procedure at construction and exposes both
    the resulting configuration (heartbeat interval, per-app margins,
    traffic accounting) and a ready :class:`SharedFDMonitor`.
    """

    def __init__(
        self,
        applications: Sequence[Application],
        behavior: NetworkBehavior,
        window_sizes: Sequence[int] = (1, 1000),
        **configure_kwargs: object,
    ):
        if not applications:
            raise ValueError("at least one application is required")
        names = [app.name for app in applications]
        if len(set(names)) != len(names):
            raise ValueError(f"application names must be unique, got {names}")
        self._applications = tuple(applications)
        self._config: SharedConfiguration = combine(
            [app.spec for app in applications], behavior, **configure_kwargs
        )
        self._monitor = SharedFDMonitor(
            self._config.interval,
            {
                app.spec.name: app.safety_margin
                for app in self._config.applications
            },
            window_sizes=window_sizes,
        )

    @property
    def configuration(self) -> SharedConfiguration:
        return self._config

    @property
    def monitor(self) -> SharedFDMonitor:
        return self._monitor

    @property
    def heartbeat_interval(self) -> float:
        """Δi_min: what the monitored host must be asked to send."""
        return self._config.interval

    @property
    def message_rate(self) -> float:
        return self._config.message_rate

    @property
    def traffic_reduction(self) -> float:
        return self._config.traffic_reduction

    def describe(self) -> str:
        """Human-readable configuration summary."""
        lines = [
            f"Shared FD service: Δi = {self._config.interval:.4g}s "
            f"({self._config.message_rate:.3g} msg/s vs "
            f"{self._config.dedicated_message_rate:.3g} dedicated; "
            f"{100 * self._config.traffic_reduction:.1f}% saved)"
        ]
        for app in self._config.applications:
            lines.append(
                f"  {app.spec.name}: T_D={app.spec.detection_time:g}s  "
                f"Δto {app.dedicated.safety_margin:.4g}s → {app.safety_margin:.4g}s  "
                f"f bound {app.dedicated.mistake_rate_bound:.3g} → "
                f"{app.mistake_rate_bound:.3g}/s"
            )
        return "\n".join(lines)

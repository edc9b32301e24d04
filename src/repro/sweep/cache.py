"""Record-once / replay-many trace cache for sweep workers.

Simulating an app (spinning up a whole ``AndroidDevice``) is orders of
magnitude more expensive than re-tracking its recorded event stream, and
a grid multiplies the replay count, not the simulation count.  The cache
records each suite exactly once — in the parent process, before any
worker starts — and every cell replays those same
:class:`~repro.analysis.accuracy.AppRun` objects, so grid results cannot
diverge between serial and parallel runs via re-recording.

With a ``backing_store`` (:class:`repro.store.ArtifactStore`) the
record-once guarantee extends from *per process* to *per store*: a
recording pass first checks the store by content digest, and only a miss
(or a quarantined corrupt entry) actually simulates — a second CLI
invocation against the same store performs **zero** recordings.

The cache crosses into dispatcher workers as a plain picklable payload
(:meth:`payload` / :meth:`from_payload`).  Without a store that payload
carries the full recorded suites; with one, it carries only the store
path and entry digests — workers re-open the store read-only and load
from disk, which keeps the spawn-method transfer cost flat in the suite
size (measured in ``benchmarks/bench_sweep_scaling.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class TraceCache:
    """Lazily-recorded, shareable store of suite recordings.

    Args:
        droidbench: pre-recorded DroidBench runs to serve (skips
            recording *and* the backing store for that suite); ``None``
            consults the store, then records the full 57-app suite.
        malware: pre-recorded malware runs; same contract.
        malware_work: background workload size used when the cache has
            to record the malware samples itself (part of the store key).
        backing_store: optional :class:`repro.store.ArtifactStore`; hits
            skip recording entirely, misses record then persist.
    """

    def __init__(
        self,
        droidbench: Optional[Sequence] = None,
        malware: Optional[Sequence] = None,
        malware_work: int = 16,
        backing_store=None,
    ) -> None:
        self._droidbench: Optional[List] = (
            list(droidbench) if droidbench is not None else None
        )
        self._malware: Optional[List] = (
            list(malware) if malware is not None else None
        )
        # Explicitly-provided runs may be arbitrary subsets; they never
        # round-trip through the store (whose keys name the canonical
        # full-suite recordings only).
        self._droidbench_explicit = droidbench is not None
        self._malware_explicit = malware is not None
        self.malware_work = malware_work
        self.backing_store = backing_store
        #: How many recording passes this cache performed (observability /
        #: the record-once regression test).
        self.recordings = 0
        #: How many suites were served from the backing store.
        self.store_hits = 0

    def _from_store(self, key):
        if self.backing_store is None:
            return None
        runs = self.backing_store.get_runs(key)
        if runs is not None:
            self.store_hits += 1
        return runs

    def _persist(self, key, runs) -> None:
        if self.backing_store is not None and not self.backing_store.read_only:
            self.backing_store.put_runs(key, runs)

    def droidbench_runs(self) -> List:
        """The DroidBench suite's recorded runs, recorded at most once."""
        if self._droidbench is None:
            from repro.store import droidbench_key

            key = droidbench_key()
            runs = self._from_store(key)
            if runs is None:
                from repro.apps.droidbench import record_suite

                runs = record_suite()
                self.recordings += 1
                self._persist(key, runs)
            self._droidbench = runs
        return self._droidbench

    def malware_runs(self) -> List:
        """The malware samples' recorded runs, recorded at most once."""
        if self._malware is None:
            from repro.store import malware_key

            key = malware_key(self.malware_work)
            runs = self._from_store(key)
            if runs is None:
                from repro.analysis.degradation import record_malware_runs

                runs = record_malware_runs(work=self.malware_work)
                self.recordings += 1
                self._persist(key, runs)
            self._malware = runs
        return self._malware

    def prime(self, droidbench: bool = False, malware: bool = False) -> None:
        """Force the named suites to be recorded now (parent-side)."""
        if droidbench:
            self.droidbench_runs()
        if malware:
            self.malware_runs()

    def prime_replay_state(self) -> None:
        """Pre-build every run's replay plan and column encoding.

        Called once in the parent before forking, so workers inherit the
        derived structures instead of each rebuilding them.
        """
        from repro.analysis.replay import replay_plan_for

        for runs in (self._droidbench, self._malware):
            for app in runs or ():
                replay_plan_for(app.recorded)
                app.recorded.trace.columns()

    # -- worker transfer --------------------------------------------------

    def _suite_payload(self, runs, explicit: bool, key) -> Dict:
        """One suite's transfer form: by value, or by store digest.

        Digest transfer requires a committed store entry; anything else
        (explicit subset runs, a store the priming pass could not write
        to) falls back to shipping the runs themselves.
        """
        if (
            self.backing_store is not None
            and not explicit
            and self.backing_store.has(key)
        ):
            return {"digest": key.digest}
        return {"runs": runs}

    def payload(self) -> Dict:
        """The picklable form each sweep worker rebuilds the cache from."""
        payload: Dict = {"malware_work": self.malware_work}
        if self.backing_store is not None:
            from repro.store import droidbench_key, malware_key

            payload["store_path"] = str(self.backing_store.root)
            payload["droidbench"] = self._suite_payload(
                self._droidbench, self._droidbench_explicit, droidbench_key()
            )
            payload["malware"] = self._suite_payload(
                self._malware, self._malware_explicit,
                malware_key(self.malware_work),
            )
        else:
            payload["droidbench"] = {"runs": self._droidbench}
            payload["malware"] = {"runs": self._malware}
        return payload

    @classmethod
    def from_payload(
        cls, payload: Dict, telemetry=None
    ) -> "TraceCache":
        """Rebuild a worker-side cache; ``telemetry`` (the worker's own
        hub, when the sweep runs instrumented) feeds the re-opened
        store's ``store.*`` counters, which reach the parent with the
        worker's results, so parallel-run store traffic is attributed
        instead of lost."""
        store = None
        if payload.get("store_path"):
            from repro.store import ArtifactStore

            store = ArtifactStore(
                payload["store_path"], read_only=True, telemetry=telemetry
            )
        cache = cls(
            droidbench=payload["droidbench"].get("runs"),
            malware=payload["malware"].get("runs"),
            malware_work=payload["malware_work"],
            backing_store=store,
        )
        # Digest-form suites stay lazy: the worker loads them from the
        # read-only store on first use (re-verifying the checksum).
        return cache

"""The resilience layer: expanded fault model, recovery supervision,
checkpoint integrity, and the seeded chaos harness."""

import json
import os

import pytest

from repro import obs
from repro.dgps import connected_components_spec, pagerank_spec
from repro.dist import (
    Checkpoint,
    CheckpointCorrupt,
    FaultPlan,
    InMemoryCheckpointStore,
    JsonCheckpointStore,
    MessageDuplication,
    MessageLoss,
    RecoveryExhausted,
    RecoverySupervisor,
    RetryPolicy,
    ShardCountMismatch,
    WorkerKilled,
    payload_checksum,
    run_distributed_pregel,
)
from repro.dist.chaos import (
    corrupted_latest_probe,
    generate_schedule,
    run_chaos,
)
from repro.dist.chaos import main as chaos_main
from repro.generators import gnm_random_graph

import random


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(40, 80, directed=False, seed=5)


@pytest.fixture(scope="module")
def pagerank(graph):
    return pagerank_spec(graph, supersteps=8)


@pytest.fixture(scope="module")
def clean_pagerank(graph, pagerank):
    return run_distributed_pregel(graph, pagerank, k=3)


class TestFaultPlanDSL:
    def test_parse_flaky(self):
        plan = FaultPlan.parse("w1@3x2")
        (fault,) = plan.faults
        assert (fault.worker, fault.superstep, fault.attempts) == \
            ("w1", 3, 2)
        assert str(fault) == "w1@3x2"

    def test_parse_barrier_faults(self):
        plan = FaultPlan.parse("drop@3, dup@4x2")
        drop, dup = plan.faults
        assert (drop.kind, drop.superstep, drop.count) == ("drop", 3, 1)
        assert (dup.kind, dup.superstep, dup.count) == ("duplicate", 4, 2)

    def test_parse_slow(self):
        plan = FaultPlan.parse("w0@2+25ms")
        (fault,) = plan.faults
        assert (fault.worker, fault.superstep, fault.delay_ms) == \
            ("w0", 2, 25.0)

    def test_parse_corruption(self):
        plan = FaultPlan.parse("garble@3; truncate@5, corrupt@7")
        modes = [(f.superstep, f.mode) for f in plan.faults]
        assert modes == [(3, "garble"), (5, "truncate"), (7, "garble")]

    def test_parse_mixed_round_trips(self):
        spec = "w1@2x3, drop@4, w0@1+5ms, garble@5, w2@6"
        plan = FaultPlan.parse(spec)
        assert ", ".join(str(f) for f in plan.faults) == spec

    def test_parse_non_integer_superstep_names_chunk(self):
        # satellite: used to leak a bare int() ValueError
        with pytest.raises(ValueError, match=r"bad fault spec 'w1@abc'"):
            FaultPlan.parse("w1@abc")

    def test_parse_non_integer_attempts_names_chunk(self):
        with pytest.raises(ValueError, match=r"bad fault spec 'w1@3xq'"):
            FaultPlan.parse("w1@3xq")

    def test_parse_bad_delay_names_chunk(self):
        with pytest.raises(ValueError, match=r"bad fault spec 'w1@3\+zz'"):
            FaultPlan.parse("w1@3+zz")

    def test_parse_still_rejects_missing_superstep(self):
        with pytest.raises(ValueError, match="expected worker@superstep"):
            FaultPlan.parse("w1")

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().kill("w0", at_superstep=1, attempts=0)
        with pytest.raises(ValueError):
            FaultPlan().flaky("w0", at_superstep=1, attempts=1)
        with pytest.raises(ValueError):
            FaultPlan().slow("w0", at_superstep=1, delay_ms=0)
        with pytest.raises(ValueError):
            FaultPlan().drop_messages(at_superstep=1, count=0)
        with pytest.raises(ValueError):
            FaultPlan().corrupt_checkpoint(at_superstep=1, mode="melt")

    def test_flaky_fires_attempts_times_then_stops(self):
        plan = FaultPlan().flaky("w0", at_superstep=1, attempts=2)
        for attempt in (1, 2):
            with pytest.raises(WorkerKilled) as caught:
                plan.check("w0", 1)
            assert caught.value.attempt == attempt
            assert caught.value.fault_type == "flaky"
        plan.check("w0", 1)  # budget spent: superstep goes through
        assert plan.exhausted

    def test_one_shot_hooks_fire_once(self):
        plan = (FaultPlan().drop_messages(at_superstep=2)
                .slow("w1", at_superstep=2, delay_ms=9.0)
                .corrupt_checkpoint(at_superstep=2))
        assert len(plan.barrier_faults(2)) == 1
        assert plan.barrier_faults(2) == []
        assert plan.slow_delay("w1", 2) == 9.0
        assert plan.slow_delay("w1", 2) == 0.0
        assert plan.corruption(2) is not None
        assert plan.corruption(2) is None
        assert plan.exhausted
        plan.reset()
        assert not plan.exhausted
        assert len(plan.barrier_faults(2)) == 1


class TestExpandedFaultRecovery:
    """Every fault class must recover to byte-identical values."""

    def test_flaky_worker_recovers(self, graph, pagerank, clean_pagerank):
        plan = FaultPlan().flaky("w1", at_superstep=2, attempts=3)
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 3
        assert [e.fault_type for e in faulted.recovery_events] == \
            ["flaky"] * 3
        # consecutive attempts at the same frontier, counted as such
        assert [e.attempt for e in faulted.recovery_events] == [1, 2, 3]

    def test_message_drop_detected_and_recovered(self, graph, pagerank,
                                                 clean_pagerank):
        plan = FaultPlan().drop_messages(at_superstep=2, count=3)
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 1
        assert faulted.recovery_events[0].fault_type == "drop"

    def test_message_duplication_detected_and_recovered(
            self, graph, pagerank, clean_pagerank):
        plan = FaultPlan().duplicate_messages(at_superstep=1, count=2)
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 1
        assert faulted.recovery_events[0].fault_type == "duplicate"

    def test_slow_worker_changes_nothing_but_is_recorded(
            self, graph, pagerank, clean_pagerank):
        plan = FaultPlan().slow("w1", at_superstep=2, delay_ms=40.0)
        with obs.capture() as trace:
            faulted = run_distributed_pregel(graph, pagerank, k=3,
                                             fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 0
        delays = [s["injected_delay_ms"]
                  for root in trace.roots
                  for s in root.find("dist.worker.superstep")
                  if "injected_delay_ms" in s.attributes]
        assert delays == [40.0]

    def test_barrier_fault_message_carries_counts(self):
        loss = MessageLoss(3, expected=10, delivered=7)
        assert "3 lost" in str(loss)
        dup = MessageDuplication(3, expected=10, delivered=12)
        assert "2 duplicated" in str(dup)

    def test_chaos_mix_single_run(self, graph, pagerank, clean_pagerank):
        plan = FaultPlan.parse("w1@1x2, drop@3, w0@5, w2@2+10ms")
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 4
        assert plan.exhausted


class TestRecoveryEdgeCases:
    """Satellite: kills at the boundaries of the superstep loop."""

    def test_kill_at_superstep_zero(self, graph):
        spec = connected_components_spec(graph)
        clean = run_distributed_pregel(graph, spec, k=2)
        faulted = run_distributed_pregel(
            graph, spec, k=2,
            fault_plan=FaultPlan().kill("w0", at_superstep=0))
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.recovery_events[0].restored_to == 0

    def test_kill_on_final_superstep(self, graph, pagerank,
                                     clean_pagerank):
        last = clean_pagerank.supersteps - 1
        faulted = run_distributed_pregel(
            graph, pagerank, k=3,
            fault_plan=FaultPlan().kill("w1", at_superstep=last))
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 1
        assert faulted.supersteps == clean_pagerank.supersteps

    def test_same_worker_killed_on_consecutive_supersteps(
            self, graph, pagerank, clean_pagerank):
        plan = FaultPlan().kill("w1", at_superstep=2).kill(
            "w1", at_superstep=3)
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recoveries == 2
        assert len(plan.fired) == 2

    def test_sparse_checkpoints_replay_distance(self, graph, pagerank,
                                                clean_pagerank):
        # checkpoint_every=3 -> checkpoints at 0 and 3; a kill at 5
        # must rewind two supersteps, not one
        faulted = run_distributed_pregel(
            graph, pagerank, k=3, checkpoint_every=3,
            fault_plan=FaultPlan().kill("w1", at_superstep=5))
        assert repr(faulted.values) == repr(clean_pagerank.values)
        (event,) = faulted.recovery_events
        assert event.restored_to == 3
        assert event.failed_at == 5
        assert event.replayed == 2
        assert faulted.replayed_supersteps() == 2


class TestCheckpointIntegrity:
    def _checkpoint(self, superstep=4, workers=2):
        states = [
            {"values": {i: float(i)}, "halted": set(), "inbox": {}}
            for i in range(workers)
        ]
        return Checkpoint(superstep=superstep, worker_states=states,
                          previous_aggregates={"total": 1.5})

    def test_payload_carries_checksum(self):
        payload = self._checkpoint().to_payload()
        assert payload["checksum"].startswith("sha256:")
        body = {k: v for k, v in payload.items() if k != "checksum"}
        assert payload["checksum"] == payload_checksum(body)

    def test_tampered_payload_rejected(self):
        payload = self._checkpoint().to_payload()
        payload["previous_aggregates"]["total"] = 99.0
        with pytest.raises(CheckpointCorrupt, match="checksum mismatch"):
            Checkpoint.from_payload(payload)

    def test_legacy_payload_without_checksum_loads(self):
        payload = self._checkpoint().to_payload()
        del payload["checksum"]
        assert Checkpoint.from_payload(payload).superstep == 4

    def test_memory_store_detects_garble(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint())
        store.corrupt(4, mode="garble")
        with pytest.raises(CheckpointCorrupt):
            store.load(4)

    def test_json_store_detects_garble_and_truncate(self, tmp_path):
        store = JsonCheckpointStore(tmp_path / "ckpt")
        store.save(self._checkpoint(superstep=1))
        store.save(self._checkpoint(superstep=2))
        store.corrupt(1, mode="garble")
        store.corrupt(2, mode="truncate")
        with pytest.raises(CheckpointCorrupt, match="checksum mismatch"):
            store.load(1)
        with pytest.raises(CheckpointCorrupt, match="not valid JSON"):
            store.load(2)

    def test_json_save_is_atomic(self, tmp_path, monkeypatch):
        store = JsonCheckpointStore(tmp_path / "ckpt")
        store.save(self._checkpoint(superstep=3))
        original = store.load(3)

        # a crash at the replace step must leave the old bytes intact
        def explode(src, dst):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(os, "replace", explode)
        newer = self._checkpoint(superstep=3)
        newer.previous_aggregates["total"] = 9.9
        with pytest.raises(OSError, match="simulated crash"):
            store.save(newer)
        monkeypatch.undo()
        survivor = store.load(3)
        assert survivor.previous_aggregates == \
            original.previous_aggregates

    def test_json_save_leaves_no_temp_files(self, tmp_path):
        store = JsonCheckpointStore(tmp_path / "ckpt")
        store.save(self._checkpoint())
        leftovers = [name for name in os.listdir(store.directory)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_clear_tolerates_missing_files(self, tmp_path):
        # satellite: clear() used to race os.remove against cleaners
        store = JsonCheckpointStore(tmp_path / "ckpt")
        store.save(self._checkpoint(superstep=1))
        store.save(self._checkpoint(superstep=2))
        os.remove(os.path.join(store.directory,
                               "checkpoint-000001.json"))
        store.clear()
        store.clear()  # idempotent
        assert store.supersteps() == []

    def test_prune_keeps_newest(self, tmp_path):
        for store in (InMemoryCheckpointStore(),
                      JsonCheckpointStore(tmp_path / "ckpt")):
            for superstep in range(6):
                store.save(self._checkpoint(superstep=superstep))
            dropped = store.prune(keep_last=2)
            assert dropped == [0, 1, 2, 3]
            assert store.supersteps() == [4, 5]
            assert store.prune(keep_last=2) == []
            with pytest.raises(ValueError):
                store.prune(keep_last=0)

    def test_corrupt_rejects_unknown_mode(self, tmp_path):
        memory = InMemoryCheckpointStore()
        memory.save(self._checkpoint())
        with pytest.raises(ValueError, match="unknown corruption mode"):
            memory.corrupt(4, mode="melt")
        on_disk = JsonCheckpointStore(tmp_path / "ckpt")
        on_disk.save(self._checkpoint())
        with pytest.raises(ValueError, match="unknown corruption mode"):
            on_disk.corrupt(4, mode="melt")


class TestRecoverySupervisor:
    def _checkpoint(self, superstep, workers=2):
        return Checkpoint(
            superstep=superstep,
            worker_states=[{"values": {}, "halted": set(), "inbox": {}}
                           for _ in range(workers)],
            previous_aggregates={})

    def test_backoff_schedule_recorded_not_slept(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_ms=10.0,
                             backoff_factor=2.0, backoff_cap_ms=50.0)
        assert policy.schedule() == [10.0, 20.0, 40.0, 50.0, 50.0]
        with pytest.raises(ValueError):
            policy.backoff_ms(0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_ms=-1)

    def test_falls_back_past_corrupt_latest(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(0))
        store.save(self._checkpoint(3))
        store.corrupt(3)
        supervisor = RecoverySupervisor(store)
        checkpoint, event = supervisor.recover(
            WorkerKilled("w1", 3), expected_shards=2)
        assert checkpoint.superstep == 0
        assert event.corrupt_skipped == [3]
        assert event.replayed == 3

    @pytest.mark.parametrize("damage", [
        b"\xff\xfe not utf-8",
        b"[1, 2]",
        b'{"superstep": 3}',  # legacy (no checksum) but incomplete
        b'{"superstep": 3, "previous_aggregates": {}, "workers": [5]}',
    ], ids=["non-utf8", "not-an-object", "legacy-missing-keys",
            "legacy-bad-worker"])
    def test_damaged_json_latest_falls_back(self, tmp_path, damage):
        store = JsonCheckpointStore(tmp_path / "ckpt")
        store.save(self._checkpoint(0))
        store.save(self._checkpoint(3))
        path = os.path.join(store.directory, "checkpoint-000003.json")
        with open(path, "wb") as handle:
            handle.write(damage)
        with pytest.raises(CheckpointCorrupt, match="checkpoint-000003"):
            store.load(3)
        checkpoint, event = RecoverySupervisor(store).recover(
            WorkerKilled("w1", 3), expected_shards=2)
        assert checkpoint.superstep == 0
        assert event.corrupt_skipped == [3]

    def test_all_corrupt_escalates(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(0))
        store.corrupt(0)
        supervisor = RecoverySupervisor(store)
        with pytest.raises(RecoveryExhausted,
                           match="no usable checkpoint"):
            supervisor.recover(WorkerKilled("w1", 1), expected_shards=2)

    def test_attempt_budget_escalates(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(0))
        supervisor = RecoverySupervisor(
            store, policy=RetryPolicy(max_attempts=2))
        fault = WorkerKilled("w1", 1)
        supervisor.recover(fault, expected_shards=2)
        supervisor.recover(fault, expected_shards=2)
        with pytest.raises(RecoveryExhausted, match="2 consecutive"):
            supervisor.recover(fault, expected_shards=2)

    def test_progress_resets_attempt_budget(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(0))
        supervisor = RecoverySupervisor(
            store, policy=RetryPolicy(max_attempts=2))
        fault = WorkerKilled("w1", 1)
        supervisor.recover(fault, expected_shards=2)
        supervisor.recover(fault, expected_shards=2)
        supervisor.note_progress()
        _, event = supervisor.recover(fault, expected_shards=2)
        assert event.attempt == 1

    def test_shard_count_mismatch_named(self):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(2, workers=3))
        supervisor = RecoverySupervisor(store)
        with pytest.raises(ShardCountMismatch) as caught:
            supervisor.recover(WorkerKilled("w0", 2), expected_shards=2)
        assert "3 worker shard(s)" in str(caught.value)
        assert "live run has 2" in str(caught.value)
        assert (caught.value.expected, caught.value.found) == (2, 3)


class TestEndToEndResilience:
    def test_corrupted_latest_falls_back_previous(self, graph, pagerank,
                                                  clean_pagerank):
        plan = (FaultPlan().corrupt_checkpoint(at_superstep=3)
                .kill("w1", at_superstep=3))
        faulted = run_distributed_pregel(graph, pagerank, k=3,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean_pagerank.values)
        (event,) = faulted.recovery_events
        assert event.restored_to == 2
        assert event.corrupt_skipped == [3]

    def test_corrupted_latest_on_json_store(self, graph, pagerank,
                                            clean_pagerank, tmp_path):
        plan = (FaultPlan()
                .corrupt_checkpoint(at_superstep=3, mode="truncate")
                .kill("w1", at_superstep=3))
        faulted = run_distributed_pregel(
            graph, pagerank, k=3, fault_plan=plan,
            checkpoint_store=JsonCheckpointStore(tmp_path / "ckpt"))
        assert repr(faulted.values) == repr(clean_pagerank.values)
        assert faulted.recovery_events[0].restored_to == 2

    def test_flaky_beyond_budget_escalates(self, graph, pagerank):
        plan = FaultPlan().flaky("w1", at_superstep=2, attempts=3)
        with pytest.raises(RecoveryExhausted):
            run_distributed_pregel(
                graph, pagerank, k=3, fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=2))

    def test_stale_store_from_bigger_topology_rejected(self, graph,
                                                       pagerank):
        store = InMemoryCheckpointStore()
        run_distributed_pregel(graph, pagerank, k=3,
                               checkpoint_store=store)
        with pytest.raises(ShardCountMismatch):
            run_distributed_pregel(
                graph, pagerank, k=2, checkpoint_store=store,
                fault_plan=FaultPlan().kill("w0", at_superstep=1))

    def test_fault_counters_by_type(self, graph, pagerank):
        obs.reset()
        registry = obs.get_registry()
        plan = FaultPlan.parse("w1@1, w0@2x2, drop@3, dup@4, w2@5+9ms")
        with obs.capture():
            run_distributed_pregel(graph, pagerank, k=3,
                                   fault_plan=plan)
        assert registry.counter("dist.faults.kill").value == 1
        assert registry.counter("dist.faults.flaky").value == 2
        assert registry.counter("dist.faults.drop").value == 1
        assert registry.counter("dist.faults.duplicate").value == 1
        assert registry.counter("dist.faults.slow").value == 1
        assert registry.histogram("dist.recovery_ms").count == 5
        obs.reset()


class TestChaosHarness:
    def test_generate_schedule_deterministic(self):
        first = generate_schedule(random.Random(11), 8, 3)
        second = generate_schedule(random.Random(11), 8, 3)
        assert repr(first) == repr(second)
        assert 1 <= len(first.faults) <= 2 * 3  # corrupt pairs a kill

    def test_probe_recovers_from_previous(self):
        probe = corrupted_latest_probe(vertices=30, k=2, seed=1)
        assert probe["identical"]
        assert probe["corrupt_skipped"] == [3]
        assert probe["restored_to"] == 2

    @pytest.mark.chaos_smoke
    def test_chaos_sweep_byte_identical(self):
        with obs.capture():
            report = run_chaos(seed=7, runs=3, vertices=30, k=2)
        assert report["all_identical"]
        assert len(report["runs"]) == 3
        assert report["probe"]["identical"]
        for row in report["runs"]:
            assert row["recoveries"] == len(row["recovery_events"])

    def test_chaos_json_store(self, tmp_path):
        with obs.capture():
            report = run_chaos(seed=2, runs=2, vertices=24, k=2,
                               store="json",
                               store_dir=str(tmp_path / "chaos"))
        assert report["all_identical"]
        assert (tmp_path / "chaos").is_dir()

    def test_chaos_rejects_unknown_store(self):
        with pytest.raises(ValueError, match="unknown store"):
            run_chaos(runs=0, store="s3")

    def test_main_prints_report(self, capsys):
        assert chaos_main(["--seed", "7", "--runs", "2",
                           "--vertices", "24", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos report" in out
        assert "corrupted-latest probe" in out
        assert "DIVERGED" not in out

    def test_main_json_payload(self, capsys):
        assert chaos_main(["--seed", "5", "--runs", "1",
                           "--vertices", "24", "--k", "2",
                           "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_identical"] is True
        assert payload["probe"]["identical"] is True
        assert payload["runs"][0]["schedule"]

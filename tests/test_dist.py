"""The sharded BSP runtime: partitioning, equivalence with the
single-machine engine, checkpointing, fault injection, and recovery."""

import pickle

import pytest

from repro import obs
from repro.algorithms.partitioning import (
    communication_volume,
    edge_cut,
    partition_graph,
    random_partition,
)
from repro.dgps import (
    PregelError,
    PregelSpec,
    connected_components_spec,
    pagerank_spec,
    pregel_connected_components,
    pregel_pagerank,
    pregel_sssp,
    run_pregel,
    sssp_spec,
    sum_aggregator,
)
from repro.dist import (
    Checkpoint,
    CheckpointCorrupt,
    Coordinator,
    FaultPlan,
    InMemoryCheckpointStore,
    JsonCheckpointStore,
    Partitioner,
    RecoverySupervisor,
    WorkerKilled,
    build_shard_map,
    hash_partition,
    run_distributed_pregel,
)
from repro.dist.partitioned import (
    PARTITION_STRATEGIES,
    shard_map_from_assignment,
)
from repro.dist.report import run_report, smoke
from repro.dist.report import main as report_main
from repro.generators import gnm_random_graph
from repro.graphs.adjacency import Graph
from repro.graphs.views import GraphView
from repro.workloads import run_computation

KS = (1, 3, 8)
STRATEGIES = ("bfs", "random")


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(40, 80, directed=False, seed=5)


@pytest.fixture(scope="module")
def directed_graph():
    return gnm_random_graph(30, 70, directed=True, seed=7)


def degree_sum_spec():
    """An aggregator-using program: superstep 0 sums out-degrees into a
    global (integer, hence order-exact) aggregator and pings neighbors;
    superstep 1 stores (global degree sum, local in-degree)."""

    def program(ctx):
        if ctx.superstep == 0:
            ctx.aggregate("total_degree", ctx.num_out_edges())
            ctx.send_to_neighbors(1)
            return 0
        ctx.vote_to_halt()
        return (ctx.aggregated("total_degree"), sum(ctx.messages))

    return PregelSpec(
        program=program, initial_value=0,
        aggregators={"total_degree": sum_aggregator()})


class TestEquivalence:
    """repro.dist must reproduce the single-machine engine."""

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_connected_components_identical(self, graph, k, strategy):
        expected = pregel_connected_components(graph)
        result = run_distributed_pregel(
            graph, connected_components_spec(graph), k=k,
            partitioner=strategy)
        assert result.values == expected

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pagerank_matches(self, graph, k, strategy):
        expected = pregel_pagerank(graph, supersteps=8)
        result = run_distributed_pregel(
            graph, pagerank_spec(graph, supersteps=8), k=k,
            partitioner=strategy)
        if k == 1:
            # one shard = the single engine's exact send order
            assert result.values == expected
        else:
            # float sums group differently across shards; min/max/int
            # combiners are bitwise, float sums match to rounding
            assert result.values.keys() == expected.keys()
            for vertex, score in expected.items():
                assert result.values[vertex] == pytest.approx(
                    score, abs=1e-12)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_aggregator_program_identical(self, graph, k, strategy):
        spec = degree_sum_spec()
        expected = spec.run(graph).values
        result = run_distributed_pregel(
            graph, spec, k=k, partitioner=strategy)
        assert result.values == expected

    def test_directed_components_identical(self, directed_graph):
        expected = pregel_connected_components(directed_graph)
        result = run_distributed_pregel(
            directed_graph, connected_components_spec(directed_graph),
            k=4)
        assert result.values == expected

    def test_sssp_identical(self, graph):
        expected = pregel_sssp(graph, 0)
        result = run_distributed_pregel(graph, sssp_spec(graph, 0), k=4)
        assert result.values == expected

    def test_superstep_count_matches_engine(self, graph):
        spec = connected_components_spec(graph)
        assert (run_distributed_pregel(graph, spec, k=5).supersteps
                == spec.run(graph).supersteps)

    def test_values_preserve_graph_order(self, graph):
        result = run_distributed_pregel(
            graph, connected_components_spec(graph), k=3)
        assert list(result.values) == list(graph.vertices())

    def test_empty_graph(self):
        result = run_distributed_pregel(
            Graph(directed=False), degree_sum_spec().program, k=2)
        assert result.values == {}
        assert result.supersteps == 0

    def test_bare_program_with_engine_kwargs(self, graph):
        spec = connected_components_spec(graph)
        result = run_distributed_pregel(
            graph, spec.program, k=2, combiner=spec.combiner,
            max_supersteps=spec.max_supersteps)
        assert result.values == pregel_connected_components(graph)


class TestFaultRecovery:
    """Injected kills must recover to byte-identical results."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_kill_and_recover_identical(self, graph, strategy):
        spec = pagerank_spec(graph, supersteps=8)
        clean = run_distributed_pregel(
            graph, spec, k=3, partitioner=strategy)
        plan = FaultPlan().kill("w1", at_superstep=2)
        faulted = run_distributed_pregel(
            graph, spec, k=3, partitioner=strategy, fault_plan=plan)
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.recoveries == 1
        assert plan.fired

    def test_kill_at_superstep_zero(self, graph):
        spec = connected_components_spec(graph)
        clean = run_distributed_pregel(graph, spec, k=2)
        faulted = run_distributed_pregel(
            graph, spec, k=2,
            fault_plan=FaultPlan().kill("w0", at_superstep=0))
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.recoveries == 1

    def test_multiple_faults(self, graph):
        spec = pagerank_spec(graph, supersteps=8)
        clean = run_distributed_pregel(graph, spec, k=4)
        plan = FaultPlan().kill("w1", at_superstep=1).kill(
            "w3", at_superstep=4)
        faulted = run_distributed_pregel(graph, spec, k=4,
                                         fault_plan=plan)
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.recoveries == 2
        assert len(plan.fired) == 2

    def test_recovery_with_json_store(self, graph, tmp_path):
        spec = pagerank_spec(graph, supersteps=6)
        clean = run_distributed_pregel(graph, spec, k=3)
        store = JsonCheckpointStore(tmp_path / "ckpt")
        faulted = run_distributed_pregel(
            graph, spec, k=3, checkpoint_store=store,
            fault_plan=FaultPlan().kill("w2", at_superstep=3))
        assert repr(faulted.values) == repr(clean.values)
        assert store.supersteps()  # checkpoints actually hit disk

    def test_sparse_checkpoints_still_recover(self, graph):
        spec = pagerank_spec(graph, supersteps=8)
        clean = run_distributed_pregel(graph, spec, k=3)
        faulted = run_distributed_pregel(
            graph, spec, k=3, checkpoint_every=3,
            fault_plan=FaultPlan().kill("w1", at_superstep=5))
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.checkpoints_written < clean.checkpoints_written

    def test_fault_stats_not_double_counted(self, graph):
        spec = connected_components_spec(graph)
        clean = run_distributed_pregel(graph, spec, k=2)
        faulted = run_distributed_pregel(
            graph, spec, k=2,
            fault_plan=FaultPlan().kill("w1", at_superstep=1))
        assert len(faulted.stats) == len(clean.stats)
        assert ([s.superstep for s in faulted.stats]
                == list(range(faulted.supersteps)))

    def test_worker_killed_carries_context(self):
        plan = FaultPlan().kill("w1", at_superstep=3)
        with pytest.raises(WorkerKilled) as caught:
            plan.check("w1", 3)
        assert caught.value.worker == "w1"
        assert caught.value.superstep == 3
        plan.check("w1", 3)  # fired faults stay quiet on replay


class TestFaultPlan:
    def test_parse_dsl(self):
        plan = FaultPlan.parse("w1@3, w0@5")
        assert [str(f) for f in plan.faults] == ["w1@3", "w0@5"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("w1")

    def test_reset_rearms(self):
        plan = FaultPlan().kill("w0", at_superstep=1)
        with pytest.raises(WorkerKilled):
            plan.check("w0", 1)
        plan.reset()
        with pytest.raises(WorkerKilled):
            plan.check("w0", 1)

    def test_negative_superstep_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().kill("w0", at_superstep=-1)


class TestCheckpointStores:
    def _checkpoint(self):
        return Checkpoint(
            superstep=4,
            worker_states=[
                {"values": {1: 0.5, 2: float("inf")}, "halted": {2},
                 "inbox": {1: [0.25, 0.125]}},
                {"values": {3: "label"}, "halted": set(), "inbox": {}},
            ],
            previous_aggregates={"dangling": 0.125})

    def test_payload_roundtrip(self):
        original = self._checkpoint()
        restored = Checkpoint.from_payload(original.to_payload())
        assert restored.superstep == original.superstep
        assert restored.worker_states == original.worker_states
        assert restored.previous_aggregates == original.previous_aggregates

    def test_in_memory_store_isolates_snapshots(self):
        store = InMemoryCheckpointStore()
        checkpoint = self._checkpoint()
        assert store.save(checkpoint) > 0
        checkpoint.worker_states[0]["values"][1] = 999  # mutate after save
        assert store.load_latest().worker_states[0]["values"][1] == 0.5

    def test_in_memory_store_keeps_any_python_state(self):
        # the pickled blob keeps what the JSON store cannot: tuple ids,
        # sets, inf, nested lists, and values shared between vertices
        shared = [1.0, [2.0, 3.0]]
        checkpoint = Checkpoint(
            superstep=2,
            worker_states=[{
                "values": {(0, 1): shared, (1, 0): shared,
                           (2, 2): float("inf")},
                "halted": {(2, 2), (1, 0)},
                "inbox": {(0, 1): [[0.5, [0.25]], (7, "x")]},
            }],
            previous_aggregates={"total": (1, 2)})
        store = InMemoryCheckpointStore()
        store.save(checkpoint)
        loaded = store.load(2)
        assert loaded == checkpoint
        values = loaded.worker_states[0]["values"]
        assert values[(0, 1)] is values[(1, 0)]
        assert loaded.worker_states[0]["inbox"][(0, 1)][1] == (7, "x")
        assert loaded.previous_aggregates["total"] == (1, 2)

    def test_in_memory_save_returns_stored_bytes(self):
        checkpoint = self._checkpoint()
        written = InMemoryCheckpointStore().save(checkpoint)
        assert written == len(
            pickle.dumps(checkpoint, pickle.HIGHEST_PROTOCOL))

    def test_in_memory_save_rejects_unpicklable_values(self):
        """A value pickle rejects fails at ``save`` (the barrier), not
        later at recovery; the store keeps nothing for that superstep.
        Before checkpoints were pickled, such values saved and only
        broke a JSON store."""
        checkpoint = self._checkpoint()
        checkpoint.worker_states[1]["values"][3] = lambda: None
        store = InMemoryCheckpointStore()
        with pytest.raises((pickle.PicklingError, AttributeError)):
            store.save(checkpoint)
        assert store.supersteps() == []

    @pytest.mark.parametrize("mode", ["garble", "truncate"])
    def test_in_memory_corruption_detected_and_skipped(self, mode):
        store = InMemoryCheckpointStore()
        older = self._checkpoint()
        older.superstep = 0
        store.save(older)
        store.save(self._checkpoint())
        store.corrupt(4, mode=mode)
        with pytest.raises(CheckpointCorrupt, match="checksum mismatch"):
            store.load(4)
        checkpoint, event = RecoverySupervisor(store).recover(
            WorkerKilled("w1", 4), expected_shards=2)
        assert checkpoint.superstep == 0
        assert event.corrupt_skipped == [4]

    def test_json_store_roundtrip(self, tmp_path):
        store = JsonCheckpointStore(tmp_path / "ckpt")
        written = store.save(self._checkpoint())
        assert written > 0
        assert store.supersteps() == [4]
        loaded = store.load_latest()
        assert loaded.worker_states[0]["values"][2] == float("inf")
        assert loaded.worker_states[0]["halted"] == {2}
        store.clear()
        assert store.load_latest() is None

    def test_latest_wins(self):
        store = InMemoryCheckpointStore()
        first = self._checkpoint()
        later = self._checkpoint()
        later.superstep = 9
        store.save(first)
        store.save(later)
        assert store.load_latest().superstep == 9
        assert store.load(4).superstep == 4


class TestPartitioning:
    def test_shard_map_preserves_graph_order(self, graph):
        shard_map = build_shard_map(graph, 4, strategy="random")
        order = {v: i for i, v in enumerate(graph.vertices())}
        for shard in shard_map.shards:
            ranks = [order[v] for v in shard]
            assert ranks == sorted(ranks)

    def test_shard_map_covers_graph(self, graph):
        shard_map = build_shard_map(graph, 5)
        assert shard_map.num_vertices() == graph.num_vertices()
        assert sum(shard_map.shard_sizes()) == graph.num_vertices()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown partition strategy"):
            Partitioner("metis")

    def test_explicit_assignment(self, graph):
        assignment = {v: 0 for v in graph.vertices()}
        shard_map = Partitioner(assignment).shard(graph, 2)
        assert shard_map.shard_sizes() == [graph.num_vertices(), 0]

    def test_hash_partition_is_stable(self, graph):
        assert hash_partition(graph, 4) == hash_partition(graph, 4)

    def test_routing_stats_expose_cost_metrics(self, graph):
        stats = build_shard_map(graph, 4).routing_stats(graph)
        assert {"edge_cut", "balance",
                "communication_volume"} <= stats.keys()


class TestShardMapCache:
    """A graph keeps one shard map, reused while its version holds."""

    @pytest.fixture
    def g(self):
        return gnm_random_graph(30, 60, directed=False, seed=11)

    def test_hits_while_version_holds(self, g):
        first = Partitioner("bfs").shard(g, 3)
        assert Partitioner("bfs").shard(g, 3) is first
        assert build_shard_map(g, 3) is first
        g.add_vertex(next(iter(g.vertices())))  # already there: no bump
        assert build_shard_map(g, 3) is first

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("new"),
        lambda g: g.add_edge(0, "new"),
        lambda g: g.remove_edge(next(iter(g.edges())).edge_id),
        lambda g: g.remove_vertex(0),
    ], ids=["add_vertex", "add_edge", "remove_edge", "remove_vertex"])
    def test_misses_after_each_mutation(self, g, mutate):
        first = build_shard_map(g, 3)
        mutate(g)
        fresh = build_shard_map(g, 3)
        assert fresh is not first
        assert fresh == shard_map_from_assignment(
            partition_graph(g, 3, seed=0), 3, g.vertices())
        assert build_shard_map(g, 3) is fresh

    def test_one_entry_per_graph(self, g):
        at_3 = build_shard_map(g, 3)
        at_4 = build_shard_map(g, 4)
        assert g._shards.shard_map is at_4
        assert build_shard_map(g, 4) is at_4
        assert build_shard_map(g, 3) is not at_3
        for kwargs in ({"strategy": "hash"}, {"seed": 1}):
            other = build_shard_map(g, 3, **kwargs)
            assert g._shards.shard_map is other

    def test_callables_explicit_maps_and_views_are_not_cached(self, g):
        def custom(graph, k, seed=0):
            return partition_graph(graph, k, seed=seed)

        custom.__name__ = "bfs"  # a built-in's name is not enough
        explicit = {v: 0 for v in g.vertices()}
        for strategy in (custom, explicit):
            chooser = Partitioner(strategy)
            assert chooser.shard(g, 2) is not chooser.shard(g, 2)
        view = GraphView(g)
        assert build_shard_map(view, 2) is not build_shard_map(view, 2)
        assert g._shards is None

    def test_routing_stats_are_cached_as_copies(self, g):
        shard_map = build_shard_map(g, 3)
        stats = shard_map.routing_stats(g)
        assert g._shards.routing == stats
        stats["shard_sizes"].append(99)
        stats["edge_cut"] = -1
        assert shard_map.routing_stats(g) == g._shards.routing
        assert shard_map.routing_stats(g)["edge_cut"] == edge_cut(
            g, dict(shard_map.assignment))

    def test_copies_and_pickles_start_empty(self, g):
        build_shard_map(g, 3)
        assert g.copy()._shards is None
        assert pickle.loads(pickle.dumps(g))._shards is None
        assert g._shards is not None

    def test_repeated_runs_partition_once(self, g, monkeypatch):
        calls = []

        def counted(graph, k, seed=0):
            calls.append(k)
            return partition_graph(graph, k, seed=seed)

        monkeypatch.setitem(PARTITION_STRATEGIES, "bfs", counted)
        spec = pagerank_spec(g, supersteps=3)
        first = run_distributed_pregel(g, spec, k=3)
        again = run_distributed_pregel(g, spec, k=3)
        assert calls == [3]
        assert again.values == first.values
        assert again.routing == first.routing
        g.add_vertex("new")
        run_distributed_pregel(g, spec, k=3)
        assert calls == [3, 3]


class TestCommunicationVolume:
    def test_hand_computed(self):
        # path a-b-c split [a|b,c]: a pays 1 (part of b), b pays 1 (a).
        g = Graph(directed=False)
        for v in "abc":
            g.add_vertex(v)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        partition = {"a": 0, "b": 1, "c": 1}
        assert communication_volume(g, partition) == 2
        assert edge_cut(g, partition) == 1

    def test_single_part_is_free(self, graph):
        partition = {v: 0 for v in graph.vertices()}
        assert communication_volume(graph, partition) == 0

    def test_bounded_by_twice_edge_cut(self, graph):
        partition = random_partition(graph, 4, seed=3)
        assert (communication_volume(graph, partition)
                <= 2 * edge_cut(graph, partition))


class TestValidation:
    def test_engine_rejects_unknown_target(self):
        g = Graph(directed=False)
        g.add_vertex("a")

        def program(ctx):
            ctx.send("ghost", 1)

        with pytest.raises(PregelError, match="unknown vertex 'ghost'"):
            run_pregel(g, program)

    def test_dist_rejects_unknown_target_at_sender(self, graph):
        def program(ctx):
            ctx.send("ghost", 1)

        with pytest.raises(PregelError, match="unknown vertex 'ghost'"):
            run_distributed_pregel(graph, program, k=3)

    def test_bad_k(self, graph):
        with pytest.raises(ValueError):
            build_shard_map(graph, 0)

    def test_bad_checkpoint_every(self, graph):
        with pytest.raises(ValueError):
            Coordinator(graph, lambda ctx: None, checkpoint_every=0)

    def test_budget_exhaustion(self, graph):
        def chatty(ctx):
            ctx.send_to_neighbors(1)

        with pytest.raises(PregelError, match="did not finish"):
            run_distributed_pregel(graph, chatty, k=2, max_supersteps=3)


class TestObservability:
    def test_spans_and_counters(self, graph):
        obs.reset()
        registry = obs.get_registry()
        with obs.capture() as trace:
            run_distributed_pregel(
                graph, connected_components_spec(graph), k=2,
                fault_plan=FaultPlan().kill("w1", at_superstep=1))
        names = {s.name for root in trace.roots for s in root.walk()}
        assert {"dist.run", "dist.superstep", "dist.worker.superstep",
                "dist.recovery"} <= names
        run_span = trace.roots[-1]
        supersteps = run_span.find("dist.superstep")
        workers = run_span.find("dist.worker.superstep")
        # one span per worker per superstep; the aborted superstep has
        # only w0's span (w1 was killed before computing)
        assert len(workers) == 2 * len(supersteps) - 1
        assert registry.counter("dist.recoveries").value >= 1
        assert registry.counter("dist.checkpoints").value > 0
        assert registry.counter("dist.checkpoint_bytes").value > 0
        obs.reset()

    def test_counters_report_routed_vs_combined(self, graph):
        obs.reset()
        registry = obs.get_registry()
        with obs.capture():
            result = run_distributed_pregel(
                graph, pagerank_spec(graph, supersteps=5), k=4)
        assert (registry.counter("dist.messages_routed").value
                == result.routed_messages() > 0)
        assert (registry.counter("dist.messages_combined").value
                == result.combined_messages() > 0)
        obs.reset()


class TestReportCLI:
    def test_smoke_recovers(self):
        summary = smoke(k=2)
        assert summary["recovered"]
        assert summary["recoveries"] == 1
        assert summary["checkpoint_bytes"] > 0

    def test_run_report_structure(self):
        report = run_report(vertices=40, ks=(1, 2), pagerank_supersteps=4)
        assert len(report["rows"]) == 4  # 2 algorithms x 2 ks
        faulted = [row["fault"] for row in report["rows"]
                   if "fault" in row]
        assert faulted and all(f["identical"] for f in faulted)
        assert all(f["recoveries"] == 1 for f in faulted)

    def test_main_prints_table(self, capsys):
        assert report_main(["--vertices", "40", "--ks", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "repro.dist scaling report" in out
        assert "recovery" in out

    def test_main_json(self, capsys):
        assert report_main(["--vertices", "30", "--ks", "2",
                            "--json"]) == 0
        assert '"rows"' in capsys.readouterr().out


class TestWorkloadIntegration:
    def test_distributed_components_matches_local(self, graph):
        local = run_computation("Finding Connected Components", graph)
        dist = run_computation("Finding Connected Components", graph,
                               distributed=True, shards=3)
        assert dist.summary["components"] == local.summary["components"]
        assert dist.summary["shards"] == 3
        assert dist.summary["routed_messages"] >= 0

    def test_distributed_ranking_runs(self, graph):
        result = run_computation("Ranking & Centrality Scores", graph,
                                 distributed=True, shards=2)
        assert len(result.summary["top_pagerank"]) == 3

    def test_distributed_unavailable_is_explicit(self, graph):
        with pytest.raises(ValueError, match="no distributed runner"):
            run_computation("Graph Coloring", graph, distributed=True)

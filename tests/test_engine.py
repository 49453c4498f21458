"""Tests for the allocation engine: process-pool solves, persistent
result cache, deadline fallback (repro.engine)."""

import json

import pytest

from repro.allocation import AllocationError, validate_allocation
from repro.core import AllocatorConfig
from repro.engine import (
    ALLOCATOR_VERSION,
    CACHE_VERSION,
    AllocationEngine,
    CacheRecord,
    EngineConfig,
    ResultCache,
    allocation_fingerprint,
    config_signature,
    fingerprint_function,
    frequency_signature,
)
from repro.analysis import static_frequencies
from repro.engine import fingerprint as fingerprint_module
from repro.engine.cache import _payload_checksum
from repro.ir import (
    clone_function,
    format_function,
    function_fingerprint,
    parse_function,
)
from repro.lang import compile_program
from repro.lowering import lower_for_target
from repro.obs import reset_stats, snapshot
from repro.solver import (
    IPModel,
    Sense,
    SolveStatus,
    solve_brute_force,
)

from tests.conftest import build_loop_sum


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
    reset_stats()


@pytest.fixture()
def module():
    return build_loop_sum()


def fast_config() -> AllocatorConfig:
    return AllocatorConfig(time_limit=60.0)


class TestFingerprint:
    def test_function_fingerprint_round_trips(self, module):
        fn = module.functions["sum"]
        text = format_function(fn)
        reparsed = parse_function(text)
        assert format_function(reparsed) == text
        assert function_fingerprint(reparsed) == function_fingerprint(fn)

    def test_clone_preserves_fingerprint(self, module):
        fn = module.functions["sum"]
        assert function_fingerprint(clone_function(fn)) == \
            function_fingerprint(fn)

    def test_config_signature_excludes_non_semantic(self, x86):
        base = config_signature(AllocatorConfig())
        assert config_signature(AllocatorConfig(validate=False)) == base
        assert config_signature(
            AllocatorConfig(code_size_weight=1.0)
        ) != base

    def test_fingerprint_sensitivity(self, x86, module):
        fn = module.functions["sum"]
        config = fast_config()
        fp, _ = fingerprint_function(fn, x86, config, None)
        fp2, _ = fingerprint_function(fn, x86, config, None)
        assert fp == fp2
        other, _ = fingerprint_function(
            fn, x86, AllocatorConfig(code_size_weight=7.0), None
        )
        assert other != fp
        work = clone_function(fn)
        lower_for_target(work, x86)
        freq = static_frequencies(work)
        freq.counts[next(iter(freq.counts))] += 100.0
        bumped, _ = fingerprint_function(fn, x86, config, freq)
        assert bumped != fp

    def test_frequency_signature_orders_blocks(self, x86, module):
        fn = module.functions["sum"]
        work = clone_function(fn)
        lower_for_target(work, x86)
        freq = static_frequencies(work)
        sig = frequency_signature(freq)
        assert sig == frequency_signature(freq)
        blocks = [b for b, _ in sig["counts"]]
        assert blocks == sorted(blocks)
        assert frequency_signature(None) == {
            "source": "none", "counts": [],
        }


class TestBruteForceTimeLimit:
    def build(self, n=12):
        model = IPModel("t")
        vars_ = [model.add_var(f"x{i}", cost=float(i + 1))
                 for i in range(n)]
        model.add_constraint(
            [(1.0, v) for v in vars_], Sense.GE, 2.0, "pick-two"
        )
        return model, vars_

    def test_completes_without_limit(self):
        model, _ = self.build()
        result = solve_brute_force(model)
        assert result.status is SolveStatus.OPTIMAL
        assert not result.timed_out
        assert result.objective == pytest.approx(3.0)  # x0 + x1

    def test_generous_limit_is_optimal(self):
        model, _ = self.build()
        result = solve_brute_force(model, time_limit=60.0)
        assert result.status is SolveStatus.OPTIMAL
        assert not result.timed_out

    def test_zero_limit_times_out(self):
        model, _ = self.build(n=20)
        result = solve_brute_force(model, time_limit=0.0)
        assert result.timed_out
        assert result.status in (
            SolveStatus.FEASIBLE, SolveStatus.UNSOLVED
        )
        if result.status is SolveStatus.FEASIBLE:
            # the incumbent must satisfy the model
            assert model.check(result.values)


class TestParallelEqualsSerial:
    def test_objectives_and_code_identical(self, x86, module):
        config = fast_config()
        serial = AllocationEngine(
            x86, config, EngineConfig(jobs=1)
        ).allocate_module(module)
        parallel = AllocationEngine(
            x86, config, EngineConfig(jobs=2)
        ).allocate_module(module)
        assert serial.objectives == parallel.objectives
        for s, p in zip(serial, parallel):
            assert s.function == p.function
            assert s.attempt.status == p.attempt.status
            assert s.attempt.assignment == p.attempt.assignment
            assert format_function(s.final.function) == \
                format_function(p.final.function)

    def test_worker_counters_merge(self, x86, module):
        AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=2)
        ).allocate_module(module)
        counters = snapshot()
        assert counters.get("engine.parallel_solves") == len(
            list(module)
        )
        # solver invocations happened in workers but are visible here:
        # the backend runs once per function, and every solve that a
        # root LP closed is one of them
        solves = sum(
            v for k, v in counters.items()
            if k.startswith("solver.") and k.endswith(".solves")
        )
        assert solves == len(list(module))
        assert 0 < counters.get("solver.highs.root_integral", 0) <= solves


class TestResultCache:
    def test_engine_cold_then_warm(self, x86, module, tmp_path):
        config = fast_config()
        cache = str(tmp_path / "cache")
        cold = AllocationEngine(
            x86, config, EngineConfig(jobs=1, cache_dir=cache)
        ).allocate_module(module)
        cold_counters = snapshot()
        n = len(list(module))
        assert cold_counters.get("engine.cache_misses") == n
        assert len(ResultCache(cache)) == n

        reset_stats()
        warm = AllocationEngine(
            x86, config, EngineConfig(jobs=1, cache_dir=cache)
        ).allocate_module(module)
        warm_counters = snapshot()
        assert warm_counters.get("engine.cache_hits") == n
        assert sum(
            v for k, v in warm_counters.items()
            if k.startswith("solver.") and k.endswith(".solves")
        ) == 0
        assert warm.objectives == cold.objectives
        for c, w in zip(cold, warm):
            assert w.cache_hit
            assert w.source == "cache"
            assert c.attempt.assignment == w.attempt.assignment

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_record_solver_facts_are_the_reports(
        self, x86, module, tmp_path, jobs
    ):
        """A miss's cache record takes its solver facts from the
        attempt's run report, in this process and from a pool worker;
        a worker's phases come back under one ``worker`` span."""
        cache = ResultCache(str(tmp_path / "cache"))
        outcomes = list(AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=jobs), cache=cache
        ).allocate_module(module))
        assert len(outcomes) > 1
        for outcome in outcomes:
            solver = outcome.attempt.report.solver
            record = cache.get(outcome.fingerprint)
            assert solver.backend
            assert (
                record.nodes, record.lp_relaxations, record.backend,
                record.timed_out,
            ) == (
                solver.nodes, solver.lp_relaxations, solver.backend,
                solver.timed_out,
            )
            phases = outcome.attempt.report.phases
            if jobs > 1:
                assert [span.name for span in phases] == ["worker"]
                assert phases[0].meta["pid"] == outcome.worker_pid != 0
            else:
                assert [span.name for span in phases] == ["ip-allocate"]

    def test_config_change_invalidates(self, x86, module, tmp_path):
        cache = str(tmp_path / "cache")
        ec = EngineConfig(jobs=1, cache_dir=cache)
        AllocationEngine(x86, fast_config(), ec).allocate_module(module)
        reset_stats()
        changed = AllocatorConfig(
            time_limit=60.0, code_size_weight=2000.0
        )
        AllocationEngine(x86, changed, ec).allocate_module(module)
        counters = snapshot()
        n = len(list(module))
        assert counters.get("engine.cache_hits", 0.0) == 0
        assert counters.get("engine.cache_misses") == n

    def test_cost_change_invalidates(self, x86, module, tmp_path):
        cache = str(tmp_path / "cache")
        ec = EngineConfig(jobs=1, cache_dir=cache)
        config = fast_config()
        engine = AllocationEngine(x86, config, ec)
        fn = module.functions["sum"]
        engine.allocate(fn)
        reset_stats()
        work = clone_function(fn)
        lower_for_target(work, x86)
        freq = static_frequencies(work)
        for block in freq.counts:
            freq.counts[block] *= 3.0
        engine.allocate(fn, freq)
        counters = snapshot()
        assert counters.get("engine.cache_hits", 0.0) == 0
        assert counters.get("engine.cache_misses") == 1

    @staticmethod
    def _warm(x86, tmp_path, fn):
        """Solve ``fn`` into a fresh cache; returns the engine, the
        first outcome, the cache and the stored record."""
        cache_dir = str(tmp_path / "cache")
        engine = AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=1, cache_dir=cache_dir)
        )
        first = engine.allocate(fn)
        assert first.source == "solver" and first.attempt.succeeded
        cache = ResultCache(cache_dir)
        record = cache.get(first.fingerprint)
        assert record is not None
        return engine, first, cache, record

    @staticmethod
    def _assert_resolved(engine, fn, first):
        reset_stats()
        again = engine.allocate(fn)
        counters = snapshot()
        assert counters.get("engine.cache_stale") == 1
        assert counters.get("engine.cache_misses") == 1
        assert counters.get("engine.cache_hits", 0) == 0
        assert again.source == "solver"
        assert again.attempt.assignment == first.attempt.assignment
        # the re-solve wrote a good record back: the next call hits
        assert engine.allocate(fn).source == "cache"

    def test_record_failing_the_validator_is_resolved(
        self, x86, module, tmp_path
    ):
        """A checksummed record whose assignment puts two live values
        in one chain set is refused by the validator, and re-solves."""
        fn = module.functions["sum"]
        engine, first, cache, record = self._warm(x86, tmp_path, fn)
        record.assignment = {v: "EAX" for v in record.assignment}
        with pytest.raises(AllocationError, match="overlap violation"):
            validate_allocation(record.to_allocation(x86), x86)
        cache.put(record)
        self._assert_resolved(engine, fn, first)

    def test_record_whose_code_does_not_parse_is_resolved(
        self, x86, module, tmp_path
    ):
        fn = module.functions["sum"]
        engine, first, cache, record = self._warm(x86, tmp_path, fn)
        record.code = record.code[: len(record.code) // 2]
        with pytest.raises(AllocationError, match="undecodable"):
            record.to_allocation(x86)
        cache.put(record)
        self._assert_resolved(engine, fn, first)
        # cut inside a register's name: stale, not an escaped exception
        record = cache.get(first.fingerprint)
        record.code = record.code[: record.code.rindex("%") + 2]
        with pytest.raises(AllocationError, match="undecodable"):
            record.to_allocation(x86)
        cache.put(record)
        self._assert_resolved(engine, fn, first)

    def test_record_with_a_block_missing_its_terminator_is_resolved(
        self, x86, module, tmp_path
    ):
        """Code that parses but is malformed is refused before the
        validator, which assumes every block ends in a terminator."""
        fn = module.functions["sum"]
        engine, first, cache, record = self._warm(x86, tmp_path, fn)
        record.code = "\n".join(
            line for line in record.code.split("\n")
            if not line.startswith("  ret")
        )
        with pytest.raises(AllocationError, match="terminator"):
            record.to_allocation(x86)
        cache.put(record)
        self._assert_resolved(engine, fn, first)

    def test_record_for_another_function_is_resolved(
        self, x86, module, tmp_path
    ):
        fn = module.functions["double"]
        engine, first, cache, record = self._warm(x86, tmp_path, fn)
        record.code = record.code.replace("@double(", "@twice(", 1)
        cache.put(record)
        self._assert_resolved(engine, fn, first)

    def test_forged_replica_with_another_body_is_resolved(
        self, x86, module, tmp_path
    ):
        """Any client of a shard can push a replica, and its checksum
        and fingerprint are computable by anyone. A record whose legal
        body is not the function's passes the validator, but not the
        equivalence check, so it re-solves instead of being returned."""
        fn = module.functions["double"]
        _, first, _, record = self._warm(x86, tmp_path, fn)
        header = record.code.split("entry:")[0]
        record.code = header + "entry:\n  ret 0:i32\n}"
        record.assignment = {}
        record.stats = {}
        validate_allocation(record.to_allocation(x86), x86)
        successor = ResultCache(tmp_path / "successor")
        assert successor.import_replica(record.to_dict()) == "stored"
        engine = AllocationEngine(
            x86, fast_config(),
            EngineConfig(jobs=1, cache_dir=str(successor.root)),
        )
        self._assert_resolved(engine, fn, first)

    def test_allocator_version_change_is_a_miss(
        self, x86, module, tmp_path, monkeypatch
    ):
        fn = module.functions["double"]
        engine, first, cache, _ = self._warm(x86, tmp_path, fn)
        monkeypatch.setattr(
            fingerprint_module, "ALLOCATOR_VERSION", ALLOCATOR_VERSION + 1
        )
        reset_stats()
        again = engine.allocate(fn)
        counters = snapshot()
        assert again.source == "solver"
        assert again.fingerprint != first.fingerprint
        assert counters.get("engine.cache_misses") == 1
        assert counters.get("engine.cache_stale", 0) == 0
        assert len(cache) == 2  # the old record is simply never read

    @staticmethod
    def _v2_dict(fingerprint: str) -> dict:
        """A well-formed record of the previous schema (solver values)."""
        d = {
            "version": 2, "fingerprint": fingerprint, "function": "double",
            "status": "optimal", "free_values": {"x_0": 1}, "n_free": 1,
            "objective": 1.0, "solve_seconds": 0.1, "nodes": 0,
            "lp_relaxations": 0, "backend": "scipy", "timed_out": False,
            "created": 1.0, "replica": False,
        }
        d["sha256"] = _payload_checksum(d)
        return d

    def test_v2_record_on_disk_is_a_plain_miss(
        self, x86, module, tmp_path
    ):
        """An old-schema record is neither trusted nor quarantined as
        corrupt; the solve that follows overwrites it."""
        cache_dir = str(tmp_path / "cache")
        engine = AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=1, cache_dir=cache_dir)
        )
        fn = module.functions["double"]
        fp = engine._prepare(fn, None).fingerprint
        path = engine.cache.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(self._v2_dict(fp)))
        outcome = engine.allocate(fn)
        counters = snapshot()
        assert outcome.source == "solver"
        assert counters.get("engine.cache_misses") == 1
        assert counters.get("engine.cache_stale", 0) == 0
        assert counters.get("engine.cache_corrupt", 0) == 0
        assert json.loads(path.read_text())["version"] == CACHE_VERSION
        assert engine.allocate(fn).source == "cache"

    def test_v2_record_import_is_invalid(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.import_replica(self._v2_dict("ab" * 32)) == "invalid"
        assert len(cache) == 0

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "ab" + "0" * 62
        path = cache.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(fp) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = CacheRecord(
            fingerprint="cd" + "0" * 62, function="f", status="optimal",
        )
        cache.put(record)
        data = cache.path_for(record.fingerprint)
        text = data.read_text().replace(
            f'"version": {CACHE_VERSION}', '"version": 0'
        )
        data.write_text(text)
        assert cache.get(record.fingerprint) is None

    def test_record_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = CacheRecord(
            fingerprint="ef" + "1" * 62, function="g",
            status="feasible", objective=12.5,
            code="func @g() {\nentry:\n  ret\n}",
            assignment={"a": "EAX"}, stats={"loads": 2},
            n_variables=40, n_constraints=31, solve_seconds=0.25,
            nodes=3, lp_relaxations=9, backend="scipy",
            timed_out=True,
        )
        cache.put(record)
        loaded = cache.get(record.fingerprint)
        assert loaded == record
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(record.fingerprint) is None


class TestCacheLRUBound:
    @staticmethod
    def record(tag: str) -> CacheRecord:
        return CacheRecord(
            fingerprint=tag * 32, function=f"f{tag}", status="optimal",
        )

    @staticmethod
    def age(cache, record, mtime) -> None:
        """Pin a record's recency (mtime drives LRU order)."""
        import os

        os.utime(cache.path_for(record.fingerprint), (mtime, mtime))

    def test_eviction_keeps_newest(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (self.record(t) for t in "abc")
        cache.put(a)
        self.age(cache, a, 1_000_000.0)
        cache.put(b)
        self.age(cache, b, 1_000_001.0)
        cache.put(c)  # over the bound: the oldest (a) is pruned
        assert len(cache) == 2
        assert cache.get(a.fingerprint) is None
        assert cache.get(b.fingerprint) is not None
        assert cache.get(c.fingerprint) is not None
        assert snapshot()["engine.cache_evictions"] == 1
        assert snapshot()["engine.cache_entries"] == 2

    def test_hit_touches_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (self.record(t) for t in "abc")
        cache.put(a)
        self.age(cache, a, 1_000_000.0)
        cache.put(b)
        self.age(cache, b, 1_000_001.0)
        # A hit refreshes a's mtime, so b is now least recent.
        assert cache.get(a.fingerprint) is not None
        cache.put(c)
        assert cache.get(a.fingerprint) is not None
        assert cache.get(b.fingerprint) is None

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        cache = ResultCache(tmp_path)
        assert cache.max_entries is None
        for tag in "abcdef":
            cache.put(self.record(tag))
        assert len(cache) == 6
        assert snapshot().get("engine.cache_evictions", 0) == 0

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        cache = ResultCache(tmp_path)
        assert cache.max_entries == 3
        for i, tag in enumerate("abcde"):
            record = self.record(tag)
            cache.put(record)
            self.age(cache, record, 1_000_000.0 + i)
        assert len(cache) == 3
        # Explicit argument beats the environment.
        assert ResultCache(tmp_path, max_entries=7).max_entries == 7
        # Garbage / non-positive values mean unbounded.
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "nope")
        assert ResultCache(tmp_path).max_entries is None
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "0")
        assert ResultCache(tmp_path).max_entries is None

    def test_engine_config_passthrough(self, x86, module, tmp_path):
        engine = AllocationEngine(
            x86, fast_config(),
            EngineConfig(
                cache_dir=str(tmp_path), cache_max_entries=1
            ),
        )
        engine.allocate_module(module)  # several functions, bound 1
        assert len(engine.cache) == 1
        assert snapshot()["engine.cache_evictions"] >= 1
        # Whichever record survived the bound still replays.
        record = next(tmp_path.glob("*/*.json"))
        survivor_name = json.loads(record.read_text())["function"]
        survivor = next(
            fn for fn in module if fn.name == survivor_name
        )
        warm = AllocationEngine(
            x86, fast_config(),
            EngineConfig(
                cache_dir=str(tmp_path), cache_max_entries=1
            ),
        ).allocate(survivor)
        assert warm.cache_hit


class TestDeadlineFallback:
    def test_timeout_falls_back_to_baseline(self, x86, module):
        config = AllocatorConfig(
            backend="branch-bound", time_limit=0.0
        )
        result = AllocationEngine(
            x86, config, EngineConfig(jobs=1)
        ).allocate_module(module)
        counters = snapshot()
        for outcome in result:
            assert outcome.fell_back
            assert not outcome.attempt.succeeded
            assert outcome.final.succeeded
            assert outcome.final.allocator != "ip"
        assert counters.get("engine.fallbacks") == len(list(module))

    def test_fallback_disabled_keeps_failure(self, x86, module):
        config = AllocatorConfig(
            backend="branch-bound", time_limit=0.0
        )
        result = AllocationEngine(
            x86, config, EngineConfig(jobs=1, fallback=False)
        ).allocate_module(module)
        for outcome in result:
            assert outcome.source == "fallback"
            assert not outcome.final.succeeded

    def test_baseline_dict_is_used(self, x86, module):
        from repro.baseline import GraphColoringAllocator

        gc = GraphColoringAllocator(x86)
        baseline = {
            fn.name: gc.allocate(fn, None) for fn in module
        }
        config = AllocatorConfig(
            backend="branch-bound", time_limit=0.0
        )
        result = AllocationEngine(
            x86, config, EngineConfig(jobs=1)
        ).allocate_module(module, baseline=baseline)
        for outcome in result:
            assert outcome.final is baseline[outcome.function]


class TestEngineOutcomeShape:
    def test_module_order_preserved(self, x86, module):
        result = AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=2)
        ).allocate_module(module)
        assert [o.function for o in result] == [
            fn.name for fn in module
        ]
        assert len(result) == len(list(module))
        with pytest.raises(KeyError):
            result.outcome("nope")

    def test_single_function_convenience(self, x86, module):
        outcome = AllocationEngine(x86, fast_config()).allocate(
            module.functions["double"]
        )
        assert outcome.function == "double"
        assert outcome.attempt.succeeded

    def test_same_name_functions_keep_their_positions(self, x86, tmp_path):
        """Functions of several programs may share a name: outcomes
        come back by position, and a fingerprint twin of a function
        solved in the same call replays that solve from the cache."""
        first, second = (
            compile_program(source, name=name).functions["main"]
            for name, source in (
                ("a", "int main(int n) { return n * 7 + 2; }"),
                ("b", "int main(int n) { return n - 9; }"),
            )
        )
        alone = [
            format_function(
                AllocationEngine(x86, fast_config()).allocate(fn)
                .final.function
            )
            for fn in (first, second)
        ]
        assert alone[0] != alone[1]
        engine = AllocationEngine(
            x86, fast_config(), EngineConfig(jobs=2),
            cache=ResultCache(tmp_path),
        )
        outcomes = engine.allocate_module([first, second, first]).outcomes
        assert [format_function(o.final.function) for o in outcomes] == [
            *alone, alone[0]
        ]
        assert [o.source for o in outcomes] == ["solver", "solver", "cache"]
        counters = snapshot()
        assert counters["engine.cache_misses"] == 2
        assert counters["engine.cache_hits"] == 1
        # Without a cache the twin has nothing to replay: it is solved.
        uncached = AllocationEngine(x86, fast_config()).allocate_module(
            [first, second, first]
        )
        assert [o.source for o in uncached] == ["solver"] * 3
        assert [
            format_function(o.final.function) for o in uncached
        ] == [*alone, alone[0]]

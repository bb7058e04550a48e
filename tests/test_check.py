"""Tests for repro.check: the AST lint pass and the runtime verifier.

Static layer: every rule fires on a seeded-bug fixture, stays quiet on
the equivalent clean code, honours ``# repro: noqa[...]``, and the
shipped ``src/`` tree lints clean (the same gate CI enforces).

Dynamic layer: adversarial SPMD programs — divergent collectives, a
send with no matching receive, a true receive cycle, a tag or peer
that almost matches — must produce the precise diagnostic (ranks, ops,
tags) under both ``verify=True`` and default mode, never a generic
timeout; and every shipped SPMD solver runs clean under verification
at P=2, 4 and 8.  The aliasing checks of a verified run are exercised
on both backends in tests/test_comm_conformance.py.
"""

import inspect
import json
import pathlib
import textwrap
import time
import warnings

import pytest

from repro.check import RULES, lint_paths, lint_source
from repro.check.__main__ import main as check_main
from repro.check.verifier import SpmdVerifier
from repro.comm import Communicator, run_spmd
from repro.comm.optable import COLLECTIVE_OPS
from repro.exceptions import (
    DeadlockError,
    SpmdDivergenceError,
    UnconsumedMessageError,
    UnconsumedMessageWarning,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint_snippet(snippet, path="pkg/module.py"):
    return lint_source(textwrap.dedent(snippet), path)


class TestRankConditionalCollective:
    def test_collective_in_rank_branch_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                if comm.rank == 0:
                    comm.bcast(1, root=0)
            """
        )
        assert rule_ids(findings) == ["RC101"]
        assert "bcast" in findings[0].message

    def test_else_branch_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                if comm.rank == 0:
                    pass
                else:
                    comm.barrier()
            """
        )
        assert rule_ids(findings) == ["RC101"]

    def test_local_rank_variable_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                rank = comm.rank
                if rank < 2:
                    subcomm = comm.split(0)
                    subcomm.allreduce(rank)
            """
        )
        assert rule_ids(findings) == ["RC101", "RC101"]

    def test_unconditional_collective_clean(self):
        findings = lint_snippet(
            """
            def program(comm):
                token = comm.allreduce(comm.rank)
                if comm.rank == 0:
                    print(token)
                return comm.scan(token)
            """
        )
        assert findings == []

    def test_functools_reduce_not_flagged(self):
        findings = lint_snippet(
            """
            import functools

            def total(comm, items):
                if comm.rank == 0:
                    return functools.reduce(lambda a, b: a + b, items)
            """
        )
        assert findings == []

    def test_non_rank_condition_clean(self):
        findings = lint_snippet(
            """
            def program(comm, big):
                if big:
                    comm.barrier()
            """
        )
        assert findings == []

    def test_collective_ops_cover_every_communicator_collective(self):
        # RC101 only knows the names in COLLECTIVE_OPS: a new collective
        # method must land there too, or it escapes the rule.
        point_to_point = {"send", "recv", "isend", "irecv", "sendrecv"}
        local = {"advance_clock", "payload_nbytes"}
        public = {
            name for name, member in vars(Communicator).items()
            if not name.startswith("_") and inspect.isfunction(member)
        }
        assert COLLECTIVE_OPS == public - point_to_point - local


class TestUnwaitedRequest:
    def test_discarded_isend_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                comm.isend(1, 0)
            """
        )
        assert rule_ids(findings) == ["RC102"]

    def test_unused_irecv_handle_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                req = comm.irecv(source=1)
                return 42
            """
        )
        assert rule_ids(findings) == ["RC102"]
        assert "req" in findings[0].message

    def test_waited_request_clean(self):
        findings = lint_snippet(
            """
            def program(comm):
                req = comm.irecv(source=1)
                return req.wait()
            """
        )
        assert findings == []

    def test_waitall_list_clean(self):
        findings = lint_snippet(
            """
            def program(comm, Request):
                reqs = [comm.irecv(source=s) for s in (1, 2)]
                return Request.waitall(reqs)
            """
        )
        assert findings == []

    def test_tuple_unpacked_handles_waited_clean(self):
        findings = lint_snippet(
            """
            def program(comm):
                ra, rb = comm.isend(1, 0), comm.irecv(source=0)
                ra.wait()
                return rb.wait()
            """
        )
        assert findings == []

    def test_tuple_unpacked_handle_never_waited_flagged(self):
        findings = lint_snippet(
            """
            def program(comm):
                ra, rb = comm.isend(1, 0), comm.irecv(source=0)
                ra.wait()
                return None
            """
        )
        assert rule_ids(findings) == ["RC102"]
        assert "rb" in findings[0].message

    def test_attribute_assigned_handle_waited_clean(self):
        findings = lint_snippet(
            """
            class Exchange:
                def start(self, comm):
                    self.req = comm.irecv(source=1)

                def finish(self):
                    return self.req.wait()
            """
        )
        assert findings == []

    def test_attribute_assigned_handle_never_waited_flagged(self):
        findings = lint_snippet(
            """
            class Exchange:
                def start(self, comm):
                    self.req = comm.irecv(source=1)

                def finish(self):
                    return None
            """
        )
        assert rule_ids(findings) == ["RC102"]


class TestRawThreadPrimitive:
    SNIPPET = """
        import threading

        guard = threading.Lock()
        """

    def test_outside_allowlist_flagged(self):
        findings = lint_snippet(self.SNIPPET, path="src/repro/core/rd.py")
        assert rule_ids(findings) == ["RC103"]
        assert "threading.Lock" in findings[0].message

    @pytest.mark.parametrize("part", ["comm", "service", "obs", "check"])
    def test_audited_layers_allowed(self, part):
        findings = lint_snippet(
            self.SNIPPET, path=f"src/repro/{part}/runtime.py"
        )
        assert findings == []

    def test_from_import_flagged(self):
        findings = lint_snippet(
            """
            from threading import Thread

            def spawn(fn):
                return Thread(target=fn)
            """,
            path="src/repro/core/rd.py",
        )
        assert rule_ids(findings) == ["RC103"]

    def test_thread_local_allowed(self):
        findings = lint_snippet(
            """
            import threading

            _state = threading.local()
            """,
            path="src/repro/core/rd.py",
        )
        assert findings == []


class TestAllDrift:
    def test_missing_public_def_flagged(self):
        findings = lint_snippet(
            """
            __all__ = ["shipped"]

            def shipped():
                pass

            def forgotten():
                pass
            """
        )
        assert rule_ids(findings) == ["RC104"]
        assert "forgotten" in findings[0].message

    def test_undefined_export_flagged(self):
        findings = lint_snippet(
            """
            __all__ = ["ghost"]
            """
        )
        assert rule_ids(findings) == ["RC104"]
        assert "ghost" in findings[0].message

    def test_lazy_getattr_exports_allowed(self):
        findings = lint_snippet(
            """
            __all__ = ["lazy"]

            def __getattr__(name):
                raise AttributeError(name)
            """
        )
        assert findings == []

    def test_private_and_imported_names_ignored(self):
        findings = lint_snippet(
            """
            import os
            from sys import path

            __all__ = ["public"]

            def public():
                pass

            def _internal():
                pass
            """
        )
        assert findings == []


class TestSimpleRules:
    def test_bare_except_flagged(self):
        findings = lint_snippet(
            """
            def f():
                try:
                    return 1
                except:
                    return 2
            """
        )
        assert rule_ids(findings) == ["RC105"]

    def test_typed_except_clean(self):
        findings = lint_snippet(
            """
            def f():
                try:
                    return 1
                except ValueError:
                    return 2
            """
        )
        assert findings == []

    def test_mutable_default_flagged(self):
        findings = lint_snippet(
            """
            def f(items=[], table={}, seen=set()):
                return items, table, seen
            """
        )
        assert rule_ids(findings) == ["RC106", "RC106", "RC106"]

    def test_none_default_clean(self):
        findings = lint_snippet(
            """
            def f(items=None, n=3, name="x"):
                return items
            """
        )
        assert findings == []

    def test_syntax_error_reported(self):
        findings = lint_source("def f(:\n", "broken.py")
        assert rule_ids(findings) == ["RC100"]


class TestBarePrint:
    def test_flagged_in_library_code(self):
        findings = lint_snippet(
            "def f():\n    print('debugging')\n",
            path="src/repro/core/rd.py",
        )
        assert rule_ids(findings) == ["RC107"]
        assert "repro.obs.log" in findings[0].message

    def test_main_module_exempt(self):
        findings = lint_snippet(
            "print('usage: ...')\n", path="src/repro/harness/__main__.py"
        )
        assert findings == []

    def test_util_tables_exempt(self):
        findings = lint_snippet(
            "print('| a | b |')\n", path="src/repro/util/tables.py"
        )
        assert findings == []

    def test_non_repro_tree_exempt(self):
        assert lint_snippet("print('hi')\n", path="scripts/tool.py") == []
        assert lint_source("print('hi')\n") == []  # default <string> buffer

    def test_method_named_print_clean(self):
        findings = lint_snippet(
            "def f(report):\n    report.print()\n",
            path="src/repro/core/rd.py",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings = lint_snippet(
            "print('on purpose')  # repro: noqa[RC107]\n",
            path="src/repro/obs/log.py",
        )
        assert findings == []


class TestUnenteredSpan:
    def test_bare_span_call_flagged(self):
        findings = lint_snippet(
            """
            from repro.obs import span

            def f():
                span("factor")
                return 1
            """
        )
        assert rule_ids(findings) == ["RC108"]
        assert "never" in findings[0].message
        assert "with span(...)" in findings[0].message

    def test_bare_kernel_time_flagged(self):
        findings = lint_snippet(
            """
            from repro.obs.tracer import kernel_time

            def f():
                kernel_time("lu_batched")
            """
        )
        assert rule_ids(findings) == ["RC108"]

    def test_tracer_attribute_call_flagged(self):
        findings = lint_snippet(
            """
            def f(ctx):
                ctx.tracer.span("solve")
            """
        )
        assert rule_ids(findings) == ["RC108"]

    def test_with_statement_clean(self):
        findings = lint_snippet(
            """
            from repro.obs import span

            def f():
                with span("factor"):
                    return 1
            """
        )
        assert findings == []

    def test_assigned_span_clean(self):
        # Storing the manager for a later ``with`` is deliberate.
        findings = lint_snippet(
            """
            from repro.obs import span

            def f():
                cm = span("factor")
                with cm:
                    return 1
            """
        )
        assert findings == []

    def test_unrelated_span_attribute_clean(self):
        findings = lint_snippet(
            """
            def f(layout):
                layout.span(3)
            """
        )
        assert findings == []

    def test_local_span_function_clean(self):
        # ``span`` not imported from an obs module stays out of scope.
        findings = lint_snippet(
            """
            def span(name):
                return name

            def f():
                span("x")
            """
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings = lint_snippet(
            """
            from repro.obs import span

            def f():
                span("factor")  # repro: noqa[RC108]
            """
        )
        assert findings == []


class TestSuppression:
    def test_targeted_noqa(self):
        findings = lint_snippet(
            """
            def program(comm):
                if comm.rank == 0:
                    comm.bcast(1, root=0)  # repro: noqa[RC101]
            """
        )
        assert findings == []

    def test_blanket_noqa(self):
        findings = lint_snippet(
            """
            def f(items=[]):  # repro: noqa
                return items
            """
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint_snippet(
            """
            def f(items=[]):  # repro: noqa[RC101]
                return items
            """
        )
        assert rule_ids(findings) == ["RC106"]

    def test_multi_code_noqa_suppresses_both(self):
        findings = lint_snippet(
            """
            def program(comm, items=[]):  # repro: noqa[RC106, RC101]
                if comm.rank == 0:
                    comm.barrier()  # repro: noqa[RC101,RC107]
                return items
            """
        )
        assert findings == []

    def test_multi_code_noqa_still_misses_unlisted_rule(self):
        findings = lint_snippet(
            """
            def program(comm, items=[]):  # repro: noqa[RC101, RC107]
                if comm.rank == 0:
                    comm.barrier()  # repro: noqa[RC101]
                return items
            """
        )
        assert rule_ids(findings) == ["RC106"]


class TestTreeAndCli:
    def test_shipped_tree_lints_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_clean_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("def f():\n    return 1\n")
        assert check_main(["lint", str(f)]) == 0

    @pytest.mark.parametrize(
        "rule_id,snippet",
        [
            ("RC100", "def f(:\n"),
            ("RC101", "def p(comm):\n    if comm.rank:\n        comm.barrier()\n"),
            ("RC102", "def p(comm):\n    comm.isend(1, 0)\n"),
            ("RC103", "import threading\nx = threading.Lock()\n"),
            ("RC104", "__all__ = ['ghost']\n"),
            ("RC105", "def f():\n    try:\n        pass\n    except:\n        pass\n"),
            ("RC106", "def f(x=[]):\n    return x\n"),
            ("RC108", "from repro.obs import span\nspan('kernel')\n"),
        ],
    )
    def test_cli_seeded_bug_exits_nonzero(self, rule_id, snippet, tmp_path, capsys):
        f = tmp_path / "seeded.py"
        f.write_text(snippet)
        assert check_main(["lint", str(f)]) == 1
        assert rule_id in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        f = tmp_path / "seeded.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert check_main(["lint", "--format", "json", str(f)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "RC106"
        assert payload[0]["line"] == 1

    def test_lint_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def p(comm):\n"
            "    if comm.rank:\n"
            "        comm.barrier()\n",
            encoding="utf-8",
        )
        assert check_main(["lint", str(bad), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "RC101"

    def test_cli_rules_catalog(self, capsys):
        assert check_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_cli_offers_only_lint_and_rules(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            check_main(["proto", "repro.core", "--ranks", "2"])
        assert exc_info.value.code == 2
        assert "{lint,rules}" in capsys.readouterr().err


def diverging_program(comm):
    """Rank 0 enters bcast while everyone else enters allreduce."""
    if comm.rank == 0:
        return comm.bcast(0, root=0)  # repro: noqa[RC101] - seeded bug
    return comm.allreduce(1)


class TestCollectiveDivergence:
    def test_verify_reports_first_divergent_collective(self):
        with pytest.raises(SpmdDivergenceError) as exc_info:
            run_spmd(diverging_program, 2, verify=True)
        message = str(exc_info.value)
        assert "collective #0" in message
        assert "bcast" in message and "allreduce" in message
        assert "rank 0" in message and "rank 1" in message
        assert "digest" in message

    def test_default_mode_reports_precise_deadlock(self):
        # Without the verifier the mismatch surfaces as a deadlock — but
        # an exact, named one (rank, op, tag, unmatched messages), not a
        # generic timeout.
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(diverging_program, 2)
        message = str(exc_info.value)
        assert "rank 1" in message
        assert "allreduce" in message
        assert "tag" in message
        assert "unmatched message" in message

    def test_root_mismatch_is_divergence(self):
        def program(comm):
            root = comm.rank  # every rank names a different root
            return comm.bcast(0, root=root)

        with pytest.raises(SpmdDivergenceError) as exc_info:
            run_spmd(program, 2, verify=True)
        assert "root" in str(exc_info.value)

    def test_extra_collective_on_one_rank(self):
        def program(comm):
            comm.barrier()
            if comm.rank == 1:
                comm.barrier()  # repro: noqa[RC101] - seeded bug
            return comm.allreduce(comm.rank)

        with pytest.raises(SpmdDivergenceError) as exc_info:
            run_spmd(program, 2, verify=True)
        message = str(exc_info.value)
        assert "collective #1" in message
        assert "barrier" in message and "allreduce" in message

    def test_env_var_enables_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(SpmdDivergenceError):
            run_spmd(diverging_program, 2)

    def test_env_var_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        with pytest.raises(DeadlockError):
            run_spmd(diverging_program, 2)

    def test_env_var_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "off")
        with pytest.raises(DeadlockError):
            run_spmd(diverging_program, 2)

    def test_clean_program_passes_all_collectives(self):
        def program(comm):
            comm.barrier()
            items = comm.allgather(comm.rank)
            comm.scatter(items, root=1)
            comm.alltoall(items)
            comm.reduce(comm.rank, root=1)
            comm.exscan(comm.rank)
            return comm.scan(comm.rank)

        res = run_spmd(program, 4, verify=True)
        assert res.values == [0, 1, 3, 6]

    def test_split_communicators_verify_independently(self):
        # Different sub-communicators legitimately run different
        # collective sequences; comm_key isolation must not call that
        # divergence.
        def program(comm):
            sub = comm.split(comm.rank % 2)
            if comm.rank % 2 == 0:
                sub.barrier()
                return sub.allreduce(comm.rank)
            return sub.allgather(comm.rank)

        res = run_spmd(program, 4, verify=True)
        assert res.values[0] == res.values[2] == 2
        assert res.values[1] == res.values[3] == [1, 3]

    def test_dup_verifies_clean(self):
        def program(comm):
            other = comm.dup()
            return other.allreduce(1)

        res = run_spmd(program, 3, verify=True)
        assert res.values == [3, 3, 3]


class TestExactDeadlockDetection:
    def test_cycle_is_named(self):
        def program(comm):
            nxt = (comm.rank + 1) % comm.size
            val = comm.recv(source=nxt, tag=3)
            comm.send(val, nxt, tag=3)

        for verify in (False, True):
            with pytest.raises(DeadlockError) as exc_info:
                run_spmd(program, 3, verify=verify)
            message = str(exc_info.value)
            assert "wait-for cycle" in message
            assert "rank 0 -> " in message or "rank 0" in message
            assert "tag 3" in message

    def test_detection_is_immediate_not_timeout_based(self):
        def program(comm):
            return comm.recv(source=(comm.rank + 1) % comm.size, tag=5)

        start = time.monotonic()
        with pytest.raises(DeadlockError):
            run_spmd(program, 2)
        assert time.monotonic() - start < 5.0

    def test_mismatched_tag_names_pending_message(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=1)
            else:
                return comm.recv(source=0, tag=2)

        for verify in (False, True):
            with pytest.raises(DeadlockError) as exc_info:
                run_spmd(program, 2, verify=verify)
            message = str(exc_info.value)
            assert "tag 2" in message  # what rank 1 waits for
            assert "tag 1" in message  # the unmatched message in its inbox
            assert "rank 0 -> rank 1" in message
            assert ("near miss: rank 1 waits for tag 2; rank 0 sent it "
                    "tag 1 (same rank pair, different tag)") in message

    def test_wrong_peer_names_near_miss(self):
        def program(comm):
            if comm.rank == 1:
                comm.send("x", 2, tag=5)
            elif comm.rank == 2:
                return comm.recv(source=0, tag=5)

        for verify in (False, True):
            with pytest.raises(DeadlockError) as exc_info:
                run_spmd(program, 3, verify=verify)
            message = str(exc_info.value)
            assert "rank 1 -> rank 2 (tag 5" in message
            assert ("near miss: rank 2 waits for rank 0; rank 1 sent it "
                    "tag 5 (same tag, different peer)") in message

    def test_long_compute_phase_is_not_deadlock(self):
        # The false-positive fix: a rank grinding through local work is
        # live, so the blocked ranks must keep waiting no matter how
        # long the compute takes — there is no stall window to outlast.
        def program(comm):
            if comm.rank == 0:
                time.sleep(0.6)
                comm.send("late", 1)
                comm.send("late", 2)
                return None
            return comm.recv(source=0)

        res = run_spmd(program, 3)
        assert res.values[1] == res.values[2] == "late"

    def test_wildcard_receive_deadlock_reported(self):
        def program(comm):
            return comm.recv()  # ANY_SOURCE, nobody ever sends

        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(program, 2)
        assert "any rank" in str(exc_info.value)


class TestFinalizeSweep:
    def test_unreceived_message_is_error_under_verify(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=7)

        with pytest.raises(UnconsumedMessageError) as exc_info:
            run_spmd(program, 2, verify=True)
        message = str(exc_info.value)
        assert "rank 0 -> rank 1" in message
        assert "tag 7" in message

    def test_unreceived_message_warns_in_default_mode(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=7)

        with pytest.warns(UnconsumedMessageWarning, match="tag 7"):
            run_spmd(program, 2)

    def test_clean_program_no_warning(self):
        def program(comm):
            comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=1)
            return comm.recv(tag=1)

        with warnings.catch_warnings():
            warnings.simplefilter("error", UnconsumedMessageWarning)
            res = run_spmd(program, 2)
        assert sorted(res.values) == [0, 1]


class TestSpmdVerifierUnit:
    def test_schedule_slots_are_garbage_collected(self):
        verifier = SpmdVerifier(2)
        for index in range(100):
            assert verifier.record_collective(0, ("world",), "barrier", None, 2) == index
            assert verifier.record_collective(1, ("world",), "barrier", None, 2) == index
        assert verifier._pending == {}
        assert verifier.collectives_checked == 200

    def test_digest_tracks_sequence(self):
        verifier = SpmdVerifier(2)
        verifier.record_collective(0, ("world",), "barrier", None, 2)
        verifier.record_collective(1, ("world",), "barrier", None, 2)
        assert verifier.digest(0) == verifier.digest(1)
        verifier.record_collective(0, ("world",), "scan", None, 2)
        assert verifier.digest(0) != verifier.digest(1)


class TestVerifiedSolves:
    def test_ard_solve_clean_under_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        from repro import solve
        from repro.workloads import absorbing_helmholtz_system, random_rhs

        matrix, _ = absorbing_helmholtz_system(16, 3)
        b = random_rhs(16, 3, nrhs=4, seed=1).astype(matrix.dtype)
        x = solve(matrix, b, method="ard", nranks=4)
        assert matrix.residual(x, b) < 1e-8

    def test_rd_solve_clean_under_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        from repro import solve
        from repro.workloads import absorbing_helmholtz_system, random_rhs

        matrix, _ = absorbing_helmholtz_system(16, 3)
        b = random_rhs(16, 3, nrhs=1, seed=3).astype(matrix.dtype)
        x = solve(matrix, b, method="rd", nranks=4)
        assert matrix.residual(x, b) < 1e-8


class TestSolverGate:
    """Every shipped SPMD solver runs clean under verification.

    The solvers pass ``copy_messages=False``, so a received array would
    otherwise be the sender's array; verification copies it anyway and
    delivers it read-only, so any in-place write to a received payload
    (or to an ``isend`` buffer before its wait) fails here.
    """

    def test_solvers_clean_at_2_4_8_under_verification(self, monkeypatch):
        from repro import solve
        from repro.core.bcyclic import bcyclic_solve
        from repro.workloads import helmholtz_block_system, random_rhs

        monkeypatch.setenv("REPRO_VERIFY", "1")
        start = time.monotonic()
        for p in (2, 4, 8):
            matrix, _ = helmholtz_block_system(2 * p, 3)
            b = random_rhs(2 * p, 3, nrhs=2, seed=p)
            for method in ("rd", "ard", "spike"):
                x, info = solve(matrix, b, method=method, nranks=p,
                                return_info=True)
                assert matrix.residual(x, b) < 1e-10, (method, p)
                # Verification copies even for copy_messages=False.
                copies = sum(s.payload_copies for s in info.solve_result.stats)
                assert copies > 0, (method, p)
            matrix, _ = helmholtz_block_system(p, 3)
            b = random_rhs(p, 3, nrhs=2, seed=p)
            x, result = bcyclic_solve(matrix, b)
            assert result.nranks == p
            assert matrix.residual(x, b) < 1e-10, ("bcyclic", p)
            assert sum(s.payload_copies for s in result.stats) > 0
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"solver gate took {elapsed:.2f}s"

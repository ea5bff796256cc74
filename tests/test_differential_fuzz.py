"""Generative differential testing: fast paths vs reference schedulers.

The hand-written equivalence suite (``test_interpreter_fastpath.py``)
covers the kernels we thought of; this harness covers the ones we did
not.  For each of ``N_PROGRAMS`` fixed seeds it generates a random —
but deterministic and well-formed — kernel program from a small
instruction vocabulary, runs it on the batched fast path and on the
scalar reference scheduler, and requires byte-identical results:
same memory contents, same modeled times, same stats.

Well-formedness by construction (the static sanitizer's defect
classes are deliberately *not* generated): barriers and collectives
are emitted only at top level, thread-dependent branches only wrap
non-collective ops, loops have uniform trip counts, and lock
acquisitions are emitted as properly nested pairs in a fixed global
order.

Every CUDA and OpenMP program is one flat generator over an immutable
tuple program, with no helper calls and no attribute access outside
its thread context, so it passes the purity proof and signs like any
user kernel: the replay cases drive the very keying chain a user
launch takes, and ``fast=False`` is their oracle.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import numpy as np
import pytest

from repro.common.errors import DataRaceError
from repro.compiler.dispatcher import DISPATCHER
from repro.cpu.machine import CpuMachine
from repro.cuda import requests as rq
from repro.cuda.interpreter import Cuda
from repro.gpu.device import GpuDevice
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value
from repro.openmp.interpreter import OpenMP

#: Programs per interpreter.  Seeds are fixed: every CI run fuzzes the
#: exact same corpus, so a failure is reproducible by seed.
N_PROGRAMS = 50


# --------------------------- CUDA programs --------------------------- #

#: Collectives are drawn three times as often as other ops, so the
#: corpus issues each of the ten at least three times.
_CUDA_OPS = ("alu", "gread", "gwrite", "swrite", "sread", "atomic",
             "sync", "syncwarp", *("collective",) * 3)
#: Ops safe under thread-dependent control flow (no block barriers, no
#: warp collectives — exactly the sanitizer's divergence rule).
_CUDA_BRANCH_SAFE = ("alu", "gread", "gwrite", "swrite", "sread",
                     "atomic")
_ATOMIC_KINDS = ("atomic_add", "atomic_max", "atomic_min", "atomic_or",
                 "atomic_xor", "atomic_exch")
#: Every warp collective the kernel op names issue, by request class.
_COLLECTIVES = {
    "shfl": rq.ShflSync, "shfl_up": rq.ShflUpSync,
    "shfl_down": rq.ShflDownSync, "shfl_xor": rq.ShflXorSync,
    "all": rq.VoteAll, "any": rq.VoteAny, "ballot": rq.Ballot,
    "match_any": rq.MatchAnySync, "match_all": rq.MatchAllSync,
    "reduce_max": rq.ReduceMaxSync,
}


def _collective_arg(rng, name):
    """The collective's one parameter: a source lane, a delta, a lane
    mask, or the modulus its predicate or match value takes of the
    accumulator (modulus 1 makes every lane's ``match_all`` value
    equal)."""
    if name == "shfl":
        return rng.randint(0, 31)
    if name in ("shfl_up", "shfl_down"):
        return rng.randint(1, 4)
    if name == "shfl_xor":
        return rng.choice((1, 2, 4, 8, 16))
    if name == "match_all":
        return rng.choice((1, 2))
    return rng.randint(2, 4)


def _gen_cuda_ops(rng, depth=0):
    """One random instruction list (descriptors, not code)."""
    ops = []
    vocab = _CUDA_BRANCH_SAFE if depth else _CUDA_OPS
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(vocab)
        if kind == "alu":
            ops.append(("alu", rng.randint(1, 4)))
        elif kind in ("gread", "gwrite"):
            ops.append((kind, rng.choice(("g0", "g1")),
                        rng.choice(("tid", "rev", "const")),
                        rng.randint(0, 7)))
        elif kind in ("swrite", "sread"):
            ops.append((kind, rng.choice(("tid", "rot")),
                        rng.randint(1, 5)))
        elif kind == "atomic":
            ops.append((rng.choice(_ATOMIC_KINDS),
                        rng.randint(0, 7), rng.randint(1, 3)))
        elif kind == "sync":
            ops.append(("sync",))
        elif kind == "syncwarp":
            ops.append(("syncwarp",))
        elif kind == "collective":
            name = rng.choice(tuple(_COLLECTIVES))
            ops.append((name, _collective_arg(rng, name)))
        if depth == 0 and rng.random() < 0.3:
            body = _gen_cuda_ops(rng, depth + 1)
            if rng.random() < 0.5:
                ops.append(("branch", rng.randint(2, 4), body))
            else:
                ops.append(("loop", rng.randint(2, 3), body))
    return ops


def _flat_cuda_program(ops, mod=1):
    """Flatten descriptors into a tuple of ``(mod, kind, a, b, c)`` ops.

    An op runs on the threads whose global id is a multiple of ``mod``
    (1: every thread): a branch guards its body with its modulus, and a
    loop, whose trip count is uniform, is unrolled.  The request stream
    is the nested program's, op for op.
    """
    flat = []
    for op in ops:
        if op[0] == "branch":
            flat += _flat_cuda_program(op[2], op[1])
        elif op[0] == "loop":
            flat += _flat_cuda_program(op[2], mod) * op[1]
        else:
            flat.append((mod, *op, 0, 0, 0)[:5])
    return tuple(flat)


def _make_cuda_kernel(program):
    """One flat generator over a flat program: it calls no helper and
    reads only its thread context and the immutable ``program`` cell,
    so the dispatcher keys it exactly as it keys a user kernel."""

    def kernel(t):
        acc = t.global_id % 7
        for mod, kind, a, b, c in program:
            if t.global_id % mod:
                continue
            v = 0
            if kind == "alu":
                yield t.alu(a)
            elif kind in ("gread", "gwrite"):
                if b == "tid":
                    idx = t.global_id
                elif b == "rev":
                    idx = t.total_threads - 1 - t.global_id
                else:
                    idx = c
                if kind == "gread":
                    v = yield t.global_read(a, idx)
                else:
                    yield t.global_write(a, idx, acc + c)
            elif kind in ("swrite", "sread"):
                if a == "tid":
                    idx = t.threadIdx
                else:
                    idx = (t.threadIdx + 1) % t.blockDim
                if kind == "sread":
                    v = yield t.shared_read("buf", idx)
                else:
                    yield t.shared_write("buf", idx, acc + b)
            elif kind == "atomic_add":
                v = yield t.atomic_add("acc", a, acc % 5 + b)
            elif kind == "atomic_max":
                v = yield t.atomic_max("acc", a, acc % 5 + b)
            elif kind == "atomic_min":
                v = yield t.atomic_min("acc", a, acc % 5 + b)
            elif kind == "atomic_or":
                v = yield t.atomic_or("acc", a, acc % 5 + b)
            elif kind == "atomic_xor":
                v = yield t.atomic_xor("acc", a, acc % 5 + b)
            elif kind == "atomic_exch":
                v = yield t.atomic_exch("acc", a, acc % 5 + b)
            elif kind == "sync":
                yield t.syncthreads()
            elif kind == "syncwarp":
                yield t.syncwarp()
            elif kind == "shfl":
                v = yield t.shfl_sync(acc, a)
            elif kind == "shfl_up":
                v = yield t.shfl_up_sync(acc, a)
            elif kind == "shfl_down":
                v = yield t.shfl_down_sync(acc, a)
            elif kind == "shfl_xor":
                v = yield t.shfl_xor_sync(acc, a)
            elif kind == "all":
                v = yield t.all_sync(acc % a != 0)
            elif kind == "any":
                v = yield t.any_sync(acc % a == 0)
            elif kind == "ballot":
                v = yield t.ballot_sync(acc % a == 0)
            elif kind == "match_any":
                v = yield t.match_any_sync(acc % a)
            elif kind == "match_all":
                v = yield t.match_all_sync(acc % a)
            elif kind == "reduce_max":
                v = yield t.reduce_max_sync(acc)
            acc = (acc + int(v)) % 1009
        yield t.global_write("out", t.global_id, acc)

    return kernel


def _run_cuda(device, program, grid, block, fast, trace=False):
    n = grid * block
    kernel = _make_cuda_kernel(program)
    cuda = Cuda(device, fast=fast)
    return cuda.launch(
        kernel, LaunchConfig(grid, block),
        globals_={"g0": np.arange(n, dtype=np.int64),
                  "g1": (np.arange(n, dtype=np.int64) * 13) % 97,
                  "acc": np.zeros(8, np.int64),
                  "out": np.zeros(n, np.int64)},
        shared_decls={"buf": (block, np.dtype(np.int64))}, trace=trace)


def _cuda_case(seed):
    rng = random.Random(1000 + seed)
    program = _flat_cuda_program(_gen_cuda_ops(rng))
    return program, rng.choice((1, 2)), rng.choice((32, 64))


def test_cuda_corpus_covers_every_collective():
    """The vocabulary names every warp-collective request class, and
    the fixed corpus issues each of them at least once."""
    assert set(_COLLECTIVES.values()) == \
        set(rq.WarpCollective.__subclasses__())
    issued = {op[1] for seed in range(N_PROGRAMS)
              for op in _cuda_case(seed)[0]}
    assert set(_COLLECTIVES) <= issued, set(_COLLECTIVES) - issued


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_fast_path_matches_reference(mini_gpu, seed):
    """Traced, so the per-pass cost and label each executor returns are
    compared pass by pass, not only their block totals.  The replay
    cache starts empty, so the fast launch runs the batched tier."""
    program, grid, block = _cuda_case(seed)
    DISPATCHER.clear()
    fast = _run_cuda(mini_gpu, program, grid, block, fast=True, trace=True)
    ref = _run_cuda(mini_gpu, program, grid, block, fast=False, trace=True)
    assert fast.elapsed_cycles == ref.elapsed_cycles, f"seed {seed}"
    assert fast.block_cycles == ref.block_cycles, f"seed {seed}"
    assert fast.stats == ref.stats, f"seed {seed}"
    assert fast.trace.events == ref.trace.events, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


_DISPATCH = ("dispatch.hit", "dispatch.miss", "dispatch.fallback")


def _replay_sequence(run, seed):
    """``run(trace)`` cold then warm, untraced then traced, from an empty
    replay cache; returns the four results by label.

    Each cold run must move ``dispatch.miss`` alone and each warm run
    ``dispatch.hit`` alone: the program passes the purity proof and
    signs (no ``dispatch.fallback``), and the untraced entry never
    serves the traced cold run, which records the timeline its own warm
    rerun replays.
    """
    DISPATCHER.clear()  # another seed may generate the same program
    results = {}
    for label, trace in (("cold", False), ("warm", False),
                         ("traced cold", True), ("traced warm", True)):
        before = [counter_value(name) for name in _DISPATCH]
        results[label] = run(trace)
        moved = {name: counter_value(name) - b
                 for name, b in zip(_DISPATCH, before)}
        want = "dispatch.hit" if label.endswith("warm") else "dispatch.miss"
        assert moved == {name: int(name == want) for name in _DISPATCH}, \
            f"seed {seed} ({label}): {moved}"
    return results


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_dispatcher_forced_matches_reference(mini_gpu, seed):
    """Content replay must stay byte-identical to the reference, both on
    the cold launch that records and on the warm launch that replays,
    untraced and traced (:func:`_replay_sequence`)."""
    program, grid, block = _cuda_case(seed)
    ref = _run_cuda(mini_gpu, program, grid, block, fast=False,
                    trace=True)
    results = _replay_sequence(
        lambda trace: _run_cuda(mini_gpu, program, grid, block, fast=True,
                                trace=trace), seed)
    for label, result in results.items():
        if result.trace is not None:
            assert result.trace.events == ref.trace.events, \
                f"seed {seed} ({label})"
        assert result.elapsed_cycles == ref.elapsed_cycles, \
            f"seed {seed} ({label})"
        assert result.block_cycles == ref.block_cycles, \
            f"seed {seed} ({label})"
        assert result.stats == ref.stats, f"seed {seed} ({label})"
        assert set(result.memory) == set(ref.memory)
        for name in ref.memory:
            assert result.memory[name].tobytes() == \
                ref.memory[name].tobytes(), \
                f"seed {seed} ({label}): {name}"


# ------------------------ multi-GPU programs ------------------------- #

#: Multi-device vocabulary.  Everything is emitted at top level with
#: uniform control flow, so the cooperative barriers are always safe:
#: every thread on every device executes the same sequence.
_MG_OPS = ("alu", "dread", "dwrite", "sysread", "syswrite",
           "sysatomic", "devatomic", "fence", "fence_sys",
           "grid_sync", "multi_grid_sync")
_MG_ATOMICS = ("atomic_add", "atomic_max", "atomic_min", "atomic_or",
               "atomic_xor", "atomic_exch")

#: Fixed-seed multi-device corpus size (ISSUE floor: >= 25).
N_MG_PROGRAMS = 25


def _gen_mg_ops(rng):
    """One random multi-device instruction list (descriptors)."""
    ops = []
    for _ in range(rng.randint(4, 10)):
        kind = rng.choice(_MG_OPS)
        if kind == "alu":
            ops.append(("alu", rng.randint(1, 4)))
        elif kind in ("dread", "dwrite"):
            ops.append((kind, rng.choice(("tid", "const")),
                        rng.randint(0, 7)))
        elif kind == "sysread":
            ops.append((kind, rng.choice(("s0", "s1")),
                        rng.choice(("sid", "const")), rng.randint(0, 7)))
        elif kind == "syswrite":
            ops.append((kind, rng.choice(("s0", "s1")),
                        rng.randint(1, 5)))
        elif kind in ("sysatomic", "devatomic"):
            ops.append((kind, rng.choice(_MG_ATOMICS),
                        rng.randint(0, 7), rng.randint(1, 3)))
        else:
            ops.append((kind,))
    return ops


def _make_mg_kernel(program):
    """Build a closure kernel running one multi-device descriptor
    list."""
    from repro.compiler.ops import Scope

    def kernel(t):
        acc = t.system_id % 7
        for op in program:
            kind = op[0]
            if kind == "alu":
                yield t.alu(op[1])
            elif kind == "dread":
                idx = t.global_id if op[1] == "tid" else op[2]
                v = yield t.global_read("d0", idx)
                acc = (acc + int(v)) % 1009
            elif kind == "dwrite":
                idx = t.global_id if op[1] == "tid" else op[2]
                yield t.global_write("d0", idx, acc + op[2])
            elif kind == "sysread":
                idx = t.system_id if op[2] == "sid" else op[3]
                v = yield t.system_read(op[1], idx)
                acc = (acc + int(v)) % 1009
            elif kind == "syswrite":
                yield t.system_write(op[1], t.system_id, acc + op[2])
            elif kind in ("sysatomic", "devatomic"):
                _, name, slot, val = op
                scope = Scope.SYSTEM if kind == "sysatomic" \
                    else Scope.DEVICE
                v = yield getattr(t, name)("acc", slot,
                                           acc % 5 + val, scope=scope)
                acc = (acc + int(v)) % 1009
            elif kind == "fence":
                yield t.threadfence()
            elif kind == "fence_sys":
                yield t.threadfence(Scope.SYSTEM)
            elif kind == "grid_sync":
                yield t.grid_sync()
            elif kind == "multi_grid_sync":
                yield t.multi_grid_sync()
        yield t.system_write("out", t.system_id, acc)

    return kernel


def _mg_system(n_total):
    return {"s0": np.arange(n_total, dtype=np.int64),
            "s1": (np.arange(n_total, dtype=np.int64) * 13) % 97,
            "acc": np.zeros(8, np.int64),
            "out": np.zeros(n_total, np.int64)}


def _run_mg(runtime, kernel, grid, block, n_total):
    return runtime.launch(
        kernel, LaunchConfig(grid, block), system=_mg_system(n_total),
        device_globals={"d0": (grid * block, np.dtype(np.int64))})


@pytest.mark.parametrize("seed", range(N_MG_PROGRAMS))
def test_multigpu_replay_matches_reference(mini_gpu, seed):
    """Cooperative/system-scope programs launched twice on one runtime
    must be byte-identical to a fresh runtime, and the relaunch must run
    every round itself (``multigpu.rounds`` tripwire: multi-device
    launches never consult the dispatcher, and no memo may answer
    them)."""
    from repro.cuda.multigpu import MultiCuda
    from repro.gpu.multi import MultiGpu

    rng = random.Random(4000 + seed)
    program = _gen_mg_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((8, 16))
    n_devices = rng.choice((2, 3))
    n_total = n_devices * grid * block
    kernel = _make_mg_kernel(program)
    multi = MultiGpu(mini_gpu)

    runtime = MultiCuda(multi, n_devices=n_devices)
    cold = _run_mg(runtime, kernel, grid, block, n_total)
    rounds = counter_value("multigpu.rounds")
    warm = _run_mg(runtime, kernel, grid, block, n_total)
    assert counter_value("multigpu.rounds") - rounds \
        == warm.stats.rounds > 0, \
        f"seed {seed}: relaunch did not run its rounds"
    ref = _run_mg(MultiCuda(multi, n_devices=n_devices), kernel, grid,
                  block, n_total)
    for label, result in (("cold", cold), ("warm", warm)):
        assert result.elapsed_cycles == ref.elapsed_cycles, \
            f"seed {seed} ({label})"
        assert result.device_cycles == ref.device_cycles, \
            f"seed {seed} ({label})"
        assert vars(result.stats) == vars(ref.stats), \
            f"seed {seed} ({label})"
        assert set(result.system) == set(ref.system)
        for name in ref.system:
            assert result.system[name].tobytes() == \
                ref.system[name].tobytes(), \
                f"seed {seed} ({label}): {name}"
        assert len(result.device_memories) == len(ref.device_memories)
        for d, mem in enumerate(ref.device_memories):
            for name in mem:
                assert result.device_memories[d][name].tobytes() == \
                    mem[name].tobytes(), \
                    f"seed {seed} ({label}): device {d} {name}"


# -------------------------- OpenMP programs -------------------------- #

_OMP_OPS = ("read", "write", "atomic_update", "atomic_write",
            "atomic_capture", "flush", "barrier", "critical", "lock")


def _gen_omp_ops(rng):
    """A flat program of ``(kind, a, b, c)`` ops.  A lock is a properly
    nested acquire/release pair around a few plain accesses, always on
    the same lock name: imbalance- and cycle-free."""
    ops = []
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(_OMP_OPS)
        if kind in ("read", "write"):
            ops.append((kind, rng.choice(("a", "b")),
                        rng.choice(("tid", "const")), rng.randint(0, 7)))
        elif kind in ("atomic_update", "atomic_write", "atomic_capture"):
            ops.append((kind, rng.randint(0, 3), rng.randint(1, 4), 0))
        elif kind in ("flush", "barrier", "critical"):
            ops.append((kind, 0, 0, 0))
        elif kind == "lock":
            inner = [("read", "a", "tid", 0),
                     ("write", "a", "tid", rng.randint(1, 4))]
            ops += [("lock_acquire", 0, 0, 0),
                    *inner[:rng.randint(1, 2)],
                    ("lock_release", 0, 0, 0)]
    return tuple(ops)


def _make_omp_body(program):
    """The OpenMP twin of :func:`_make_cuda_kernel`.

    A lambda's one way to store is a comprehension target, so the
    critical section increments ``c[0]`` as one: the purity proof
    admits no attribute call such as ``__setitem__``.
    """

    def body(tc):
        acc = tc.tid + 1
        for kind, a, b, c in program:
            v = 0
            if kind == "read":
                v = yield tc.read(a, tc.tid if b == "tid" else c)
            elif kind == "write":
                # Constant-index plain writes from all threads are the
                # sanitizer's static-race class; keep them
                # thread-private.
                yield tc.write(a, tc.tid, acc + c)
            elif kind == "atomic_update":
                yield tc.atomic_update("acc", a, lambda x, d=b: x + d)
            elif kind == "atomic_write":
                yield tc.atomic_write("acc", a, acc % 7 + b)
            elif kind == "atomic_capture":
                v = yield tc.atomic_capture("acc", a,
                                            lambda x, d=b: x + d)
            elif kind == "flush":
                yield tc.flush()
            elif kind == "barrier":
                yield tc.barrier()
            elif kind == "critical":
                yield tc.critical(
                    lambda mem: [0 for mem["c"][0] in [mem["c"][0] + 1]],
                    touches=(("c", 0, True),))
            elif kind == "lock_acquire":
                yield tc.lock_acquire("l")
            elif kind == "lock_release":
                yield tc.lock_release("l")
            acc = (acc + int(v)) % 1009
        yield tc.atomic_write("out", tc.tid, acc)

    return body


def _run_omp(machine, program, n_threads, fast, trace=False):
    body = _make_omp_body(program)
    omp = OpenMP(machine, n_threads=n_threads, detect_races=False,
                 fast=fast)
    return omp.parallel(
        body,
        shared={"a": np.arange(16, dtype=np.int64),
                "b": (np.arange(16, dtype=np.int64) * 7) % 31,
                "acc": np.zeros(4, np.int64),
                "c": np.zeros(1, np.int64),
                "out": np.zeros(n_threads, np.int64)},
        trace=trace)


def _omp_case(seed):
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    return program, rng.choice((2, 4))


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_fast_path_matches_reference(quiet_cpu, seed):
    """Traced, so the cost and label each uniform-round handler charges
    per request are compared event by event against the per-request
    oracle.  The replay cache starts empty, so the fast region runs the
    batched tier."""
    program, n_threads = _omp_case(seed)
    DISPATCHER.clear()
    fast = _run_omp(quiet_cpu, program, n_threads, fast=True, trace=True)
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False, trace=True)
    assert fast.elapsed_ns == ref.elapsed_ns, f"seed {seed}"
    assert fast.thread_times_ns == ref.thread_times_ns, f"seed {seed}"
    assert fast.barriers == ref.barriers, f"seed {seed}"
    assert fast.requests == ref.requests, f"seed {seed}"
    assert fast.trace.events == ref.trace.events, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_dispatcher_forced_matches_reference(quiet_cpu, seed):
    """Region replay must be byte-identical to the reference scheduler,
    cold and warm, untraced and then traced (:func:`_replay_sequence`)."""
    program, n_threads = _omp_case(seed)
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False, trace=True)
    results = _replay_sequence(
        lambda trace: _run_omp(quiet_cpu, program, n_threads, fast=True,
                               trace=trace), seed)
    for label, result in results.items():
        if result.trace is not None:
            assert result.trace.events == ref.trace.events, \
                f"seed {seed} ({label})"
        assert result.elapsed_ns == ref.elapsed_ns, \
            f"seed {seed} ({label})"
        assert result.thread_times_ns == ref.thread_times_ns, \
            f"seed {seed} ({label})"
        assert result.barriers == ref.barriers, f"seed {seed} ({label})"
        assert result.requests == ref.requests, f"seed {seed} ({label})"
        assert set(result.memory) == set(ref.memory)
        for name in ref.memory:
            assert result.memory[name].tobytes() == \
                ref.memory[name].tobytes(), \
                f"seed {seed} ({label}): {name}"


# ------------------- OpenMP race-detection programs ------------------ #

_RACE_OPS = ("read", "read", "write", "write", "atomic_update",
             "atomic_read", "flush", "barrier", "critical", "lock",
             "single")
#: Index modes for plain accesses: thread-private, a constant shared by
#: every thread, a neighbour's slot, or (``master``) only thread 0.
_RACE_MODES = ("tid", "tid", "const", "shift", "master")


def _gen_omp_race_ops(rng):
    """A well-formed flat program of ``(kind, var, mode, k)`` ops whose
    plain reads and writes share indices across threads, so many seeds
    race (unlike :func:`_gen_omp_ops`, which keeps plain writes
    thread-private).  A single's ``mode`` is whether it writes.
    Barriers and singles stay at top level and locks are nested pairs on
    one name, so every program terminates; only its data-race verdict
    varies."""
    ops = []
    for _ in range(rng.randint(3, 9)):
        kind = rng.choice(_RACE_OPS)
        if kind in ("read", "write"):
            ops.append((kind, rng.choice(("a", "b")),
                        rng.choice(_RACE_MODES), rng.randint(0, 3)))
        elif kind in ("atomic_update", "atomic_read"):
            # Atomics on the plain arrays: atomic-vs-plain pairs race.
            ops.append((kind, rng.choice(("a", "acc")), "",
                        rng.randint(0, 3)))
        elif kind == "critical":
            ops.append((kind, rng.choice(("a", "c")), "",
                        rng.randint(0, 3)))
        elif kind == "single":
            var, k = rng.choice(("a", "b", "c")), rng.randint(0, 3)
            ops.append((kind, var, rng.random() < 0.5, k))
        elif kind == "lock":
            inner = [(rng.choice(("read", "write")), rng.choice(("a", "b")),
                      rng.choice(_RACE_MODES), rng.randint(0, 3))
                     for _ in range(rng.randint(1, 3))]
            ops += [("lock_acquire", "", "", 0), *inner,
                    ("lock_release", "", "", 0)]
        else:
            ops.append((kind, "", "", 0))
    return tuple(ops)


def _make_omp_race_body(program):
    """A flat region body over :func:`_gen_omp_race_ops`; a critical or
    writing single increments ``var[k]`` through a comprehension
    target, as :func:`_make_omp_body` explains."""

    def body(tc):
        acc = tc.tid + 1
        for kind, var, mode, k in program:
            v = 0
            if kind in ("read", "write"):
                if mode == "master" and tc.tid != 0:
                    continue
                if mode == "const":
                    idx = k
                elif mode == "shift":
                    idx = (tc.tid + k) % tc.n_threads
                else:
                    idx = tc.tid
                if kind == "read":
                    v = yield tc.read(var, idx)
                else:
                    yield tc.write(var, idx, acc + k)
            elif kind == "atomic_update":
                yield tc.atomic_update(var, k, lambda x: x + 1)
            elif kind == "atomic_read":
                v = yield tc.atomic_read(var, k)
            elif kind == "critical":
                yield tc.critical(
                    lambda mem, a=var, i=k: [0 for mem[a][i]
                                             in [mem[a][i] + 1]],
                    touches=((var, k, True),))
            elif kind == "single" and mode:
                yield tc.single(
                    lambda mem, a=var, i=k: [0 for mem[a][i]
                                             in [mem[a][i] + 1]],
                    touches=((var, k, True),))
            elif kind == "single":
                yield tc.single(lambda mem: 0, touches=((var, k, False),))
            elif kind == "lock_acquire":
                yield tc.lock_acquire("l")
            elif kind == "lock_release":
                yield tc.lock_release("l")
            elif kind == "flush":
                yield tc.flush()
            else:
                yield tc.barrier()
            acc = (acc + int(v)) % 1009
        yield tc.atomic_write("out", tc.tid, acc)

    return body


def _race_shared(n_threads):
    return {"a": np.arange(8, dtype=np.int64),
            "b": (np.arange(8, dtype=np.int64) * 5) % 13,
            "acc": np.zeros(4, np.int64),
            "c": np.zeros(4, np.int64),
            "out": np.zeros(n_threads, np.int64)}


def _race_case(seed):
    rng = random.Random(11000 + seed)
    program = _gen_omp_race_ops(rng)
    return (_make_omp_race_body(program), rng.choice((2, 4)),
            rng.random() < 0.75)


def _run_race(machine, case, fast, collect, detect=True):
    """One region; returns ``(result or None, DataRaceError message or
    None, shared memory bytes)``.  The memory is read even after a
    raise: both schedulers must leave the same partial state."""
    body, n_threads, relaxed = case
    shared = _race_shared(n_threads)
    omp = OpenMP(machine, n_threads=n_threads, detect_races=detect,
                 collect_races=collect, relaxed_consistency=relaxed,
                 fast=fast)
    try:
        result, error = omp.parallel(body, shared), None
    except DataRaceError as exc:
        result, error = None, str(exc)
    return result, error, {name: arr.tobytes()
                           for name, arr in shared.items()}


def _assert_results_equal(got, ref, label):
    assert got.races == ref.races, label
    assert got.elapsed_ns == ref.elapsed_ns, label
    assert got.thread_times_ns == ref.thread_times_ns, label
    assert got.barriers == ref.barriers, label
    assert got.requests == ref.requests, label
    assert set(got.memory) == set(ref.memory), label
    for name in ref.memory:
        assert got.memory[name].tobytes() == ref.memory[name].tobytes(), \
            f"{label}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_race_detection_matches_reference(quiet_cpu, seed):
    """The batched scheduler feeds the detector the reference's access
    stream: same races in collect mode, same first race (and partial
    memory) in raise mode.  Replay follows the verdict: a race-free
    collect run records and serves the raise-mode rerun, a racy one is
    never recorded, and a race-blind entry never serves a detecting
    rerun of identical input."""
    case = _race_case(seed)
    ref, _, ref_mem = _run_race(quiet_cpu, case, False, collect=True)
    DISPATCHER.clear()  # so the collect run takes the batched tier
    misses = counter_value("dispatch.miss")
    fast, _, fast_mem = _run_race(quiet_cpu, case, True, collect=True)
    assert counter_value("dispatch.miss") - misses == 1, f"seed {seed}"
    _assert_results_equal(fast, ref, f"seed {seed} (collect)")
    assert fast_mem == ref_mem, f"seed {seed} (collect)"

    _, ref_err, ref_mem = _run_race(quiet_cpu, case, False, collect=False)
    assert (ref_err is None) == (not ref.races), f"seed {seed}"
    # Raise mode three times: replayed from the collect run's entry, then
    # from an empty cache (the batched tier), then replayed from that.
    for label, cold in (("raise, after collect", False),
                        ("raise, cold", True), ("raise, warm", False)):
        if cold:
            DISPATCHER.clear()
        hits = counter_value("dispatch.hit")
        result, fast_err, fast_mem = _run_race(quiet_cpu, case, True,
                                               collect=False)
        replayed = counter_value("dispatch.hit") > hits
        tag = f"seed {seed} ({label})"
        assert replayed == (not ref.races and not cold), \
            f"{tag}: replayed={replayed}"
        assert fast_err == ref_err, tag
        assert fast_mem == ref_mem, tag
        if not ref.races:
            _assert_results_equal(result, ref, tag)

    if ref.races:
        blind, blind_err, _ = _run_race(quiet_cpu, case, True,
                                        collect=False, detect=False)
        assert blind_err is None and not blind.races, f"seed {seed}"
        detected, _, _ = _run_race(quiet_cpu, case, True, collect=True)
        _assert_results_equal(detected, ref, f"seed {seed} (after blind)")


def test_openmp_race_corpus_exercises_both_verdicts(quiet_cpu):
    """The race corpus is not vacuous: at least a quarter of its seeds
    race, and at least a quarter are race-free (the replay leg)."""
    racy = sum(bool(_run_race(quiet_cpu, _race_case(seed), False,
                              collect=True)[0].races)
               for seed in range(N_PROGRAMS))
    assert N_PROGRAMS // 4 <= racy <= N_PROGRAMS - N_PROGRAMS // 4, racy


# ------- invalidation: flipped globals, cells, cost parameters ------- #

#: Fixed-seed corpus size per runtime and flip kind.
N_FLIP_PROGRAMS = 10

#: The module global every invalidation program reads; the global-flip
#: tests flip it between launches with identical contents.
_FLIP_SCALE = 1


def _gen_flip_program(rng, kinds):
    """A steady descriptor tuple: immutable, so the kernel closing over
    it signs."""
    return tuple((rng.choice(kinds), rng.randint(1, 3))
                 for _ in range(rng.randint(2, 6)))


def _make_flip_cuda_kernel(program):
    """The kernel reads :data:`_FLIP_SCALE` and an int closure cell;
    returns ``(kernel, set_cell)``, where ``set_cell`` rebinds the
    cell."""
    cell = 1

    def kernel(t):
        acc = t.global_id % 7 + cell
        for kind, k in program:
            if kind == "alu":
                yield t.alu(k)
            elif kind == "sync":
                yield t.syncthreads()
            elif kind == "read":
                value = yield t.global_read(
                    "g0", (t.global_id + k) % t.total_threads)
                acc = acc + value * k
            else:
                old = yield t.atomic_add("acc", k, acc % 5 + _FLIP_SCALE)
                acc = acc + old
        yield t.global_write("out", t.global_id, acc * _FLIP_SCALE)

    def set_cell(value):
        nonlocal cell
        cell = value

    return kernel, set_cell


def _make_flip_omp_body(program):
    """The OpenMP twin of :func:`_make_flip_cuda_kernel`."""
    cell = 1

    def body(tc):
        acc = tc.tid + cell
        for kind, k in program:
            if kind == "read":
                value = yield tc.read("a", (tc.tid + k) % 16)
                acc = acc + value * k
            elif kind == "atomic":
                old = yield tc.atomic_capture(
                    "acc", k, lambda cur: cur + _FLIP_SCALE)
                acc = acc + old
            else:
                yield tc.barrier()
        yield tc.write("out", tc.tid, acc * _FLIP_SCALE)

    def set_cell(value):
        nonlocal cell
        cell = value

    return body, set_cell


def _flip_omp_shared(n_threads, salt):
    return {"a": (np.arange(16, dtype=np.int64) * 5 + salt) % 43,
            "acc": np.zeros(4, np.int64),
            "out": np.zeros(n_threads, np.int64)}


def _rebuilt(machine):
    """A freshly built machine with ``machine``'s current parameter
    values (and so with none of its cached contexts)."""
    if isinstance(machine, GpuDevice):
        return GpuDevice(machine.spec, dataclasses.replace(machine.params),
                         dataclasses.replace(machine.atomics))
    return CpuMachine(machine.topology, dataclasses.replace(machine.params),
                      machine.jitter)


def _cost_flip(machine, program, rng, swap=False):
    """A seeded flip of one cost parameter that prices an op the program
    issues; returns ``flip(on)``.

    The flip edits the parameter object in place, or with ``swap``
    replaces the machine's ``params``/``atomics`` attribute by an edited
    copy (``dataclasses.replace``).
    """
    kinds = {kind for kind, _ in program}
    params = machine.params
    if isinstance(machine, GpuDevice):
        # Every kernel ends in a global write.
        candidates = [(params, "global_load_cycles")]
        if "alu" in kinds:
            candidates.append((params, "alu_cycles"))
        if "sync" in kinds:
            candidates.append((params, "sync_base_cycles"))
        if "atomic" in kinds:
            candidates.append((machine.atomics, "latency_floor_cycles"))
    else:
        # Every body ends in a plain write.
        candidates = [(params, "plain_update_ns")]
        if "atomic" in kinds:
            candidates += [(params, "int_alu_ns"),
                           (params, "line_transfer_ns")]
        if "barrier" in kinds:
            candidates += [(params, "barrier_base_ns"),
                           (params, "barrier_per_core_ns")]
    obj, name = rng.choice(candidates)
    base = getattr(obj, name)
    flipped = base + rng.randint(1, 50)
    if swap:
        attr = "params" if obj is params else "atomics"
        versions = {False: obj,
                    True: dataclasses.replace(obj, **{name: flipped})}
        return lambda on: setattr(machine, attr, versions[on])

    def flip(on):
        object.__setattr__(obj, name, flipped if on else base)

    return flip


def _check_flip_sequence(run, machine, flip, seed):
    """Launch ``run(machine, salt)`` around ``flip(True)``.

    Every launch must equal the ``fast=False`` runtime on a freshly
    built copy of the machine at the same parameter values.  The flipped
    machine's own reference run is no oracle: a context it cached before
    the flip would mislead it as well.

    Before the flip: salts 1, 0, 0, so two records and one replay.
    After it: identical contents again (a stale entry would answer),
    then a replay and two fresh salts.  So the sequence must see
    exactly two hits and five misses, and the flip must change the
    outcome: a flip that changes nothing proves nothing.
    """
    DISPATCHER.clear()
    before = [counter_value(name) for name in _DISPATCH]
    outcomes = {}
    for on, salts in ((False, (1, 0, 0)), (True, (0, 0, 2, 3))):
        flip(on)
        for salt in salts:
            got = run(machine, salt)
            want = run(_rebuilt(machine), salt, fast=False)
            assert got == want, f"seed {seed}: salt {salt} flipped={on}"
            outcomes[on, salt] = got
    assert outcomes[False, 0] != outcomes[True, 0], \
        f"seed {seed}: the flip changed nothing"
    moved = [counter_value(name) - b for name, b in zip(_DISPATCH, before)]
    assert moved == [2, 5, 0], \
        f"seed {seed}: hit/miss/fallback moved {moved}"


def _cuda_flip_case(seed):
    """``(program, set_cell, run, rng)`` for one seeded CUDA case."""
    rng = random.Random(8000 + seed)
    program = _gen_flip_program(rng, ("alu", "read", "atomic", "sync"))
    kernel, set_cell = _make_flip_cuda_kernel(program)
    block = rng.choice((32, 64))
    launch = LaunchConfig(2, block)

    def run(device, salt, fast=True):
        n = 2 * block
        memory = {"g0": (np.arange(n, dtype=np.int64) * 7 + salt) % 61,
                  "acc": np.zeros(4, np.int64),
                  "out": np.zeros(n, np.int64)}
        result = Cuda(device, fast=fast).launch(kernel, launch, memory)
        return (result.elapsed_cycles, result.block_cycles, result.stats,
                {name: arr.tobytes() for name, arr in memory.items()})

    return program, set_cell, run, rng


def _omp_flip_case(seed):
    """``(program, set_cell, run, rng)`` for one seeded OpenMP case."""
    rng = random.Random(9000 + seed)
    program = _gen_flip_program(rng, ("read", "atomic", "barrier"))
    body, set_cell = _make_flip_omp_body(program)
    n_threads = rng.choice((2, 4))

    def run(machine, salt, fast=True):
        shared = _flip_omp_shared(n_threads, salt)
        result = OpenMP(machine, n_threads=n_threads, detect_races=False,
                        fast=fast).parallel(body, shared)
        return (result.elapsed_ns, result.thread_times_ns,
                result.barriers, result.requests,
                {name: arr.tobytes() for name, arr in shared.items()})

    return program, set_cell, run, rng


def _global_flip(monkeypatch):
    module = sys.modules[__name__]
    return lambda on: monkeypatch.setattr(module, "_FLIP_SCALE",
                                          5 if on else 1)


def _cell_flip(set_cell):
    return lambda on: set_cell(5 if on else 1)


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_cuda_global_flip_matches_reference(mini_gpu, monkeypatch, seed):
    _, _, run, _ = _cuda_flip_case(seed)
    _check_flip_sequence(run, mini_gpu, _global_flip(monkeypatch), seed)


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_openmp_global_flip_matches_reference(quiet_cpu, monkeypatch,
                                              seed):
    _, _, run, _ = _omp_flip_case(seed)
    _check_flip_sequence(run, quiet_cpu, _global_flip(monkeypatch), seed)


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_cuda_cell_flip_matches_reference(mini_gpu, seed):
    _, set_cell, run, _ = _cuda_flip_case(seed)
    _check_flip_sequence(run, mini_gpu, _cell_flip(set_cell), seed)


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_openmp_cell_flip_matches_reference(quiet_cpu, seed):
    _, set_cell, run, _ = _omp_flip_case(seed)
    _check_flip_sequence(run, quiet_cpu, _cell_flip(set_cell), seed)


#: ``(seed, swap)`` cost-flip cases: the in-place flip under the bare
#: seed id, the attribute swap under ``swap-<seed>``.
_COST_FLIP_CASES = [pytest.param(seed, swap,
                                 id=f"swap-{seed}" if swap else str(seed))
                    for swap in (False, True)
                    for seed in range(N_FLIP_PROGRAMS)]


@pytest.mark.parametrize("seed, swap", _COST_FLIP_CASES)
def test_cuda_cost_flip_matches_reference(mini_gpu, seed, swap):
    program, _, run, rng = _cuda_flip_case(seed)
    _check_flip_sequence(run, mini_gpu,
                         _cost_flip(mini_gpu, program, rng, swap), seed)


@pytest.mark.parametrize("seed, swap", _COST_FLIP_CASES)
def test_openmp_cost_flip_matches_reference(quiet_cpu, seed, swap):
    program, _, run, rng = _omp_flip_case(seed)
    _check_flip_sequence(run, quiet_cpu,
                         _cost_flip(quiet_cpu, program, rng, swap), seed)

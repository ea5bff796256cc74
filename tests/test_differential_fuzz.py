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
"""

from __future__ import annotations

import random
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.compiler.dispatcher import (
    DISPATCHER, dispatch_disabled, dispatch_forced,
)
from repro.cuda.interpreter import Cuda
from repro.gpu.spec import LaunchConfig
from repro.obs.metrics import counter_value
from repro.openmp.interpreter import OpenMP

#: Programs per interpreter.  Seeds are fixed: every CI run fuzzes the
#: exact same corpus, so a failure is reproducible by seed.
N_PROGRAMS = 50


# --------------------------- CUDA programs --------------------------- #

_CUDA_OPS = ("alu", "gread", "gwrite", "swrite", "sread", "atomic",
             "sync", "syncwarp", "collective")
#: Ops safe under thread-dependent control flow (no block barriers, no
#: warp collectives — exactly the sanitizer's divergence rule).
_CUDA_BRANCH_SAFE = ("alu", "gread", "gwrite", "swrite", "sread",
                     "atomic")
_ATOMIC_KINDS = ("atomic_add", "atomic_max", "atomic_min", "atomic_or",
                 "atomic_xor", "atomic_exch")


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
            ops.append(("atomic", rng.choice(_ATOMIC_KINDS),
                        rng.randint(0, 7), rng.randint(1, 3)))
        elif kind == "sync":
            ops.append(("sync",))
        elif kind == "syncwarp":
            ops.append(("syncwarp",))
        elif kind == "collective":
            ops.append(("collective",
                        rng.choice(("ballot", "all", "shfl"))))
        if depth == 0 and rng.random() < 0.3:
            body = _gen_cuda_ops(rng, depth + 1)
            if rng.random() < 0.5:
                ops.append(("branch", rng.randint(2, 4), body))
            else:
                ops.append(("loop", rng.randint(2, 3), body))
    return ops


def _make_cuda_kernel(program):
    """Build a closure kernel replaying one descriptor list."""

    def run_op(t, op, acc):
        kind = op[0]
        if kind == "alu":
            yield t.alu(op[1])
        elif kind == "gread":
            idx = _gindex(t, op[2], op[3])
            v = yield t.global_read(op[1], idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "gwrite":
            idx = _gindex(t, op[2], op[3])
            yield t.global_write(op[1], idx, acc[0] + op[3])
        elif kind == "swrite":
            idx = _sindex(t, op[1])
            yield t.shared_write("buf", idx, acc[0] + op[2])
        elif kind == "sread":
            idx = _sindex(t, op[1])
            v = yield t.shared_read("buf", idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "atomic":
            _, name, slot, val = op
            v = yield getattr(t, name)("acc", slot, acc[0] % 5 + val)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "sync":
            yield t.syncthreads()
        elif kind == "syncwarp":
            yield t.syncwarp()
        elif kind == "collective":
            if op[1] == "ballot":
                v = yield t.ballot_sync(acc[0] % 2 == 0)
            elif op[1] == "all":
                v = yield t.all_sync(acc[0] % 3 != 0)
            else:
                v = yield t.shfl_down_sync(acc[0], 1)
            acc[0] = (acc[0] + int(v)) % 1009

    def kernel(t):
        acc = [t.global_id % 7]
        for op in program:
            if op[0] == "branch":
                if t.global_id % op[1] == 0:
                    for sub in op[2]:
                        yield from run_op(t, sub, acc)
            elif op[0] == "loop":
                for _ in range(op[1]):
                    for sub in op[2]:
                        yield from run_op(t, sub, acc)
            else:
                yield from run_op(t, op, acc)
        yield t.global_write("out", t.global_id, acc[0])

    return kernel


def _gindex(t, mode, k):
    if mode == "tid":
        return t.global_id
    if mode == "rev":
        return t.total_threads - 1 - t.global_id
    return k


def _sindex(t, mode):
    if mode == "tid":
        return t.threadIdx
    return (t.threadIdx + 1) % t.blockDim


def _run_cuda(device, program, grid, block, fast):
    n = grid * block
    kernel = _make_cuda_kernel(program)
    cuda = Cuda(device, fast=fast)
    return cuda.launch(
        kernel, LaunchConfig(grid, block),
        globals_={"g0": np.arange(n, dtype=np.int64),
                  "g1": (np.arange(n, dtype=np.int64) * 13) % 97,
                  "acc": np.zeros(8, np.int64),
                  "out": np.zeros(n, np.int64)},
        shared_decls={"buf": (block, np.dtype(np.int64))})


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_fast_path_matches_reference(mini_gpu, seed):
    rng = random.Random(1000 + seed)
    program = _gen_cuda_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((32, 64))
    fast = _run_cuda(mini_gpu, program, grid, block, fast=True)
    ref = _run_cuda(mini_gpu, program, grid, block, fast=False)
    assert fast.elapsed_cycles == ref.elapsed_cycles, f"seed {seed}"
    assert fast.block_cycles == ref.block_cycles, f"seed {seed}"
    assert fast.stats == ref.stats, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_cuda_dispatcher_forced_matches_reference(mini_gpu, seed):
    """The JIT dispatch tiers (keyed in ``force`` mode, so even these
    closure-heavy generated kernels are eligible) must stay
    byte-identical to the reference — both on the cold launch that
    records/compiles and on the warm launch that replays."""
    rng = random.Random(1000 + seed)
    program = _gen_cuda_ops(rng)
    grid = rng.choice((1, 2))
    block = rng.choice((32, 64))
    ref = _run_cuda(mini_gpu, program, grid, block, fast=False)
    with dispatch_forced():
        cold = _run_cuda(mini_gpu, program, grid, block, fast=True)
        hits = counter_value("dispatch.hit")
        warm = _run_cuda(mini_gpu, program, grid, block, fast=True)
    assert counter_value("dispatch.hit") > hits, \
        f"seed {seed}: identical relaunch did not replay"
    for label, result in (("cold", cold), ("warm", warm)):
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
    """Build a closure kernel replaying one multi-device descriptor
    list.  One closure per program: the replay tier keys on the kernel
    function object, so reference and fast instances must share it."""
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
    """Cooperative/system-scope programs must be byte-identical between
    the reference run and the replay tier, cold and warm, with the
    replay provably engaged (``multigpu.replay_hit`` tripwire)."""
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

    ref = _run_mg(MultiCuda(multi, n_devices=n_devices, fast=False),
                  kernel, grid, block, n_total)
    fast_runtime = MultiCuda(multi, n_devices=n_devices, fast=True)
    with dispatch_forced():
        cold = _run_mg(fast_runtime, kernel, grid, block, n_total)
        hits = counter_value("multigpu.replay_hit")
        warm = _run_mg(fast_runtime, kernel, grid, block, n_total)
    assert counter_value("multigpu.replay_hit") > hits, \
        f"seed {seed}: identical relaunch did not replay"
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
    ops = []
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(_OMP_OPS)
        if kind in ("read", "write"):
            ops.append((kind, rng.choice(("a", "b")),
                        rng.choice(("tid", "const")), rng.randint(0, 7)))
        elif kind in ("atomic_update", "atomic_write", "atomic_capture"):
            ops.append((kind, rng.randint(0, 3), rng.randint(1, 4)))
        elif kind in ("flush", "barrier", "critical"):
            ops.append((kind,))
        elif kind == "lock":
            # Properly nested pair around a few plain accesses, always
            # the same lock name: imbalance- and cycle-free.
            inner = [("read", "a", "tid", 0),
                     ("write", "a", "tid", rng.randint(1, 4))]
            ops.append(("lock", inner[:rng.randint(1, 2)]))
    return ops


def _make_omp_body(program):
    def run_op(tc, op, acc):
        kind = op[0]
        if kind == "read":
            idx = tc.tid if op[2] == "tid" else op[3]
            v = yield tc.read(op[1], idx)
            acc[0] = (acc[0] + int(v)) % 1009
        elif kind == "write":
            idx = tc.tid if op[2] == "tid" else op[3]
            # Constant-index plain writes from all threads are the
            # sanitizer's static-race class; keep them thread-private.
            idx = tc.tid if op[2] == "const" else idx
            yield tc.write(op[1], idx, acc[0] + op[3])
        elif kind == "atomic_update":
            _, slot, val = op
            yield tc.atomic_update("acc", slot, lambda v: v + val)
        elif kind == "atomic_write":
            _, slot, val = op
            yield tc.atomic_write("acc", slot, acc[0] % 7 + val)
        elif kind == "atomic_capture":
            _, slot, val = op
            old = yield tc.atomic_capture("acc", slot,
                                          lambda v: v + val)
            acc[0] = (acc[0] + int(old)) % 1009
        elif kind == "flush":
            yield tc.flush()
        elif kind == "barrier":
            yield tc.barrier()
        elif kind == "critical":
            yield tc.critical(
                lambda mem: mem["c"].__setitem__(0, mem["c"][0] + 1),
                touches=(("c", 0, True),))
        elif kind == "lock":
            yield tc.lock_acquire("l")
            for sub in op[1]:
                yield from run_op(tc, sub, acc)
            yield tc.lock_release("l")

    def body(tc):
        acc = [tc.tid + 1]
        for op in program:
            yield from run_op(tc, op, acc)
        yield tc.atomic_write("out", tc.tid, acc[0])

    return body


def _run_omp(machine, program, n_threads, fast):
    body = _make_omp_body(program)
    omp = OpenMP(machine, n_threads=n_threads, detect_races=False,
                 fast=fast)
    return omp.parallel(
        body,
        shared={"a": np.arange(16, dtype=np.int64),
                "b": (np.arange(16, dtype=np.int64) * 7) % 31,
                "acc": np.zeros(4, np.int64),
                "c": np.zeros(1, np.int64),
                "out": np.zeros(n_threads, np.int64)})


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_fast_path_matches_reference(quiet_cpu, seed):
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    n_threads = rng.choice((2, 4))
    fast = _run_omp(quiet_cpu, program, n_threads, fast=True)
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False)
    assert fast.elapsed_ns == ref.elapsed_ns, f"seed {seed}"
    assert fast.thread_times_ns == ref.thread_times_ns, f"seed {seed}"
    assert fast.barriers == ref.barriers, f"seed {seed}"
    assert fast.requests == ref.requests, f"seed {seed}"
    assert set(fast.memory) == set(ref.memory)
    for name in ref.memory:
        assert fast.memory[name].tobytes() == \
            ref.memory[name].tobytes(), f"seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_openmp_dispatcher_forced_matches_reference(quiet_cpu, seed):
    """Region replay (forced keying) must be byte-identical to the
    reference scheduler, cold and warm."""
    rng = random.Random(2000 + seed)
    program = _gen_omp_ops(rng)
    n_threads = rng.choice((2, 4))
    ref = _run_omp(quiet_cpu, program, n_threads, fast=False)
    with dispatch_forced():
        cold = _run_omp(quiet_cpu, program, n_threads, fast=True)
        hits = counter_value("dispatch.hit")
        warm = _run_omp(quiet_cpu, program, n_threads, fast=True)
    assert counter_value("dispatch.hit") > hits, \
        f"seed {seed}: identical region rerun did not replay"
    for label, result in (("cold", cold), ("warm", warm)):
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


# ------------------- OpenMP lifted tier (tier 1) --------------------- #


def _gen_steady_omp_ops(rng):
    """A random *steady* region: fixed control flow, concrete indices,
    values flowing only through lift-able arithmetic (no ``int()``
    coercions) — every generated program must lift, so a fallback is a
    failure, not a skip."""
    ops = []
    for _ in range(rng.randint(3, 9)):
        kind = rng.choice(("read", "write", "atomic_update",
                           "atomic_capture", "barrier"))
        if kind == "read":
            ops.append(("read", rng.choice(("a", "b")),
                        rng.randrange(16), rng.randrange(1, 5)))
        elif kind == "write":
            ops.append(("write", rng.randrange(7)))
        elif kind == "atomic_update":
            ops.append(("atomic_update", rng.randrange(4),
                        rng.randrange(1, 9)))
        elif kind == "atomic_capture":
            ops.append(("atomic_capture", rng.randrange(4),
                        rng.randrange(1, 9)))
        else:
            ops.append(("barrier",))
    ops.append(("write", 0))  # every thread publishes its accumulator
    return ops


def _make_steady_omp_body(ops):
    def body(tc):
        acc = tc.tid
        for op in ops:
            if op[0] == "read":
                value = yield tc.read(op[1], (tc.tid + op[2]) % 16)
                acc = acc + value * op[3]
            elif op[0] == "write":
                yield tc.write("out", tc.tid, acc + op[1])
            elif op[0] == "atomic_update":
                _, slot, val = op
                yield tc.atomic_update("acc", slot,
                                       lambda cur, v=val: cur + v)
            elif op[0] == "atomic_capture":
                _, slot, val = op
                old = yield tc.atomic_capture(
                    "acc", slot, lambda cur, v=val: cur + v)
                acc = acc + old
            else:
                yield tc.barrier()
    return body


def _steady_omp_shared(n_threads, salt):
    return {"a": (np.arange(16, dtype=np.int64) * 5 + salt) % 43,
            "b": (np.arange(16, dtype=np.int64) * 11 + salt) % 31,
            "acc": np.zeros(4, np.int64),
            "out": np.zeros(n_threads, np.int64)}


@pytest.mark.parametrize("seed", range(N_PROGRAMS // 2))
def test_openmp_lifted_tier_matches_reference(quiet_cpu, seed):
    """Byte-identity of tier-1 region plans, with the plan provably
    executing (fresh shared contents defeat tier-0 replay; the
    ``dispatch.lifted_regions`` tripwire defeats a silent fallback)."""
    rng = random.Random(7000 + seed)
    ops = _gen_steady_omp_ops(rng)
    body = _make_steady_omp_body(ops)
    n_threads = rng.choice((2, 4))
    DISPATCHER.clear()
    with dispatch_forced():
        omp = OpenMP(quiet_cpu, n_threads=n_threads, detect_races=False)
        omp.parallel(body, _steady_omp_shared(n_threads, 2))  # sighting
        omp.parallel(body, _steady_omp_shared(n_threads, 0))  # capture
        lifted = counter_value("dispatch.lifted_regions")
        hits = counter_value("dispatch.shape_hit")
        fast_shared = _steady_omp_shared(n_threads, 1)
        fast = omp.parallel(body, fast_shared)
    assert counter_value("dispatch.lifted_regions") > lifted, \
        f"seed {seed}: the region plan never executed"
    assert counter_value("dispatch.shape_hit") > hits, \
        f"seed {seed}: fresh contents did not shape-hit"
    ref_shared = _steady_omp_shared(n_threads, 1)
    ref = OpenMP(quiet_cpu, n_threads=n_threads, detect_races=False,
                 fast=False).parallel(body, ref_shared)
    assert fast.elapsed_ns == ref.elapsed_ns, f"seed {seed}"
    assert fast.thread_times_ns == ref.thread_times_ns, f"seed {seed}"
    assert fast.barriers == ref.barriers, f"seed {seed}"
    assert fast.requests == ref.requests, f"seed {seed}"
    for name in ref_shared:
        assert fast_shared[name].tobytes() == \
            ref_shared[name].tobytes(), f"seed {seed}: {name}"


# ------------------ invalidation: a flipped global ------------------- #

#: Fixed-seed corpus size per runtime for the invalidation case.
N_FLIP_PROGRAMS = 10

#: The module global every invalidation program reads; each test flips
#: it between launches with identical contents.
_FLIP_SCALE = 1


def _gen_flip_program(rng, kinds):
    """A steady descriptor tuple: immutable, so the program stays
    eligible in the default (strict) mode as well as under force."""
    return tuple((rng.choice(kinds), rng.randint(1, 3))
                 for _ in range(rng.randint(2, 6)))


def _make_flip_cuda_kernel(program):
    def kernel(t):
        acc = t.global_id % 7
        for kind, k in program:
            if kind == "alu":
                yield t.alu(k)
            elif kind == "read":
                value = yield t.global_read(
                    "g0", (t.global_id + k) % t.total_threads)
                acc = acc + value * k
            else:
                old = yield t.atomic_add("acc", k, acc % 5 + _FLIP_SCALE)
                acc = acc + old
        yield t.global_write("out", t.global_id, acc * _FLIP_SCALE)
    return kernel


def _make_flip_omp_body(program):
    def body(tc):
        acc = tc.tid
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
    return body


def _check_flip_sequence(monkeypatch, run, seed):
    """Launch ``run(salt)`` around a flip of :data:`_FLIP_SCALE`, in
    both dispatch modes.  Every launch must equal the undispatched
    runtime at the same scale, and every tier must engage (a vacuous
    pass would prove nothing).

    Before the flip: first sighting, capture, tier-0 replay.  After it,
    identical contents again (a stale tier-0 entry would answer), then
    the flipped shape's own sighting and capture.
    """
    module = sys.modules[__name__]
    tiers = ("dispatch.hit", "dispatch.compile", "dispatch.shape_hit")
    for mode in (dispatch_forced, nullcontext):
        DISPATCHER.clear()
        before = [counter_value(name) for name in tiers]
        for scale, salts in ((1, (1, 0, 0)), (5, (0, 0, 2, 3))):
            monkeypatch.setattr(module, "_FLIP_SCALE", scale)
            for salt in salts:
                with mode():
                    got = run(salt)
                with dispatch_disabled():
                    assert got == run(salt), \
                        f"seed {seed} {mode.__name__}: salt {salt} @ {scale}"
        moved = [counter_value(name) - b for name, b in zip(tiers, before)]
        assert moved == [2, 2, 1], \
            f"seed {seed} {mode.__name__}: tiers moved {moved}"


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_cuda_global_flip_matches_reference(mini_gpu, monkeypatch, seed):
    rng = random.Random(8000 + seed)
    kernel = _make_flip_cuda_kernel(
        _gen_flip_program(rng, ("alu", "read", "atomic")))
    block = rng.choice((32, 64))
    launch = LaunchConfig(2, block)

    def run(salt):
        n = 2 * block
        memory = {"g0": (np.arange(n, dtype=np.int64) * 7 + salt) % 61,
                  "acc": np.zeros(4, np.int64),
                  "out": np.zeros(n, np.int64)}
        result = Cuda(mini_gpu).launch(kernel, launch, memory)
        return (result.elapsed_cycles, result.block_cycles, result.stats,
                {name: arr.tobytes() for name, arr in memory.items()})

    _check_flip_sequence(monkeypatch, run, seed)


@pytest.mark.parametrize("seed", range(N_FLIP_PROGRAMS))
def test_openmp_global_flip_matches_reference(quiet_cpu, monkeypatch,
                                              seed):
    rng = random.Random(9000 + seed)
    body = _make_flip_omp_body(
        _gen_flip_program(rng, ("read", "atomic", "barrier")))
    n_threads = rng.choice((2, 4))

    def run(salt):
        shared = _steady_omp_shared(n_threads, salt)
        result = OpenMP(quiet_cpu, n_threads=n_threads,
                        detect_races=False).parallel(body, shared)
        return (result.elapsed_ns, result.thread_times_ns,
                result.barriers, result.requests,
                {name: arr.tobytes() for name, arr in shared.items()})

    _check_flip_sequence(monkeypatch, run, seed)

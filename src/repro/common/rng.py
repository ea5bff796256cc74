"""Deterministic random number generation.

All stochastic behaviour in the simulators (OS jitter, PCIe noise, SMT
timing variability) flows through generators created here so that every
experiment is reproducible given a seed.  Seeds are derived from a string
label, which keeps independent experiments decorrelated without any global
state.

Fast path
---------

Profiling showed :func:`make_rng` dominating sweeps (~44% of engine time):
``numpy.random.default_rng`` spends ~8 µs per call spinning up a
``SeedSequence`` and a fresh ``Generator``.  The measurement engine needs
more than a thousand per sweep, one per (point label, run) pair, and their
*values* must stay bit-identical to ``default_rng(mixed)`` or the golden
corpus at ``results/reference/`` would drift.

:class:`RngStreamPool` therefore replicates numpy's seeding pipeline
(SeedSequence entropy pooling → PCG64 stream initialisation) in vectorized
numpy over a whole batch of labels at once (~1 µs per stream at sweep
batch sizes), then serves each stream by *reseeding one pooled*
``Generator`` through the bit-generator ``state`` setter (~1.3 µs) instead
of constructing a new one.  A first-use self-check compares the replica
against ``numpy.random.PCG64`` for a handful of probe seeds; if numpy ever
changes its seeding internals the pool disables itself and every lookup
falls back to :func:`make_rng`, trading speed for unchanged results.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np

from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

# Observability counters (docs/observability.md): pooled-stream lookups
# that found primed tokens vs. fell back to make_rng-style seeding.
_C_POOL_HITS = _counter("rng.pool.hits")
_C_POOL_MISSES = _counter("rng.pool.misses")


def make_rng(label: str, seed: int = 0) -> np.random.Generator:
    """Create a deterministic generator for a labelled noise source.

    Args:
        label: Identifies the noise source (e.g. ``"jitter/omp_barrier/t=8"``).
            Different labels yield decorrelated streams.
        seed: Global experiment seed; vary it to get independent replications.

    Returns:
        A seeded :class:`numpy.random.Generator`.
    """
    mixed = zlib.crc32(label.encode("utf-8")) ^ (seed * 0x9E3779B9 & 0xFFFFFFFF)
    return np.random.default_rng(mixed)


def mix_label_seed(label: str, seed: int = 0) -> int:
    """The 32-bit entropy :func:`make_rng` feeds to ``default_rng``."""
    return zlib.crc32(label.encode("utf-8")) ^ (seed * 0x9E3779B9 & 0xFFFFFFFF)


def label_prefix_crc(prefix: str) -> int:
    """CRC32 of a label prefix, for incremental per-run label hashing.

    ``zlib.crc32`` is incremental: ``crc32(a + b) == crc32(b, crc32(a))``,
    so a sweep can hash its point-label prefix once and derive each
    ``.../run{i}`` suffix from the cached intermediate.
    """
    return zlib.crc32(prefix.encode("utf-8"))


def mix_suffix(prefix_crc: int, suffix: str, seed: int = 0) -> int:
    """Entropy for ``prefix + suffix`` given :func:`label_prefix_crc`."""
    return zlib.crc32(suffix.encode("utf-8"), prefix_crc) ^ \
        (seed * 0x9E3779B9 & 0xFFFFFFFF)


# --------------------------------------------------------------------- #
# Vectorized replica of numpy's SeedSequence -> PCG64 seeding pipeline.
# Constants from numpy/random/bit_generator.pyx (ISAAC-derived hash mix)
# and numpy/random/src/pcg64/pcg64.c (pcg64_srandom_r).
# --------------------------------------------------------------------- #

_M32 = np.uint64(0xFFFFFFFF)
_XSHIFT = np.uint64(16)
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = np.uint64(0xca01f9dd)
_MIX_MULT_R = np.uint64(0x4973f715)

_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _seed_limbs(entropies: "np.ndarray | list[int]"):
    """The SeedSequence -> PCG64 pipeline over a batch of entropies,
    returning ``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays
    (``None`` for an empty batch).  Vectorizing the SeedSequence hash
    over the batch is what makes pooled streams cheap: ~1 µs per stream
    at a few hundred labels versus ~8 µs for ``default_rng``.
    """
    ent = np.asarray(entropies, dtype=np.uint64) & _M32
    n = ent.shape[0]
    if n == 0:
        return None

    # SeedSequence.mix_entropy with entropy length 1 into a pool of 4.
    pool = np.zeros((n, 4), dtype=np.uint64)
    hash_const = _INIT_A

    def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
        value = (value ^ np.uint64(const)) & _M32
        value = (value * np.uint64(const * _MULT_A & 0xFFFFFFFF)) & _M32
        value = (value ^ (value >> _XSHIFT)) & _M32
        return value, const * _MULT_A & 0xFFFFFFFF

    # First pass: sources (entropy word, then zero-padding) into the pool.
    v, hash_const = _hashmix(ent.copy(), hash_const)
    pool[:, 0] = v
    for i in range(1, 4):
        v, hash_const = _hashmix(np.zeros(n, dtype=np.uint64), hash_const)
        pool[:, i] = v

    # Second pass: mix all pool slots pairwise.
    def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
        result = (result ^ (result >> _XSHIFT)) & _M32
        return result

    for i_src in range(4):
        for i_dst in range(4):
            if i_src == i_dst:
                continue
            v, hash_const = _hashmix(pool[:, i_src].copy(), hash_const)
            pool[:, i_dst] = _mix(pool[:, i_dst], v)

    # generate_state(4, uint64): 8 uint32 words from the output hash,
    # paired little-endian into 4 uint64 values.
    out32 = np.empty((n, 8), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        data = pool[:, i % 4].copy()
        data = (data ^ np.uint64(hash_const)) & _M32
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        data = (data * np.uint64(hash_const)) & _M32
        data = (data ^ (data >> _XSHIFT)) & _M32
        out32[:, i] = data
    val64 = out32[:, 0::2] | (out32[:, 1::2] << np.uint64(32))

    # pcg64_srandom_r, vectorized over the batch as 64-bit (hi, lo) limb
    # pairs (python-int 128-bit arithmetic per row was the hot spot).
    st_hi, st_lo, sq_hi, sq_lo = (val64[:, i] for i in range(4))
    one = np.uint64(1)
    s63 = np.uint64(63)
    inc_hi = ((sq_hi << one) | (sq_lo >> s63))
    inc_lo = (sq_lo << one) | one
    # state = ((inc + initstate) * PCG_MULT + inc) mod 2^128
    sum_lo = inc_lo + st_lo
    sum_hi = inc_hi + st_hi + (sum_lo < inc_lo)
    prod_hi, prod_lo = _mul128(sum_hi, sum_lo,
                               np.uint64(_PCG_MULT >> 64),
                               np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF))
    out_lo = prod_lo + inc_lo
    out_hi = prod_hi + inc_hi + (out_lo < prod_lo)
    return out_hi, out_lo, inc_hi, inc_lo


def seed_states_batch(entropies: "np.ndarray | list[int]"
                      ) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` pairs for a batch of 32-bit entropy values.

    Bit-identical to ``np.random.PCG64(np.random.SeedSequence(e))`` for
    each entropy ``e`` (verified at runtime by
    :meth:`RngStreamPool._self_check`).
    """
    limbs = _seed_limbs(entropies)
    if limbs is None:
        return []
    out_hi, out_lo, inc_hi, inc_lo = limbs
    # Bulk-convert to python ints (PCG64.state wants 128-bit ints).
    rows = np.stack([out_hi, out_lo, inc_hi, inc_lo], axis=1).tolist()
    return [((hi << 64) | lo, (ihi << 64) | ilo)
            for hi, lo, ihi, ilo in rows]


def _mul128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.uint64,
            b_lo: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Low 128 bits of (a_hi:a_lo) * (b_hi:b_lo), elementwise.

    The 64x64 -> 128 partial product is built from 32-bit halves (numpy
    uint64 multiplication only keeps the low 64 bits).
    """
    m32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    a0 = a_lo & m32
    a1 = a_lo >> s32
    b0 = b_lo & m32
    b1 = b_lo >> s32
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    lo = (p00 & m32) | (mid << s32)
    carry = (a1 * b1) + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    hi = carry + a_lo * b_hi + a_hi * b_lo
    return hi, lo


_ZERO8 = b"\x00" * 8

#: Pre-encoded run-index suffixes for point priming (escalation can
#: double ``n_runs`` a few times, so cover well past the default 9).
_RUN_BYTES = tuple(str(i).encode("ascii") for i in range(1024))


class RngStreamPool:
    """Serves primed, label-addressed generators from one pooled PCG64.

    Usage::

        pool = RngStreamPool()
        pool.prime_points([(prefix, seed, n_runs), ...])  # per series
        tokens = pool.take_point(prefix, seed)
        rng = pool.reseed(tokens[run])         # one stream per run

    ``take_point`` returns ``None`` for unprimed points (callers fall
    back to :func:`make_rng`) and consumes the primed states: each point
    is handed out exactly once, which matches the engine's use and keeps
    the pool from growing.  Tokens are opaque — their representation
    depends on which reseeding backend the process settled on:

    * ``ctypes`` backend: the pool locates the pooled bit generator's
      raw 32-byte PCG64 state block (pointer published by
      ``PCG64.ctypes.state_address``) and reseeding is a single
      ``memmove`` of a precomputed token (~0.4 µs) plus zeroing the
      buffered-uint32 words.  The memory layout is *discovered*, never
      assumed: a one-time probe writes sentinel states through the
      authoritative dict setter and reads the raw bytes back (see
      :meth:`_probe_ctypes_layout`), and each pool re-verifies its own
      generator's pointer before first use.
    * dict-setter fallback: tokens are ``(state, inc)`` python ints fed
      through the public ``bit_generator.state`` property (~1.3 µs).
      Used whenever the probe fails (e.g. a numpy built with emulated
      128-bit math whose limb order the probe does not recognise).
    """

    #: Process-wide replica verdict (None = not yet checked).
    _COMPATIBLE: "bool | None" = None
    #: Process-wide ctypes layout verdict: None = not yet probed,
    #: True = raw state writes verified, False = use the dict setter.
    _CTYPES_OK: "bool | None" = None
    #: Process-wide primed-token cache, (prefix, seed, n_runs, mode) ->
    #: token list.  Tokens are pure functions of the key, and campaigns
    #: revisit the same points (claims, verifies, repeated benches).
    _TOKEN_CACHE: dict = {}
    _TOKEN_CACHE_MAX = 16384

    def __init__(self) -> None:
        #: Point-level store: (label prefix, seed) -> one reseed token
        #: per run, so the per-run cost is a list index instead of
        #: hashing a fresh label string.
        self._points: dict[tuple[str, int], list] = {}
        # Seeded constructor: PCG64() with no seed reads OS entropy
        # (~12 µs); the initial state is irrelevant because every use
        # reseeds first.
        self._bit_gen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bit_gen)
        self._compatible: bool | None = RngStreamPool._COMPATIBLE
        #: Address of this bit generator's raw state block (None until
        #: bound, or permanently None on the dict fallback), plus
        #: writable byte views over it (memoryview slice assignment is
        #: several times cheaper than a ``ctypes.memmove`` call).
        self._state_addr: int | None = None
        self._state_mv: "memoryview | None" = None
        self._wrap_mv: "memoryview | None" = None
        # Reused state template: the setter copies the values out, so
        # mutating it between calls is safe and skips two dict allocs.
        self._inner: dict = {"state": 0, "inc": 0}
        self._template: dict = {"bit_generator": "PCG64",
                                "state": self._inner,
                                "has_uint32": 0, "uinteger": 0}

    @property
    def generator(self) -> np.random.Generator:
        """The pooled generator object (stable across reseeds, so bound
        methods and samplers bound to it survive :meth:`reseed`)."""
        return self._gen

    def _check(self) -> bool:
        """Resolve the process-wide verdicts (once) and bind this pool's
        raw state pointer (once per pool, when the backend allows)."""
        cls = RngStreamPool
        if cls._COMPATIBLE is None:
            cls._COMPATIBLE = self._self_check()
        self._compatible = cls._COMPATIBLE
        if self._compatible and self._state_addr is None:
            if cls._CTYPES_OK is None:
                cls._CTYPES_OK = self._probe_ctypes_layout()
            if cls._CTYPES_OK:
                self._bind_ctypes()
        return self._compatible

    # ------------------------------ priming ---------------------------- #

    def prime_points(self, point_keys: list[tuple[str, int, int]]) -> None:
        """Precompute per-run streams for a batch of sweep points.

        Args:
            point_keys: ``(run_label_prefix, seed, n_runs)`` triples; the
                engine's prefix is ``"{machine}/{spec}/{label}/run"`` and
                run ``r`` of the point uses label ``prefix + str(r)``.
                Each prefix's per-run entropies are derived through
                zlib's incremental CRC (hash the prefix once, extend per
                run) and the whole batch is seeded vectorized.
        """
        if self._compatible is None or self._state_addr is None:
            self._check()
        if not self._compatible:
            return
        crc32 = zlib.crc32
        points = self._points
        # Tokens are pure functions of (prefix, seed, n_runs) and the
        # backend mode, and the same points recur across pools within a
        # process (claims re-measure their sweep's points; benches and
        # verifies repeat whole sweeps), so the label→seed hashing and
        # stream seeding are shared process-wide.
        mode = self._state_addr is not None
        cache = RngStreamPool._TOKEN_CACHE
        fresh = []
        for key in point_keys:
            if (key[0], key[1]) in points:
                continue
            cached = cache.get((key[0], key[1], key[2], mode))
            if cached is not None:
                points[(key[0], key[1])] = cached
            else:
                fresh.append(key)
        if not fresh:
            return
        run_bytes = _RUN_BYTES
        entropies: list[int] = []
        for prefix, seed, n_runs in fresh:
            prefix_crc = crc32(prefix.encode("utf-8"))
            mix = seed * 0x9E3779B9 & 0xFFFFFFFF
            if n_runs <= len(run_bytes):
                entropies.extend(
                    crc32(rb, prefix_crc) ^ mix
                    for rb in run_bytes[:n_runs])
            else:
                entropies.extend(
                    crc32(str(run).encode("utf-8"), prefix_crc) ^ mix
                    for run in range(n_runs))
        if self._state_addr is not None:
            limbs = _seed_limbs(entropies)
            if limbs is None:
                return
            out_hi, out_lo, inc_hi, inc_lo = limbs
            # Raw-state tokens in the discovered (verified little-endian
            # lo/hi) limb order, precut to one 32-byte slice per run.
            buf = np.stack([out_lo, out_hi, inc_lo, inc_hi],
                           axis=1).tobytes()
            tokens = [buf[i:i + 32] for i in range(0, len(buf), 32)]
        else:
            tokens = seed_states_batch(entropies)
        offset = 0
        for prefix, seed, n_runs in fresh:
            toks = tokens[offset:offset + n_runs]
            points[(prefix, seed)] = toks
            cache[(prefix, seed, n_runs, mode)] = toks
            offset += n_runs
        if len(cache) > self._TOKEN_CACHE_MAX:
            # Crude but bounded: a wholesale clear keeps the cache a few
            # MB at worst; live sweeps hold their tokens via ``_points``.
            cache.clear()

    def take_point(self, prefix: str, seed: int) -> "list | None":
        """Pop a primed point's per-run tokens (``None`` if unprimed).

        Feed each token to :meth:`reseed` to obtain that run's stream.
        """
        tokens = self._points.pop((prefix, seed), None)
        # Inlined Counter.add: take_point sits on the engine's
        # per-point path, inside the bench regression gate.
        metric = _C_POOL_HITS if tokens is not None else _C_POOL_MISSES
        metric.value += 1
        subscriber = _metric_subscriber[0]
        if subscriber is not None:
            subscriber("count", metric.name, 1)
        return tokens

    def reseed(self, token) -> np.random.Generator:
        """The pooled generator, reseeded onto one primed stream state."""
        mv = self._state_mv
        if mv is not None and type(token) is bytes:
            mv[:] = token
            # Drop any buffered half-draw (has_uint32 + uinteger).
            self._wrap_mv[:] = _ZERO8
            return self._gen
        inner = self._inner
        inner["state"] = token[0]
        inner["inc"] = token[1]
        self._bit_gen.state = self._template
        return self._gen

    def raw_views(self) -> "tuple[memoryview, memoryview] | None":
        """(state view, buffered-uint32 view) for callers inlining
        :meth:`reseed` in a hot loop, or ``None`` on the dict fallback.
        Write a 32-byte token to the first and 8 zero bytes to the
        second; both alias the pooled bit generator's live state."""
        if self._state_mv is None:
            return None
        return self._state_mv, self._wrap_mv

    # ----------------------------- self-check -------------------------- #

    @staticmethod
    def _self_check() -> bool:
        """Verify the seeding replica against numpy for probe entropies.

        Returns False — disabling the pool for the whole process — if
        numpy's SeedSequence/PCG64 internals ever diverge from the
        replica, so results silently stay on the slow-but-authoritative
        ``default_rng`` path instead of drifting.
        """
        probes = [0, 1, 0xDEADBEEF, 0x9E3779B9, 0xFFFFFFFF]
        try:
            ours = seed_states_batch(probes)
            for entropy, (state, inc) in zip(probes, ours):
                ref = np.random.PCG64(entropy).state["state"]
                if ref["state"] != state or ref["inc"] != inc:
                    return False
        except Exception:
            return False
        return True

    @staticmethod
    def _raw_state_addr(bit_gen: np.random.PCG64) -> "int | None":
        """Address of ``bit_gen``'s 32-byte raw PCG64 state block, found
        by writing a sentinel through the dict setter and reading the
        bytes back through the published ``state_address`` pointer.
        Returns ``None`` unless the block is exactly where the pointer
        says, in little-endian (state_lo, state_hi, inc_lo, inc_hi)
        limb order."""
        st = (0x0123456789ABCDEF << 64) | 0x1122334455667788
        inc = (0xFEDCBA9876543210 << 64) | 0x99AABBCCDDEEFF01
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": st, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        wrap_addr = bit_gen.ctypes.state_address
        if not isinstance(wrap_addr, int):
            wrap_addr = wrap_addr.value  # older numpy: c_void_p
        if not wrap_addr:
            return None
        # First struct member is the pointer to the pcg64_random_t.
        ptr = ctypes.c_uint64.from_address(wrap_addr).value
        if not ptr:
            return None
        raw = ctypes.string_at(ptr, 32)
        limbs = [int.from_bytes(raw[i:i + 8], "little")
                 for i in range(0, 32, 8)]
        m64 = (1 << 64) - 1
        if limbs != [st & m64, st >> 64, inc & m64, inc >> 64]:
            return None
        return ptr

    @classmethod
    def _probe_ctypes_layout(cls) -> bool:
        """One-time probe of numpy's in-memory PCG64 state layout.

        Write sentinel states into a scratch bit generator through the
        raw pointer, then confirm both the public ``state`` property and
        the first draws agree with a dict-seeded twin.  Any surprise —
        pointer missing, limb order unrecognised, draws diverging —
        falls back to the dict setter for the whole process.
        """
        try:
            bg = np.random.PCG64(0)
            ptr = cls._raw_state_addr(bg)
            if ptr is None:
                return False
            wrap_addr = bg.ctypes.state_address
            if not isinstance(wrap_addr, int):
                wrap_addr = wrap_addr.value
            # Write a real stream state through the raw pointer and
            # check the round trip plus draw agreement.
            state, inc = seed_states_batch([0xC0FFEE])[0]
            token = (state & ((1 << 64) - 1)).to_bytes(8, "little") + \
                (state >> 64).to_bytes(8, "little") + \
                (inc & ((1 << 64) - 1)).to_bytes(8, "little") + \
                (inc >> 64).to_bytes(8, "little")
            ctypes.memmove(ptr, token, 32)
            ctypes.memmove(wrap_addr + 8, _ZERO8, 8)
            got = bg.state
            if got["state"]["state"] != state or \
                    got["state"]["inc"] != inc or got["has_uint32"] != 0:
                return False
            ours = np.random.Generator(bg)
            ref = np.random.Generator(np.random.PCG64(0xC0FFEE))
            return all(ours.random() == ref.random() for _ in range(8))
        except Exception:
            return False

    def _bind_ctypes(self) -> None:
        """Locate this pool's own raw state block (re-verified per pool:
        the probe only proves the layout, not this object's pointer)."""
        try:
            ptr = self._raw_state_addr(self._bit_gen)
            if ptr is None:
                return
            wrap_addr = self._bit_gen.ctypes.state_address
            if not isinstance(wrap_addr, int):
                wrap_addr = wrap_addr.value
            state_mv = memoryview(
                (ctypes.c_char * 32).from_address(ptr)).cast("B")
            wrap_mv = memoryview(
                (ctypes.c_char * 8).from_address(wrap_addr + 8)).cast("B")
            # Round-trip sanity on the views themselves before adoption.
            state_mv[:] = bytes(range(32))
            wrap_mv[:] = _ZERO8
            if bytes(state_mv) != bytes(range(32)):
                return
            self._state_addr = ptr
            self._state_mv = state_mv
            self._wrap_mv = wrap_mv
        except Exception:
            self._state_addr = None
            self._state_mv = None
            self._wrap_mv = None

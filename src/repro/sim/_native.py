"""Compiled slot-scan: the one fast path of every simulation entry point.

The dense per-slot scan (recharge reflection + table lookup + coin
comparison) is a few floating-point operations per slot, which a C loop
executes two orders of magnitude faster than Python.  This module embeds
that loop as C source, compiles it once per interpreter/cache lifetime
with the system ``gcc`` and loads it through :mod:`ctypes` — no build
step, no new dependency.

Bit-identity with the Python reference loop is guaranteed because every
operation is a plain IEEE-754 double add/subtract/compare in program
order and the source is compiled with ``-ffp-contract=off`` and without
any fast-math flags, so the compiler cannot fuse or reorder them.

Batch entry points: ``repro_batch_scan`` / ``repro_network_batch_scan``
run many independent configurations over padded ``(runs, slots)``
arrays in one call, dispatching each run to the same ``static`` per-run
scan the single-run symbols use — so batching cannot change a single
run's arithmetic.  When the compiler supports ``-fopenmp`` the batch
loops run ``parallel for`` over runs; since runs share no mutable
state, threading changes scheduling only, never results.

Execution paths: each model has exactly two — the Python reference
loop (:mod:`repro.sim.engine`, :mod:`repro.sim.network`) and this C
scan.  If no C compiler (``gcc``/``cc``) is found or compilation fails,
:func:`get_native_scan` returns ``None`` and the eligibility gates
report :data:`NATIVE_UNAVAILABLE`: ``backend="auto"`` then runs the
reference loop (same results, slower) and ``backend="vectorized"``
raises.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.devtools import telemetry
from repro.exceptions import SimulationError

_SOURCE = r"""
#include <stdint.h>

/* One sensor, `horizon` slots, reflected-battery arithmetic: the level
 * before each decision is (neg + cs[t]) - shave.  Must mirror
 * repro.sim.engine._simulate_reference operation-for-operation.  Shared
 * verbatim by the single-run and batch entry points below.
 *
 * Age-of-Information accumulators (compute_aoi != 0): a capture at
 * 1-based slot t closes a gap of g = t - last_capture slots whose
 * end-of-slot ages are 1 .. g-1, contributing g(g-1)/2 to the age area
 * and (g-1)g(2g-1)/6 to the squared-age area; the trailing censored
 * gap contributes ages 1 .. r.  Exact int64 arithmetic in the same
 * operation order as the Python reference (overflow bound: horizons or
 * gaps beyond ~3e6 slots overflow the squared sum). */
static void scan_one(
    int64_t horizon,
    const double *cs,        /* cumulative recharge, cs[t] = sum a_1..a_{t+1} */
    const uint8_t *events,   /* event flag per slot */
    const double *coins,     /* activation coin per slot */
    const double *table,     /* recency table, or per-slot probs (slot_mode) */
    int64_t table_size,
    double tail,
    int32_t slot_mode,       /* 1: table is indexed by slot, not recency */
    int32_t full_info,
    int32_t compute_aoi,     /* 0: skip the age accumulators entirely */
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,     /* activations, captures, blocked,
                                aoi_area, aoi_area_sq, aoi_max,
                                last_capture_slot */
    double *out_state)       /* neg, shave */
{
    double neg = initial;
    double shave = 0.0;
    const double cost_capture = delta1 + delta2;
    const double activation_cost = delta1 + delta2;
    int64_t activations = 0, captures = 0, blocked = 0;
    int64_t aoi_area = 0, aoi_sq = 0, aoi_max = 0, last_capture = 0;
    int64_t recency = 1;
    int64_t t;
    for (t = 0; t < horizon; t++) {
        double pre = neg + cs[t];
        double over = pre - capacity;
        double battery, prob;
        int wanted, event, captured;
        if (over > shave) shave = over;
        battery = pre - shave;
        if (slot_mode) {
            prob = table[t];
        } else {
            prob = (recency <= table_size) ? table[recency - 1] : tail;
        }
        wanted = coins[t] < prob;
        event = events[t];
        captured = 0;
        if (wanted) {
            if (battery < activation_cost) {
                blocked++;
            } else {
                activations++;
                if (event) {
                    captured = 1;
                    captures++;
                    neg = neg - cost_capture;
                    if (compute_aoi) {
                        int64_t gap = (t + 1) - last_capture;
                        aoi_area += gap * (gap - 1) / 2;
                        aoi_sq += ((gap - 1) * gap / 2) * (2 * gap - 1) / 3;
                        if (gap - 1 > aoi_max) aoi_max = gap - 1;
                        last_capture = t + 1;
                    }
                } else {
                    neg = neg - delta1;
                }
            }
        }
        if (full_info) {
            recency = event ? 1 : recency + 1;
        } else {
            recency = captured ? 1 : recency + 1;
        }
    }
    if (compute_aoi) {
        int64_t residual = horizon - last_capture;
        aoi_area += residual * (residual + 1) / 2;
        aoi_sq += (residual * (residual + 1) / 2) * (2 * residual + 1) / 3;
        if (residual > aoi_max) aoi_max = residual;
    }
    out_counts[0] = activations;
    out_counts[1] = captures;
    out_counts[2] = blocked;
    out_counts[3] = aoi_area;
    out_counts[4] = aoi_sq;
    out_counts[5] = aoi_max;
    out_counts[6] = last_capture;
    out_state[0] = neg;
    out_state[1] = shave;
}

void repro_scan(
    int64_t horizon,
    const double *cs,
    const uint8_t *events,
    const double *coins,
    const double *table,
    int64_t table_size,
    double tail,
    int32_t slot_mode,
    int32_t full_info,
    int32_t compute_aoi,
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,
    double *out_state)
{
    scan_one(horizon, cs, events, coins, table, table_size, tail,
             slot_mode, full_info, compute_aoi, capacity, delta1, delta2,
             initial, out_counts, out_state);
}

/* Batched single-sensor scan: `n_runs` independent configurations over
 * padded (n_runs, stride) row-major arrays; run r uses the first
 * lengths[r] slots of its row.  Per-run parameters arrive as parallel
 * vectors; recency/slot tables are concatenated into `tables` and
 * addressed via table_offsets.  Padding beyond lengths[r] is never
 * read.  `parallel` gates the OpenMP team (0 forces the serial loop so
 * serial==OpenMP exactness is directly testable); either way each run
 * executes scan_one verbatim, so results are independent of
 * scheduling. */
void repro_batch_scan(
    int64_t n_runs,
    int64_t stride,
    const int64_t *lengths,
    const double *cs,            /* (n_runs, stride) */
    const uint8_t *events,       /* (n_runs, stride) */
    const double *coins,         /* (n_runs, stride) */
    const double *tables,        /* concatenated table storage */
    const int64_t *table_offsets,
    const int64_t *table_sizes,
    const double *tails,
    const int32_t *slot_modes,
    const int32_t *full_infos,
    const double *capacities,
    const double *delta1s,
    const double *delta2s,
    const double *initials,
    int32_t parallel,
    int64_t *out_counts,         /* (n_runs, 7) */
    double *out_state)           /* (n_runs, 2) */
{
    int64_t r;
    (void)parallel;
#ifdef _OPENMP
    #pragma omp parallel for schedule(static) if(parallel)
#endif
    for (r = 0; r < n_runs; r++) {
        scan_one(lengths[r],
                 cs + r * stride,
                 events + r * stride,
                 coins + r * stride,
                 tables + table_offsets[r],
                 table_sizes[r],
                 tails[r],
                 slot_modes[r],
                 full_infos[r],
                 1,
                 capacities[r],
                 delta1s[r],
                 delta2s[r],
                 initials[r],
                 out_counts + r * 7,
                 out_state + r * 2);
    }
}

/* N sensors sharing one event stream and one coin stream under a
 * precomputed responsibility assignment (resp[t] = sensor index or -1).
 * Must mirror repro.sim.network._simulate_network_reference
 * operation-for-operation: every sensor's overflow shave is updated on
 * every slot *before* the responsible sensor's decision, and the shared
 * recency advances on events (full information) or network captures
 * (partial information).  Per-sensor reflected state lives directly in
 * the output buffers: out_state[s*2] = neg_s, out_state[s*2+1] =
 * shave_s; out_counts[s*4 + {0,1,2,3}] = activations, captures,
 * blocked, last_capture_slot.  out_aoi holds the system-level
 * Age-of-Information accumulators (the age resets on *any* sensor's
 * capture): area, area_sq, max_age, last_capture_slot.
 * `row_stride` is the allocated slot count per cs row (== horizon for
 * the single-run entry, the padded batch stride otherwise). */
static void scan_network_one(
    int64_t horizon,
    int64_t n_sensors,
    int64_t row_stride,
    const double *cs,        /* (n_sensors, row_stride) row-major */
    const uint8_t *events,
    const double *coins,
    const int64_t *resp,
    const double *table,
    int64_t table_size,
    double tail,
    int32_t slot_mode,
    int32_t full_info,
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,     /* (n_sensors, 4) */
    double *out_state,       /* (n_sensors, 2) */
    int64_t *out_aoi)        /* area, area_sq, max_age, last_capture */
{
    const double cost_capture = delta1 + delta2;
    const double activation_cost = delta1 + delta2;
    int64_t recency = 1;
    int64_t aoi_area = 0, aoi_sq = 0, aoi_max = 0, last_capture = 0;
    int64_t residual;
    int64_t t, s;
    for (s = 0; s < n_sensors; s++) {
        out_counts[s * 4] = 0;
        out_counts[s * 4 + 1] = 0;
        out_counts[s * 4 + 2] = 0;
        out_counts[s * 4 + 3] = 0;
        out_state[s * 2] = initial;
        out_state[s * 2 + 1] = 0.0;
    }
    for (t = 0; t < horizon; t++) {
        int64_t sensor = resp[t];
        double prob;
        int event, captured;
        for (s = 0; s < n_sensors; s++) {
            double over = (out_state[s * 2] + cs[s * row_stride + t])
                          - capacity;
            if (over > out_state[s * 2 + 1]) out_state[s * 2 + 1] = over;
        }
        if (slot_mode) {
            prob = table[t];
        } else {
            prob = (recency <= table_size) ? table[recency - 1] : tail;
        }
        event = events[t];
        captured = 0;
        if (sensor >= 0 && coins[t] < prob) {
            double battery =
                (out_state[sensor * 2] + cs[sensor * row_stride + t])
                - out_state[sensor * 2 + 1];
            if (battery < activation_cost) {
                out_counts[sensor * 4 + 2]++;
            } else {
                out_counts[sensor * 4]++;
                if (event) {
                    int64_t gap;
                    captured = 1;
                    out_counts[sensor * 4 + 1]++;
                    out_counts[sensor * 4 + 3] = t + 1;
                    out_state[sensor * 2] =
                        out_state[sensor * 2] - cost_capture;
                    gap = (t + 1) - last_capture;
                    aoi_area += gap * (gap - 1) / 2;
                    aoi_sq += ((gap - 1) * gap / 2) * (2 * gap - 1) / 3;
                    if (gap - 1 > aoi_max) aoi_max = gap - 1;
                    last_capture = t + 1;
                } else {
                    out_state[sensor * 2] = out_state[sensor * 2] - delta1;
                }
            }
        }
        if (full_info) {
            recency = event ? 1 : recency + 1;
        } else {
            recency = captured ? 1 : recency + 1;
        }
    }
    residual = horizon - last_capture;
    aoi_area += residual * (residual + 1) / 2;
    aoi_sq += (residual * (residual + 1) / 2) * (2 * residual + 1) / 3;
    if (residual > aoi_max) aoi_max = residual;
    out_aoi[0] = aoi_area;
    out_aoi[1] = aoi_sq;
    out_aoi[2] = aoi_max;
    out_aoi[3] = last_capture;
}

void repro_network_scan(
    int64_t horizon,
    int64_t n_sensors,
    const double *cs,
    const uint8_t *events,
    const double *coins,
    const int64_t *resp,
    const double *table,
    int64_t table_size,
    double tail,
    int32_t slot_mode,
    int32_t full_info,
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,
    double *out_state,
    int64_t *out_aoi)
{
    scan_network_one(horizon, n_sensors, horizon, cs, events, coins, resp,
                     table, table_size, tail, slot_mode, full_info,
                     capacity, delta1, delta2, initial,
                     out_counts, out_state, out_aoi);
}

/* Batched network scan.  Runs may have different sensor counts: run r
 * owns sensor rows [sensor_offsets[r], sensor_offsets[r] +
 * n_sensors[r]) of the (total_rows, stride) cs array and the matching
 * rows of out_counts/out_state; its event/coin/resp row is row r of
 * the (n_runs, stride) arrays. */
void repro_network_batch_scan(
    int64_t n_runs,
    int64_t stride,
    const int64_t *lengths,
    const int64_t *n_sensors,
    const int64_t *sensor_offsets,
    const double *cs,            /* (total_rows, stride) */
    const uint8_t *events,       /* (n_runs, stride) */
    const double *coins,         /* (n_runs, stride) */
    const int64_t *resp,         /* (n_runs, stride) */
    const double *tables,
    const int64_t *table_offsets,
    const int64_t *table_sizes,
    const double *tails,
    const int32_t *slot_modes,
    const int32_t *full_infos,
    const double *capacities,
    const double *delta1s,
    const double *delta2s,
    const double *initials,
    int32_t parallel,
    int64_t *out_counts,         /* (total_rows, 4) */
    double *out_state,           /* (total_rows, 2) */
    int64_t *out_aoi)            /* (n_runs, 4) */
{
    int64_t r;
    (void)parallel;
#ifdef _OPENMP
    #pragma omp parallel for schedule(static) if(parallel)
#endif
    for (r = 0; r < n_runs; r++) {
        scan_network_one(lengths[r],
                         n_sensors[r],
                         stride,
                         cs + sensor_offsets[r] * stride,
                         events + r * stride,
                         coins + r * stride,
                         resp + r * stride,
                         tables + table_offsets[r],
                         table_sizes[r],
                         tails[r],
                         slot_modes[r],
                         full_infos[r],
                         capacities[r],
                         delta1s[r],
                         delta2s[r],
                         initials[r],
                         out_counts + sensor_offsets[r] * 4,
                         out_state + sensor_offsets[r] * 2,
                         out_aoi + r * 4);
    }
}

int32_t repro_openmp_enabled(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}
"""

#: Flags chosen for IEEE-strict doubles: no contraction (no FMA fusing
#: of a+b-c chains), no fast-math, plain -O2.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Preferred variant: the batch loops thread over runs.  OpenMP cannot
#: affect results — each run is an independent scan_one call — so a
#: fallback compile without it differs only in batch wall-clock.
_OMP_FLAG = "-fopenmp"

#: The eligibility-gate reason recorded when the scan is not loaded.
NATIVE_UNAVAILABLE = (
    "native scan unavailable (no C compiler, or the compile failed)"
)

_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I32P = ctypes.POINTER(ctypes.c_int32)

# Module-level compile cache: None = not tried yet, False = unavailable.
_lib_cache: Optional[object] = None
_lib_tried = False


def _c(arr: np.ndarray, dtype: type) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=dtype)


class NativeScan:
    """ctypes wrapper around the compiled scan symbols."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._fn = lib.repro_scan
        self._fn.restype = None
        self._fn.argtypes = [
            ctypes.c_int64,
            _F64P,
            _U8P,
            _F64P,
            _F64P,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_int32,
            ctypes.c_int32,
            ctypes.c_int32,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            _I64P,
            _F64P,
        ]
        self._net_fn = lib.repro_network_scan
        self._net_fn.restype = None
        self._net_fn.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            _F64P,
            _U8P,
            _F64P,
            _I64P,
            _F64P,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_int32,
            ctypes.c_int32,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            _I64P,
            _F64P,
            _I64P,
        ]
        self._batch_fn = lib.repro_batch_scan
        self._batch_fn.restype = None
        self._batch_fn.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            _I64P,
            _F64P,
            _U8P,
            _F64P,
            _F64P,
            _I64P,
            _I64P,
            _F64P,
            _I32P,
            _I32P,
            _F64P,
            _F64P,
            _F64P,
            _F64P,
            ctypes.c_int32,
            _I64P,
            _F64P,
        ]
        self._net_batch_fn = lib.repro_network_batch_scan
        self._net_batch_fn.restype = None
        self._net_batch_fn.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            _I64P,
            _I64P,
            _I64P,
            _F64P,
            _U8P,
            _F64P,
            _I64P,
            _F64P,
            _I64P,
            _I64P,
            _F64P,
            _I32P,
            _I32P,
            _F64P,
            _F64P,
            _F64P,
            _F64P,
            ctypes.c_int32,
            _I64P,
            _F64P,
            _I64P,
        ]
        omp_fn = lib.repro_openmp_enabled
        omp_fn.restype = ctypes.c_int32
        omp_fn.argtypes = []
        #: True when the library was compiled with OpenMP, i.e. batch
        #: calls with ``parallel=True`` actually thread over runs.
        self.openmp: bool = bool(omp_fn())
        self._pid = os.getpid()

    def _team_flag(self, parallel: bool) -> ctypes.c_int32:
        """The C ``parallel`` argument: never start a team after a fork.

        GNU OpenMP's thread pool does not survive ``fork``, so an OpenMP
        region entered in a ``parallel_map`` worker whose parent already
        ran one deadlocks.  Forked children therefore run the serial
        loop; threading changes scheduling only, never results.
        """
        return ctypes.c_int32(
            1 if parallel and os.getpid() == self._pid else 0
        )

    def scan(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        table: np.ndarray,
        tail: float,
        slot_mode: bool,
        full_info: bool,
        capacity: float,
        delta1: float,
        delta2: float,
        initial: float,
        compute_aoi: bool = True,
    ) -> Tuple[int, int, int, float, float, Tuple[int, int, int, int]]:
        """Run the scan.

        Returns ``(activations, captures, blocked, neg, shave, aoi)``
        where ``aoi = (area, area_sq, max_age, last_capture_slot)`` —
        all zeros when ``compute_aoi`` is False.
        """
        horizon = cs.shape[0]
        cs_c = _c(cs, np.float64)
        ev_c = _c(events, np.uint8)
        coin_c = _c(coins, np.float64)
        table_c = _c(table, np.float64)
        table_size = table_c.shape[0]
        if table_size == 0:  # keep the pointer valid; never dereferenced
            table_c = np.zeros(1, dtype=np.float64)
        counts = np.zeros(7, dtype=np.int64)
        state = np.zeros(2, dtype=np.float64)
        self._fn(
            ctypes.c_int64(horizon),
            cs_c.ctypes.data_as(_F64P),
            ev_c.ctypes.data_as(_U8P),
            coin_c.ctypes.data_as(_F64P),
            table_c.ctypes.data_as(_F64P),
            ctypes.c_int64(table_size),
            ctypes.c_double(tail),
            ctypes.c_int32(1 if slot_mode else 0),
            ctypes.c_int32(1 if full_info else 0),
            ctypes.c_int32(1 if compute_aoi else 0),
            ctypes.c_double(capacity),
            ctypes.c_double(delta1),
            ctypes.c_double(delta2),
            ctypes.c_double(initial),
            counts.ctypes.data_as(_I64P),
            state.ctypes.data_as(_F64P),
        )
        return (
            int(counts[0]),
            int(counts[1]),
            int(counts[2]),
            float(state[0]),
            float(state[1]),
            (int(counts[3]), int(counts[4]), int(counts[5]), int(counts[6])),
        )

    def scan_batch(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        lengths: np.ndarray,
        tables: np.ndarray,
        table_offsets: np.ndarray,
        table_sizes: np.ndarray,
        tails: np.ndarray,
        slot_modes: np.ndarray,
        full_infos: np.ndarray,
        capacities: np.ndarray,
        delta1s: np.ndarray,
        delta2s: np.ndarray,
        initials: np.ndarray,
        parallel: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``n_runs`` independent scans over padded batch arrays.

        ``cs``/``events``/``coins`` are ``(n_runs, stride)``; run ``r``
        occupies the first ``lengths[r]`` columns of its row.  Returns
        ``(counts, state)``: ``counts[r] = (activations, captures,
        blocked, aoi_area, aoi_area_sq, aoi_max, last_capture_slot)``,
        ``state[r] = (neg, shave)``.  ``parallel=False`` forces the
        serial loop even in an OpenMP build (for exactness tests and
        single-run-comparable timings).
        """
        n_runs, stride = cs.shape
        cs_c = _c(cs, np.float64)
        ev_c = _c(events, np.uint8)
        coin_c = _c(coins, np.float64)
        tables_c = _c(tables, np.float64)
        if tables_c.size == 0:  # keep the pointer valid; never dereferenced
            tables_c = np.zeros(1, dtype=np.float64)
        counts = np.zeros((n_runs, 7), dtype=np.int64)
        state = np.zeros((n_runs, 2), dtype=np.float64)
        self._batch_fn(
            ctypes.c_int64(n_runs),
            ctypes.c_int64(stride),
            _c(lengths, np.int64).ctypes.data_as(_I64P),
            cs_c.ctypes.data_as(_F64P),
            ev_c.ctypes.data_as(_U8P),
            coin_c.ctypes.data_as(_F64P),
            tables_c.ctypes.data_as(_F64P),
            _c(table_offsets, np.int64).ctypes.data_as(_I64P),
            _c(table_sizes, np.int64).ctypes.data_as(_I64P),
            _c(tails, np.float64).ctypes.data_as(_F64P),
            _c(slot_modes, np.int32).ctypes.data_as(_I32P),
            _c(full_infos, np.int32).ctypes.data_as(_I32P),
            _c(capacities, np.float64).ctypes.data_as(_F64P),
            _c(delta1s, np.float64).ctypes.data_as(_F64P),
            _c(delta2s, np.float64).ctypes.data_as(_F64P),
            _c(initials, np.float64).ctypes.data_as(_F64P),
            self._team_flag(parallel),
            counts.ctypes.data_as(_I64P),
            state.ctypes.data_as(_F64P),
        )
        return counts, state

    def scan_network(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        resp: np.ndarray,
        table: np.ndarray,
        tail: float,
        slot_mode: bool,
        full_info: bool,
        capacity: float,
        delta1: float,
        delta2: float,
        initial: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the N-sensor scan.

        ``cs`` is the ``(n_sensors, horizon)`` per-sensor cumulative
        recharge; ``resp`` the responsible sensor per slot (-1 = none).
        Returns ``(counts, state, aoi)``: ``counts[s] = (activations,
        captures, blocked, last_capture_slot)``, ``state[s] = (neg,
        shave)`` and ``aoi = (area, area_sq, max_age,
        last_capture_slot)`` for the system-level age process.
        """
        n_sensors, horizon = cs.shape
        cs_c = _c(cs, np.float64)
        ev_c = _c(events, np.uint8)
        coin_c = _c(coins, np.float64)
        resp_c = _c(resp, np.int64)
        table_c = _c(table, np.float64)
        table_size = table_c.shape[0]
        if table_size == 0:  # keep the pointer valid; never dereferenced
            table_c = np.zeros(1, dtype=np.float64)
        counts = np.zeros((n_sensors, 4), dtype=np.int64)
        state = np.zeros((n_sensors, 2), dtype=np.float64)
        aoi = np.zeros(4, dtype=np.int64)
        self._net_fn(
            ctypes.c_int64(horizon),
            ctypes.c_int64(n_sensors),
            cs_c.ctypes.data_as(_F64P),
            ev_c.ctypes.data_as(_U8P),
            coin_c.ctypes.data_as(_F64P),
            resp_c.ctypes.data_as(_I64P),
            table_c.ctypes.data_as(_F64P),
            ctypes.c_int64(table_size),
            ctypes.c_double(tail),
            ctypes.c_int32(1 if slot_mode else 0),
            ctypes.c_int32(1 if full_info else 0),
            ctypes.c_double(capacity),
            ctypes.c_double(delta1),
            ctypes.c_double(delta2),
            ctypes.c_double(initial),
            counts.ctypes.data_as(_I64P),
            state.ctypes.data_as(_F64P),
            aoi.ctypes.data_as(_I64P),
        )
        return counts, state, aoi

    def scan_network_batch(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        resp: np.ndarray,
        lengths: np.ndarray,
        n_sensors: np.ndarray,
        sensor_offsets: np.ndarray,
        tables: np.ndarray,
        table_offsets: np.ndarray,
        table_sizes: np.ndarray,
        tails: np.ndarray,
        slot_modes: np.ndarray,
        full_infos: np.ndarray,
        capacities: np.ndarray,
        delta1s: np.ndarray,
        delta2s: np.ndarray,
        initials: np.ndarray,
        parallel: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run ``n_runs`` independent network scans in one call.

        ``cs`` is ``(total_sensor_rows, stride)``; run ``r`` owns rows
        ``sensor_offsets[r] : sensor_offsets[r] + n_sensors[r]`` and
        row ``r`` of the ``(n_runs, stride)`` ``events``/``coins``/
        ``resp`` arrays.  Returns ``(counts, state, aoi)``: per-sensor
        rows ``counts`` shaped ``(total_sensor_rows, 4)`` (activations,
        captures, blocked, last_capture_slot) and ``state`` shaped
        ``(total_sensor_rows, 2)``, plus the per-run system-level
        ``aoi`` shaped ``(n_runs, 4)``.
        """
        n_runs, stride = events.shape
        total_rows = cs.shape[0]
        cs_c = _c(cs, np.float64)
        ev_c = _c(events, np.uint8)
        coin_c = _c(coins, np.float64)
        resp_c = _c(resp, np.int64)
        tables_c = _c(tables, np.float64)
        if tables_c.size == 0:  # keep the pointer valid; never dereferenced
            tables_c = np.zeros(1, dtype=np.float64)
        counts = np.zeros((total_rows, 4), dtype=np.int64)
        state = np.zeros((total_rows, 2), dtype=np.float64)
        aoi = np.zeros((n_runs, 4), dtype=np.int64)
        self._net_batch_fn(
            ctypes.c_int64(n_runs),
            ctypes.c_int64(stride),
            _c(lengths, np.int64).ctypes.data_as(_I64P),
            _c(n_sensors, np.int64).ctypes.data_as(_I64P),
            _c(sensor_offsets, np.int64).ctypes.data_as(_I64P),
            cs_c.ctypes.data_as(_F64P),
            ev_c.ctypes.data_as(_U8P),
            coin_c.ctypes.data_as(_F64P),
            resp_c.ctypes.data_as(_I64P),
            tables_c.ctypes.data_as(_F64P),
            _c(table_offsets, np.int64).ctypes.data_as(_I64P),
            _c(table_sizes, np.int64).ctypes.data_as(_I64P),
            _c(tails, np.float64).ctypes.data_as(_F64P),
            _c(slot_modes, np.int32).ctypes.data_as(_I32P),
            _c(full_infos, np.int32).ctypes.data_as(_I32P),
            _c(capacities, np.float64).ctypes.data_as(_F64P),
            _c(delta1s, np.float64).ctypes.data_as(_F64P),
            _c(delta2s, np.float64).ctypes.data_as(_F64P),
            _c(initials, np.float64).ctypes.data_as(_F64P),
            self._team_flag(parallel),
            counts.ctypes.data_as(_I64P),
            state.ctypes.data_as(_F64P),
            aoi.ctypes.data_as(_I64P),
        )
        return counts, state, aoi


def _compile() -> Optional[ctypes.CDLL]:
    """Compile the scan into a cached shared object; None on any failure.

    Tries ``-fopenmp`` first (threads the batch entries over runs) and
    falls back to a serial build when the toolchain lacks it.
    """
    gcc = shutil.which("gcc") or shutil.which("cc")
    if gcc is None:
        return None
    for flags in ((*_CFLAGS, _OMP_FLAG), _CFLAGS):
        digest = hashlib.sha256(
            _SOURCE.encode() + " ".join(flags).encode()
        ).hexdigest()[:16]
        uid = os.getuid() if hasattr(os, "getuid") else 0
        cache = pathlib.Path(tempfile.gettempdir()) / f"repro-native-{uid}"
        so_path = cache / f"repro_scan-{digest}.so"
        try:
            if not so_path.exists():
                cache.mkdir(parents=True, exist_ok=True)
                src_path = cache / f"repro_scan-{digest}.c"
                src_path.write_text(_SOURCE)
                with tempfile.NamedTemporaryFile(
                    dir=str(cache), suffix=".so", delete=False
                ) as tmp:
                    tmp_name = tmp.name
                subprocess.run(
                    [gcc, *flags, "-o", tmp_name, str(src_path)],
                    check=True,
                    capture_output=True,
                )
                os.replace(tmp_name, so_path)  # atomic vs concurrent compiles
            return ctypes.CDLL(str(so_path))
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def get_native_scan() -> Optional[NativeScan]:
    """The compiled scan, or None when no compiler could build it.

    Compiles on first use and caches the outcome for the process.
    """
    global _lib_cache, _lib_tried
    if not _lib_tried:
        _lib_tried = True
        lib = _compile()
        _lib_cache = NativeScan(lib) if lib is not None else None
        telemetry.event(
            "native_compile",
            available=_lib_cache is not None,
            openmp=getattr(_lib_cache, "openmp", False),
        )
    telemetry.count(
        "native.available" if _lib_cache is not None else "native.unavailable"
    )
    return _lib_cache  # type: ignore[return-value]


def require_native_scan() -> NativeScan:
    """The compiled scan, for a run the eligibility gates admitted."""
    native = get_native_scan()
    if native is None:  # the gates admit no run without it
        raise SimulationError(NATIVE_UNAVAILABLE)
    return native

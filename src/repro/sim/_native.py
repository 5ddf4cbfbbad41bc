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

The same library carries the partial-information hazard DP of
:mod:`repro.analysis.partial_info` (``repro_pi_advance``, bound through
:meth:`NativeScan.pi_advancer`), so there is one source, one compile and
one cached object.  Its sums follow numpy's pairwise order, so it is
``==`` to the numpy reference DP, which runs when the library is absent.
It also carries numpy ``SeedSequence``'s entropy hash
(``repro_seed_children``, through :meth:`NativeScan.seed_children`),
which :mod:`repro.sim.rng` uses to derive every run's sub-streams;
without the library they derive through numpy, to the same words.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import pathlib
import shutil
import subprocess
import tempfile
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.devtools import telemetry
from repro.exceptions import SimulationError

_SOURCE = r"""
#include <stdint.h>

/* One sensor, `horizon` slots, reflected-battery arithmetic: the level
 * before each decision is (neg + cs[t]) - shave.  Must mirror
 * repro.sim.engine._simulate_reference operation-for-operation.  Shared
 * verbatim by the single-run and batch entry points below; a single
 * run may resume a trajectory, a batch run always starts fresh.
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
    double initial,          /* neg at the first slot */
    double initial_shave,    /* shave at the first slot (0 for a fresh run) */
    int64_t initial_recency, /* recency at the first slot (1 for a fresh run) */
    int64_t *out_counts,     /* activations, captures, blocked,
                                aoi_area, aoi_area_sq, aoi_max,
                                last_capture_slot */
    double *out_state,       /* neg, shave */
    uint8_t *out_captured)   /* capture flag per slot, or NULL */
{
    double neg = initial;
    double shave = initial_shave;
    const double cost_capture = delta1 + delta2;
    const double activation_cost = delta1 + delta2;
    int64_t activations = 0, captures = 0, blocked = 0;
    int64_t aoi_area = 0, aoi_sq = 0, aoi_max = 0, last_capture = 0;
    int64_t recency = initial_recency;
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
        if (out_captured) out_captured[t] = (uint8_t)captured;
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
    double initial_shave,
    int64_t initial_recency,
    int64_t *out_counts,
    double *out_state,
    uint8_t *out_captured)
{
    scan_one(horizon, cs, events, coins, table, table_size, tail,
             slot_mode, full_info, compute_aoi, capacity, delta1, delta2,
             initial, initial_shave, initial_recency,
             out_counts, out_state, out_captured);
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
                 0.0,
                 1,
                 out_counts + r * 7,
                 out_state + r * 2,
                 0);
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

/* ------------------------------------------------------------------
 * Partial-information hazard DP (repro.analysis.partial_info).
 *
 * Must mirror the numpy reference (_HazardStepper.step_block plus the
 * accumulators of PartialInfoSolver._stream) operation for operation.
 * numpy reduces a contiguous float64 array as 0.0 + pairwise(a, n);
 * pairwise2 reproduces that order for the sums of a[i] and a[i]*b[i]
 * (plain loop below 8 elements, eight accumulators up to 128, halves
 * split at a multiple of 8 above), so both sums equal np.sum bit for
 * bit.
 * ------------------------------------------------------------------ */
#define PW_BLOCK 128

static void pairwise2(const double *a, const double *b, int64_t n,
                      double *sum_a, double *sum_ab)
{
    int64_t i;
    if (n < 8) {
        double ra = 0.0, rab = 0.0;
        for (i = 0; i < n; i++) {
            ra += a[i];
            rab += a[i] * b[i];
        }
        *sum_a = ra;
        *sum_ab = rab;
    } else if (n <= PW_BLOCK) {
        double r[8], p[8], ra, rab;
        int j;
        for (j = 0; j < 8; j++) {
            r[j] = a[j];
            p[j] = a[j] * b[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (j = 0; j < 8; j++) {
                r[j] += a[i + j];
                p[j] += a[i + j] * b[i + j];
            }
        }
        ra = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        rab = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
        for (; i < n; i++) {
            ra += a[i];
            rab += a[i] * b[i];
        }
        *sum_a = ra;
        *sum_ab = rab;
    } else {
        int64_t n2 = n / 2;
        double la, lab, ha, hab;
        n2 -= n2 % 8;
        pairwise2(a, b, n2, &la, &lab);
        pairwise2(a + n2, b + n2, n - n2, &ha, &hab);
        *sum_a = la + ha;
        *sum_ab = lab + hab;
    }
}

/* np.maximum's scalar rule (propagates a NaN first argument). */
static double np_maximum(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

/* Advance the DP from slot t (0-based, state_i[0]) until t == stop, the
 * tail closes or the age mass is exhausted.
 *
 * State: the age window w[lo:width] of a buffer of `support` doubles,
 * zero below lo (state_i = t, lo, width), and the sequential sums
 * state_f = cycle_total, energy_total.  Slot t uses activation act[t]
 * below n_act and tail_c beyond.  Survival and beta_hat of slot t go to
 * s_out[t] / bh_out[t]; the caller sizes both for `stop` slots.
 *
 * Returns 0 when t reached stop, 1 when the tail closed (the estimated
 * remaining cycle length goes to state_f[2]), 2 when the mass ran out
 * (that slot is reported as survival 0, beta_hat 1).  Slots are
 * consumed through the closing or exhausted one; in those two cases the
 * window is not advanced past it. */
int32_t repro_pi_advance(
    const double *beta,      /* hazard per age, `support` doubles */
    const double *decay,     /* 1 - beta */
    int64_t support,
    const double *act,
    int64_t n_act,
    double tail_c,
    double delta1,
    double delta2,
    int64_t min_slots,       /* first 1-based slot the closure test runs */
    double tail_rel_eps,
    int64_t stop,
    double *w,
    int64_t *state_i,
    double *state_f,
    double *s_out,
    double *bh_out)
{
    int64_t t = state_i[0], lo = state_i[1], width = state_i[2];
    double cycle = state_f[0], energy = state_f[1];
    int32_t status = 0;
    while (t < stop) {
        const double c = (t < n_act) ? act[t] : tail_c;
        double mass, event_mass, bh, birth;
        int64_t new_width, i;
        pairwise2(w + lo, beta + lo, width - lo, &mass, &event_mass);
        mass = 0.0 + mass;
        event_mass = 0.0 + event_mass;
        if (mass <= 0.0) {
            s_out[t] = 0.0;
            bh_out[t] = 1.0;
            cycle = cycle + 0.0;
            energy = energy + (0.0 * c) * (delta1 + 1.0 * delta2);
            t++;
            status = 2;
            break;
        }
        bh = event_mass / mass;
        if (bh > 1.0) bh = 1.0;
        s_out[t] = mass;
        bh_out[t] = bh;
        cycle = cycle + mass;
        energy = energy + (mass * c) * (delta1 + bh * delta2);
        t++;
        if (t >= min_slots) {  /* t is now this slot's 1-based number */
            const double r = c * bh;
            if (r > 0.0) {
                const double tt = (double)t;
                const double geom = (mass * (1.0 - r)) / r;
                const double gamma = tt * r;
                const double power =
                    (mass * tt) / np_maximum(gamma - 1.0, 1e-3);
                const double remaining = np_maximum(geom, power);
                if (remaining <= tail_rel_eps * (cycle + remaining)) {
                    state_f[2] = remaining;
                    status = 1;
                    break;
                }
            }
        }
        /* Decay, shift up one age and drop the last age of a full
         * window, then place the missed-event birth at age 1. */
        new_width = width < support ? width + 1 : support;
        for (i = new_width - 2; i >= lo; i--) w[i + 1] = w[i] * decay[i];
        w[lo] = 0.0;
        birth = event_mass * (1.0 - c);
        if (birth > 0.0) {
            w[0] = birth;
            lo = 0;
        } else {
            lo++;
        }
        width = new_width;
    }
    state_i[0] = t;
    state_i[1] = lo;
    state_i[2] = width;
    state_f[0] = cycle;
    state_f[1] = energy;
    return status;
}

/* ------------------------------------------------------------------
 * Sub-stream seeding (repro.sim.rng): numpy SeedSequence's entropy
 * hash (numpy/random/bit_generator.pyx) for pool_size 4.
 *
 * Parent p's assembled entropy words (entropy zero-padded to the pool
 * size, then the spawn key; at least 4 words) are
 * words[offsets[p] : offsets[p + 1]].  Child c of that parent appends
 * the one spawn-key word c, so the pool mixing of the parent's words is
 * done once and only the last word is mixed per child.  out[(p * count
 * + c) * 4 + k] is word k of SeedSequence(...).spawn(count)[c]
 * .generate_state(4, np.uint64): the little-endian pairs of its eight
 * uint32 state words.
 * ------------------------------------------------------------------ */
#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define SS_XSHIFT 16

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> SS_XSHIFT);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = SS_MIX_L * x - SS_MIX_R * y;
    return result ^ (result >> SS_XSHIFT);
}

void repro_seed_children(
    int64_t n_parents,
    const int64_t *offsets,  /* n_parents + 1 word offsets */
    const uint32_t *words,
    int64_t count,
    uint64_t *out)           /* (n_parents * count, 4) */
{
    int64_t p, c, i, j;
    for (p = 0; p < n_parents; p++) {
        const uint32_t *w = words + offsets[p];
        const int64_t n_words = offsets[p + 1] - offsets[p];
        uint32_t pool[SS_POOL], hash_const = SS_INIT_A;
        for (i = 0; i < SS_POOL; i++) pool[i] = ss_hashmix(w[i], &hash_const);
        for (i = 0; i < SS_POOL; i++) {
            for (j = 0; j < SS_POOL; j++) {
                if (i != j) {
                    pool[j] = ss_mix(pool[j], ss_hashmix(pool[i], &hash_const));
                }
            }
        }
        for (i = SS_POOL; i < n_words; i++) {
            for (j = 0; j < SS_POOL; j++) {
                pool[j] = ss_mix(pool[j], ss_hashmix(w[i], &hash_const));
            }
        }
        for (c = 0; c < count; c++) {
            uint32_t child[SS_POOL], state[2 * SS_POOL];
            uint32_t child_const = hash_const, out_const = SS_INIT_B;
            uint64_t *dst = out + (p * count + c) * SS_POOL;
            for (j = 0; j < SS_POOL; j++) {
                child[j] = ss_mix(pool[j],
                                  ss_hashmix((uint32_t)c, &child_const));
            }
            for (i = 0; i < 2 * SS_POOL; i++) {
                uint32_t value = child[i % SS_POOL] ^ out_const;
                out_const *= SS_MULT_B;
                value *= out_const;
                state[i] = value ^ (value >> SS_XSHIFT);
            }
            for (i = 0; i < SS_POOL; i++) {
                dst[i] = (uint64_t)state[2 * i]
                         | ((uint64_t)state[2 * i + 1] << 32);
            }
        }
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


def _flags(arr: np.ndarray) -> np.ndarray:
    """Event flags as contiguous uint8; a contiguous bool array is viewed."""
    if arr.dtype == np.bool_ and arr.flags.c_contiguous:
        return arr.view(np.uint8)
    return _c(arr, np.uint8)


class NativeScan:
    """ctypes wrapper around the compiled scan symbols."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # The single-run entries and the seed hash run once per
        # simulate_single / simulate_network call, and the DP entry at
        # least once per analysis (thousands per clustering search), so
        # they take void pointers: numpy buffers pass as `.ctypes.data`
        # addresses, small outputs as ctypes arrays and scalars as plain
        # Python numbers, with no per-argument pointer casts.
        _P = ctypes.c_void_p
        _I64, _I32, _F64 = ctypes.c_int64, ctypes.c_int32, ctypes.c_double
        self._fn = lib.repro_scan
        self._fn.restype = None
        self._fn.argtypes = [
            _I64, _P, _P, _P, _P, _I64, _F64, _I32, _I32, _I32,
            _F64, _F64, _F64, _F64, _F64, _I64, _P, _P, _P,
        ]
        self._net_fn = lib.repro_network_scan
        self._net_fn.restype = None
        self._net_fn.argtypes = [
            _I64, _I64, _P, _P, _P, _P, _P, _I64, _F64, _I32, _I32,
            _F64, _F64, _F64, _F64, _P, _P, _P,
        ]
        self._seed_fn = lib.repro_seed_children
        self._seed_fn.restype = None
        self._seed_fn.argtypes = [_I64, _P, _P, _I64, _P]
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
        self._pi_fn = lib.repro_pi_advance
        self._pi_fn.restype = ctypes.c_int32
        self._pi_fn.argtypes = [
            _P, _P, _I64, _P, _I64, _F64, _F64, _F64, _I64, _F64, _I64,
            _P, _P, _P, _P, _P,
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
        initial_shave: float = 0.0,
        initial_recency: int = 1,
        out_captured: Optional[np.ndarray] = None,
    ) -> Tuple[int, int, int, float, float, Tuple[int, int, int, int]]:
        """Run the scan.

        Returns ``(activations, captures, blocked, neg, shave, aoi)``
        where ``aoi = (area, area_sq, max_age, last_capture_slot)`` —
        all zeros when ``compute_aoi`` is False.  ``initial*`` resume a
        trajectory (``cs`` continuing its cumulative recharge);
        ``out_captured`` receives the per-slot capture flags.
        """
        horizon = cs.shape[0]
        cs_c = _c(cs, np.float64)
        ev_c = _flags(events)
        coin_c = _c(coins, np.float64)
        table_c = _c(table, np.float64)
        table_size = table_c.shape[0]
        if min(ev_c.size, coin_c.size) < horizon or (
            slot_mode and table_size < horizon
        ):
            raise SimulationError("scan: events, coins or slot table too short")
        if out_captured is not None and not (
            out_captured.dtype == np.uint8 and out_captured.size >= horizon
            and out_captured.flags.c_contiguous
        ):
            raise SimulationError("out_captured: need contiguous uint8[horizon]")
        if table_size == 0:  # keep the pointer valid; never dereferenced
            table_c = np.zeros(1, dtype=np.float64)
        # Per call, so concurrent scans (serve's threads) share no buffer.
        counts = (ctypes.c_int64 * 7)()
        state = (ctypes.c_double * 2)()
        self._fn(
            horizon, cs_c.ctypes.data, ev_c.ctypes.data, coin_c.ctypes.data,
            table_c.ctypes.data, table_size, tail, 1 if slot_mode else 0,
            1 if full_info else 0, 1 if compute_aoi else 0, capacity, delta1,
            delta2, initial, initial_shave, initial_recency,
            counts, state,
            None if out_captured is None else out_captured.ctypes.data,
        )
        activations, captures, blocked, area, area_sq, max_age, last = counts
        neg, shave = state
        return (
            activations, captures, blocked, neg, shave,
            (area, area_sq, max_age, last),
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
        ev_c = _flags(events)
        coin_c = _c(coins, np.float64)
        resp_c = _c(resp, np.int64)
        table_c = _c(table, np.float64)
        table_size = table_c.shape[0]
        if min(ev_c.size, coin_c.size, resp_c.size) < horizon or (
            slot_mode and table_size < horizon
        ):
            raise SimulationError(
                "scan_network: events, coins, resp or slot table too short"
            )
        if table_size == 0:  # keep the pointer valid; never dereferenced
            table_c = np.zeros(1, dtype=np.float64)
        counts = np.empty((n_sensors, 4), dtype=np.int64)
        state = np.empty((n_sensors, 2), dtype=np.float64)
        aoi = np.empty(4, dtype=np.int64)
        self._net_fn(
            horizon, n_sensors, cs_c.ctypes.data, ev_c.ctypes.data,
            coin_c.ctypes.data, resp_c.ctypes.data, table_c.ctypes.data,
            table_size, tail, 1 if slot_mode else 0, 1 if full_info else 0,
            capacity, delta1, delta2, initial,
            counts.ctypes.data, state.ctypes.data, aoi.ctypes.data,
        )
        return counts, state, aoi

    def seed_children(
        self, parents: Sequence[Sequence[int]], count: int
    ) -> np.ndarray:
        """The seed words of ``count`` spawned children of each parent.

        ``parents[p]`` is a parent ``SeedSequence``'s assembled entropy
        as uint32 words: its entropy zero-padded to 4 words, then its
        spawn key (pool size 4 only).  Row ``p * count + c`` of the
        returned ``(len(parents) * count, 4)`` uint64 array equals
        ``parent_p.spawn(count)[c].generate_state(4, np.uint64)`` for a
        parent that has spawned nothing yet — what ``PCG64`` seeds from.
        """
        lengths = [len(words) for words in parents]
        if min(lengths, default=4) < 4 or not 0 <= count < 2**32:
            raise SimulationError(
                "seed_children: need >= 4 words per parent and 0 <= count < 2**32"
            )
        flat = [word for words in parents for word in words]
        out = (ctypes.c_uint64 * (4 * len(parents) * count))()
        self._seed_fn(
            len(parents),
            (ctypes.c_int64 * (len(parents) + 1))(0, *itertools.accumulate(lengths)),
            (ctypes.c_uint32 * len(flat))(*flat),
            count,
            out,
        )
        return np.frombuffer(out, dtype=np.uint64).reshape(-1, 4)

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

    def pi_advancer(
        self,
        beta: np.ndarray,
        decay: np.ndarray,
        activation: np.ndarray,
        tail: float,
        delta1: float,
        delta2: float,
        min_slots: int,
        tail_rel_eps: float,
        w: np.ndarray,
        state_i: np.ndarray,
        state_f: np.ndarray,
    ) -> Callable[[int, np.ndarray, np.ndarray], int]:
        """Bind the partial-information DP (``repro_pi_advance``) to the
        arrays of one streamed cycle; validated once, called per segment.

        ``w`` is the age buffer (``beta.size`` doubles, zero below the
        window), ``state_i = (t, lo, width)`` and ``state_f =
        (cycle_total, energy_total, remaining)`` are read and updated in
        place.  The returned ``advance(stop, survival, beta_hat)`` runs
        slots ``t .. stop-1``, writing slot ``t`` to ``survival[t]`` and
        ``beta_hat[t]``; it returns 0 at ``stop``, 1 when the tail closed
        and 2 when the age mass ran out.
        """
        support = beta.size
        for arr, size in (
            (beta, support), (decay, support), (activation, 0),
            (w, support), (state_f, 3),
        ):
            if not (
                arr.dtype == np.float64 and arr.ndim == 1
                and arr.flags.c_contiguous and arr.size >= size
            ):
                raise SimulationError("pi_advancer: need contiguous float64 arrays")
        if not (
            state_i.dtype == np.int64 and state_i.flags.c_contiguous
            and state_i.size == 3
        ):
            raise SimulationError("pi_advancer: need an int64[3] state")
        fn = self._pi_fn
        head = (
            beta.ctypes.data, decay.ctypes.data, support,
            activation.ctypes.data, activation.size, tail, delta1, delta2,
            min_slots, tail_rel_eps,
        )
        state = (w.ctypes.data, state_i.ctypes.data, state_f.ctypes.data)
        # The closure holds the arrays, not only their addresses, so none
        # can be freed while it may still be called.
        arrays = (beta, decay, activation, w, state_f, state_i)

        def advance(stop: int, survival: np.ndarray, beta_hat: np.ndarray) -> int:
            t, lo, width = arrays[-1].tolist()
            if not (
                t >= 0 and 0 <= lo <= width <= support
                and survival.dtype == beta_hat.dtype == np.float64
                and survival.flags.c_contiguous and beta_hat.flags.c_contiguous
                and min(survival.size, beta_hat.size) >= stop
            ):
                raise SimulationError("pi_advancer: bad DP state or buffers")
            return int(
                fn(*head, stop, *state, survival.ctypes.data, beta_hat.ctypes.data)
            )

        return advance


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

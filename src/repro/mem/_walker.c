/* Compiled hierarchy walker: the L1/L2 walk of repro.mem.hierarchy in C.
 *
 * Compiled on demand by repro.mem.cwalker with the system C compiler
 * and loaded through ctypes; when no compiler is available the Python
 * fast walker in hierarchy.py runs instead.  This is the C tier of the
 * "compiled" engine: `walker_state_new` builds a persistent state
 * handle that keeps the L1s of every CPU, the shared L2
 * (set-associative LRU/FIFO *or* the way-managed column cache), the
 * DRAM bank timers and the shared-bus demand model resident in C
 * between calls, so every batch, whatever its size, runs through one
 * `walk_batch` call without re-marshalling.
 *
 * The replay body (`walk_runs`) executes, run by run, exactly the
 * state sequence of the reference engine:
 *
 *   L1 probe -> (miss) L1 fill + eviction -> dirty-victim writeback
 *   probe into the L2 -> L2 probe (demand or store fill) -> L2 fill +
 *   eviction -> DRAM bank timing.
 *
 * Cache state lives in flat arrays (one row of `ways` slots per set,
 * slot 0 = MRU, parallel owner/dirty arrays, per-set lengths); the
 * caller rebuilds the Python-side dict/list state from the mutated
 * arrays when it needs that view.  Statistics are not computed here:
 * the kernel emits one flag byte and victim-owner slots per run, which
 * the caller reduces with numpy.  Cold-miss classification needs no
 * support at all -- a line's first-ever access always misses, so the
 * caller can derive cold runs from batch-first occurrences and its
 * seen-sets.
 *
 * Flag bits per run (matching repro.mem.cwalker.FLAG_*):
 *   1  L1 miss (implies one L2 probe: demand or store fill)
 *   2  L2 demand miss (DRAM line read)
 *   4  L1 eviction (victim owner in l1_victim_owner[i])
 *   8  L2 eviction (victim owner in l2_victim_owner[i])
 *  16  the L1 victim was dirty (writeback transfer towards the L2)
 *  32  the L2 victim was dirty (DRAM line write)
 *  64  the L2 probe missed (demand or store fill; drives the caller's
 *      seen-set bookkeeping -- only misses mark a line "seen")
 *
 * counters[0..2] = DRAM line writes, read bank conflicts, write bank
 * conflicts.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FLAG_L1_MISS 1
#define FLAG_L2_DEMAND_MISS 2
#define FLAG_L1_EVICT 4
#define FLAG_L2_EVICT 8
#define FLAG_L1_WB 16
#define FLAG_L2_WB 32
#define FLAG_L2_PROBE_MISS 64

#define L2_MODE_LRU 0
#define L2_MODE_FIFO 1
#define L2_MODE_WAY 2

/* Mark the first occurrence of every distinct value (open-addressing
 * hash set; values must be non-negative -- line addresses are).  The
 * numpy equivalent, np.unique(..., return_index=True), needs a stable
 * argsort and costs ~20x more.  Returns 0, or 1 when allocation fails
 * (the caller then falls back to numpy). */
int first_occurrence(const int64_t *values, int64_t n, uint8_t *is_first) {
    uint64_t capacity = 16;
    while (capacity < (uint64_t)(2 * n)) capacity <<= 1;
    int64_t *table = (int64_t *)malloc(capacity * sizeof(int64_t));
    if (table == NULL) return 1;
    memset(table, 0xff, capacity * sizeof(int64_t)); /* all slots = -1 */
    uint64_t mask = capacity - 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = values[i];
        uint64_t slot = ((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> 17 & mask;
        for (;;) {
            int64_t entry = table[slot];
            if (entry == v) {
                is_first[i] = 0;
                break;
            }
            if (entry == -1) {
                table[slot] = v;
                is_first[i] = 1;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    free(table);
    return 0;
}

/* One bank-model update; mirrors MainMemory.access timing exactly. */
static inline int bank_touch(double *bank_free, int64_t bank, double now,
                             int64_t bank_busy) {
    double free_at = bank_free[bank];
    int conflict = now < free_at;
    bank_free[bank] = (free_at > now ? free_at : now) + (double)bank_busy;
    return conflict;
}

/* The whole memory system as flat state.  `walker_state_new` mallocs
 * one and the caller keeps it across calls (the pointers reference
 * numpy-owned arrays the Python side keeps alive). */
typedef struct {
    int64_t n_cpus;
    int64_t l1_sets, l1_ways;
    int64_t *l1_lines, *l1_owners;
    uint8_t *l1_dirty;
    int32_t *l1_len;
    int64_t l2_sets, l2_ways, l2_mode, l2_mask;
    int64_t *l2_lines, *l2_owners;
    uint8_t *l2_dirty;
    int32_t *l2_len;
    int64_t *l2_stamp;      /* way mode: per-slot LRU stamps */
    int64_t *way_clock;     /* way mode: 1-slot global clock */
    /* DRAM */
    int64_t bank_mask, bank_busy, dram_access, bank_penalty;
    double *bank_free;
    /* shared bus (mirrors repro.mem.bus.SharedBus) */
    int64_t bus_transfer_cycles;
    double bus_lines_per_cycle, bus_decay, bus_max_surcharge;
    double *bus_demand, *bus_last;
    int64_t *bus_transfers_total;   /* 1-slot accumulators, C-resident so  */
    double *bus_surcharge_total;    /* float addition order matches the    */
                                    /* reference exactly                   */
    /* timing */
    double issue_cpi;
    int64_t l2_hit_cycles;
} walker_state;

/* Per-batch walk outcome (feeds the cycle formula and BatchResult). */
typedef struct {
    int64_t l1_misses;
    int64_t store_fills;
    int64_t dram_reads;
    int64_t dram_writes;
    int64_t read_conflicts;
    int64_t write_conflicts;
    int64_t transfers;
} batch_tally;

/* THE replay body: walk the n_runs runs of one batch against the
 * state.  The L1 is selected by cpu id; l2_mode picks the
 * set-associative LRU/FIFO walk or the way-managed column cache (hit
 * on any way, allocate only into the owner's columns, LRU by global
 * stamp). */
static void walk_runs(
    walker_state *st, int64_t cpu, int64_t n_runs,
    const int64_t *lines, const int64_t *l1_idx, const int64_t *l2_idx,
    const uint8_t *write_any, const uint8_t *store_fill,
    const int64_t *run_owners,
    int64_t use_table, int64_t n_table,
    const int64_t *table_base, const int64_t *table_size,
    const uint8_t *table_pow2,
    const int64_t *way_table, int64_t way_rows,
    double now,
    uint8_t *flags, int64_t *l1_victim_owner, int64_t *l2_victim_owner,
    batch_tally *tally)
{
    const int64_t l1_ways = st->l1_ways;
    const int64_t l2_ways = st->l2_ways;
    const int64_t l2_mask = st->l2_mask;
    const int64_t l2_mode = st->l2_mode;
    int64_t *l1_lines = st->l1_lines + cpu * st->l1_sets * l1_ways;
    int64_t *l1_owners = st->l1_owners + cpu * st->l1_sets * l1_ways;
    uint8_t *l1_dirty = st->l1_dirty + cpu * st->l1_sets * l1_ways;
    int32_t *l1_len = st->l1_len + cpu * st->l1_sets;

    for (int64_t i = 0; i < n_runs; i++) {
        int64_t line = lines[i];
        int64_t si = l1_idx[i];
        int64_t *row = l1_lines + si * l1_ways;
        int32_t len = l1_len[si];
        int64_t k;
        uint8_t f = 0;
        int write = write_any[i];

        /* ---- L1 probe (always LRU) ----------------------------------- */
        for (k = 0; k < len; k++) {
            if (row[k] == line) break;
        }
        if (k < len) {
            if (k > 0) {
                int64_t *orow = l1_owners + si * l1_ways;
                uint8_t *drow = l1_dirty + si * l1_ways;
                int64_t own = orow[k];
                uint8_t dir = drow[k];
                memmove(row + 1, row, k * sizeof(int64_t));
                memmove(orow + 1, orow, k * sizeof(int64_t));
                memmove(drow + 1, drow, k * sizeof(uint8_t));
                row[0] = line;
                orow[0] = own;
                drow[0] = dir;
            }
            if (write) l1_dirty[si * l1_ways] = 1;
            flags[i] = 0;
            continue;
        }

        /* ---- L1 miss + fill ------------------------------------------ */
        f = FLAG_L1_MISS;
        tally->l1_misses++;
        tally->transfers++;
        int64_t owner = run_owners[i];
        int64_t *orow = l1_owners + si * l1_ways;
        uint8_t *drow = l1_dirty + si * l1_ways;
        int64_t wb_line = -1, wb_owner = 0;
        if (len >= l1_ways) {
            int64_t victim = row[len - 1];
            f |= FLAG_L1_EVICT;
            l1_victim_owner[i] = orow[len - 1];
            if (drow[len - 1]) {
                f |= FLAG_L1_WB;
                wb_line = victim;
                wb_owner = orow[len - 1];
                tally->transfers++;
            }
            len--;
        }
        memmove(row + 1, row, len * sizeof(int64_t));
        memmove(orow + 1, orow, len * sizeof(int64_t));
        memmove(drow + 1, drow, len * sizeof(uint8_t));
        row[0] = line;
        orow[0] = owner;
        drow[0] = (uint8_t)write;
        l1_len[si] = len + 1;

        /* ---- dirty L1 victim written back through the L2 ------------- */
        if (wb_line >= 0) {
            int64_t wb_si;
            if (l2_mode == L2_MODE_WAY || !use_table) {
                wb_si = wb_line & l2_mask;
            } else {
                int64_t r = wb_owner < n_table ? wb_owner : n_table;
                int64_t size = table_size[r];
                wb_si = table_base[r] + (table_pow2[r]
                                             ? (wb_line & (size - 1))
                                             : (wb_line % size));
            }
            int64_t *wrow = st->l2_lines + wb_si * l2_ways;
            int64_t j, wlen;
            wlen = l2_mode == L2_MODE_WAY ? l2_ways : st->l2_len[wb_si];
            for (j = 0; j < wlen; j++) {
                if (wrow[j] == wb_line) break;
            }
            if (j < wlen) {
                /* probe_writeback: dirty in place, no recency change */
                st->l2_dirty[wb_si * l2_ways + j] = 1;
            } else {
                tally->write_conflicts += bank_touch(
                    st->bank_free, wb_line & st->bank_mask, now,
                    st->bank_busy);
                tally->dram_writes++;
            }
        }

        /* ---- L2 probe (demand access or store fill) ------------------ */
        int sfill = store_fill[i];
        if (sfill) tally->store_fills++;
        int64_t l2i = l2_idx[i];
        int64_t *row2 = st->l2_lines + l2i * l2_ways;
        int64_t *orow2 = st->l2_owners + l2i * l2_ways;
        uint8_t *drow2 = st->l2_dirty + l2i * l2_ways;

        if (l2_mode == L2_MODE_WAY) {
            /* WayManagedCache.access: clock tick, hit on any way,
             * allocate into the owner's columns only. */
            int64_t *srow2 = st->l2_stamp + l2i * l2_ways;
            int64_t clock = ++st->way_clock[0];
            for (k = 0; k < l2_ways; k++) {
                if (row2[k] == line) break;
            }
            if (k < l2_ways) {
                srow2[k] = clock;
                if (write) drow2[k] = 1;
                flags[i] = f;
                continue;
            }
            f |= FLAG_L2_PROBE_MISS;
            const int64_t *ways_row =
                way_table + (owner < way_rows ? owner : way_rows) * l2_ways;
            int64_t victim_way = -1;
            int64_t lru_way = -1, lru_stamp = 0;
            for (k = 0; k < l2_ways; k++) {
                int64_t w = ways_row[k];
                if (w < 0) break;
                if (row2[w] == -1) {
                    victim_way = w;
                    break;
                }
                if (lru_way < 0 || srow2[w] < lru_stamp) {
                    lru_way = w;
                    lru_stamp = srow2[w];
                }
            }
            if (victim_way < 0) victim_way = lru_way;
            if (row2[victim_way] != -1) {
                f |= FLAG_L2_EVICT;
                l2_victim_owner[i] = orow2[victim_way];
                if (drow2[victim_way]) {
                    f |= FLAG_L2_WB;
                    tally->write_conflicts += bank_touch(
                        st->bank_free, row2[victim_way] & st->bank_mask,
                        now, st->bank_busy);
                    tally->dram_writes++;
                }
            }
            row2[victim_way] = line;
            orow2[victim_way] = owner;
            srow2[victim_way] = clock;
            drow2[victim_way] = (uint8_t)write;
            if (!sfill) {
                f |= FLAG_L2_DEMAND_MISS;
                tally->dram_reads++;
                tally->read_conflicts += bank_touch(
                    st->bank_free, line & st->bank_mask, now, st->bank_busy);
            }
            flags[i] = f;
            continue;
        }

        /* set-associative L2 (LRU or FIFO) */
        int32_t len2 = st->l2_len[l2i];
        for (k = 0; k < len2; k++) {
            if (row2[k] == line) break;
        }
        if (k < len2) {
            if (l2_mode == L2_MODE_LRU && k > 0) {
                int64_t own = orow2[k];
                uint8_t dir = drow2[k];
                memmove(row2 + 1, row2, k * sizeof(int64_t));
                memmove(orow2 + 1, orow2, k * sizeof(int64_t));
                memmove(drow2 + 1, drow2, k * sizeof(uint8_t));
                row2[0] = line;
                orow2[0] = own;
                drow2[0] = dir;
                k = 0;
            }
            if (write) drow2[k] = 1;
            flags[i] = f;
            continue;
        }

        f |= FLAG_L2_PROBE_MISS;
        if (len2 >= l2_ways) {
            f |= FLAG_L2_EVICT;
            l2_victim_owner[i] = orow2[len2 - 1];
            if (drow2[len2 - 1]) {
                f |= FLAG_L2_WB;
                int64_t victim = row2[len2 - 1];
                tally->write_conflicts += bank_touch(
                    st->bank_free, victim & st->bank_mask, now,
                    st->bank_busy);
                tally->dram_writes++;
            }
            len2--;
        }
        memmove(row2 + 1, row2, len2 * sizeof(int64_t));
        memmove(orow2 + 1, orow2, len2 * sizeof(int64_t));
        memmove(drow2 + 1, drow2, len2 * sizeof(uint8_t));
        row2[0] = line;
        orow2[0] = owner;
        drow2[0] = (uint8_t)write;
        st->l2_len[l2i] = len2 + 1;

        if (!sfill) {
            f |= FLAG_L2_DEMAND_MISS;
            tally->dram_reads++;
            tally->read_conflicts += bank_touch(
                st->bank_free, line & st->bank_mask, now, st->bank_busy);
        }
        flags[i] = f;
    }
}

/* ====================================================================
 * Persistent state handle + per-batch walk
 * ====================================================================
 *
 * A walker_state aggregates pointers into numpy-owned arrays (the
 * Python side keeps them alive for the handle's lifetime) plus the
 * scalar model parameters.  Nothing is copied: the arrays ARE the
 * authoritative cache/bank/bus state between calls, so no call
 * marshals cache state in or out.
 *
 * `walk_batch` walks one batch's runs and prices it with the cycle
 * formula of the reference engine.  Statistics are again flag-based:
 * the caller reduces the per-run flag/victim outputs with numpy.
 */

void *walker_state_new(
    int64_t n_cpus,
    int64_t l1_sets, int64_t l1_ways,
    int64_t *l1_lines, int64_t *l1_owners, uint8_t *l1_dirty,
    int32_t *l1_len,
    int64_t l2_sets, int64_t l2_ways, int64_t l2_mode,
    int64_t *l2_lines, int64_t *l2_owners, uint8_t *l2_dirty,
    int32_t *l2_len,
    int64_t *l2_stamp, int64_t *way_clock,
    int64_t bank_mask, int64_t bank_busy, int64_t dram_access,
    int64_t bank_penalty, double *bank_free,
    int64_t bus_transfer_cycles, double bus_lines_per_cycle,
    double bus_decay, double bus_max_surcharge,
    double *bus_demand, double *bus_last,
    int64_t *bus_transfers_total, double *bus_surcharge_total,
    double issue_cpi, int64_t l2_hit_cycles)
{
    walker_state *st = (walker_state *)malloc(sizeof(walker_state));
    if (st == NULL) return NULL;
    st->n_cpus = n_cpus;
    st->l1_sets = l1_sets;
    st->l1_ways = l1_ways;
    st->l1_lines = l1_lines;
    st->l1_owners = l1_owners;
    st->l1_dirty = l1_dirty;
    st->l1_len = l1_len;
    st->l2_sets = l2_sets;
    st->l2_ways = l2_ways;
    st->l2_mode = l2_mode;
    st->l2_mask = l2_sets - 1;
    st->l2_lines = l2_lines;
    st->l2_owners = l2_owners;
    st->l2_dirty = l2_dirty;
    st->l2_len = l2_len;
    st->l2_stamp = l2_stamp;
    st->way_clock = way_clock;
    st->bank_mask = bank_mask;
    st->bank_busy = bank_busy;
    st->dram_access = dram_access;
    st->bank_penalty = bank_penalty;
    st->bank_free = bank_free;
    st->bus_transfer_cycles = bus_transfer_cycles;
    st->bus_lines_per_cycle = bus_lines_per_cycle;
    st->bus_decay = bus_decay;
    st->bus_max_surcharge = bus_max_surcharge;
    st->bus_demand = bus_demand;
    st->bus_last = bus_last;
    st->bus_transfers_total = bus_transfers_total;
    st->bus_surcharge_total = bus_surcharge_total;
    st->issue_cpi = issue_cpi;
    st->l2_hit_cycles = l2_hit_cycles;
    return st;
}

void walker_state_free(void *state) {
    free(state);
}

/* SharedBus.price_transfers, term for term (same exp(), same addition
 * order over CPUs, same truncation), accumulating the totals into the
 * C-resident slots so the running float sums match the reference. */
static int64_t bus_price(walker_state *st, int64_t cpu, int64_t n,
                         double now) {
    if (n <= 0) return 0;
    double other_rate = 0.0;
    for (int64_t c = 0; c < st->n_cpus; c++) {
        double elapsed, decayed;
        if (c == cpu) continue;
        elapsed = now - st->bus_last[c];
        if (elapsed < 0.0) elapsed = 0.0;
        decayed = st->bus_demand[c] * exp(-elapsed / st->bus_decay);
        other_rate += decayed / st->bus_decay;
    }
    double utilisation = other_rate / st->bus_lines_per_cycle;
    if (utilisation > 1.0) utilisation = 1.0;
    double surcharge = utilisation < st->bus_max_surcharge
                           ? utilisation : st->bus_max_surcharge;
    int64_t base = n * st->bus_transfer_cycles;
    double extra = (double)base * surcharge;
    {
        double elapsed = now - st->bus_last[cpu];
        if (elapsed < 0.0) elapsed = 0.0;
        st->bus_demand[cpu] =
            st->bus_demand[cpu] * exp(-elapsed / st->bus_decay) + (double)n;
        st->bus_last[cpu] = now;
    }
    st->bus_transfers_total[0] += n;
    st->bus_surcharge_total[0] += extra;
    return (int64_t)((double)base + extra);
}

/* Walk one batch -- n_runs runs issued by `cpu` at time `now`, plus
 * `instructions` of issue time -- and price it.
 *
 * out[0..7] = cycles, L1 misses, DRAM line reads (L2 demand misses),
 * DRAM line writes, bus cycles, store fills, read bank conflicts,
 * write bank conflicts.
 */
void walk_batch(
    void *state_ptr, int64_t cpu, int64_t n_runs, int64_t instructions,
    const int64_t *lines, const int64_t *l1_idx, const int64_t *l2_idx,
    const uint8_t *write_any, const uint8_t *store_fill,
    const int64_t *run_owners,
    int64_t use_table, int64_t n_table,
    const int64_t *table_base, const int64_t *table_size,
    const uint8_t *table_pow2,
    const int64_t *way_table, int64_t way_rows,
    double now,
    uint8_t *flags, int64_t *l1_victim_owner, int64_t *l2_victim_owner,
    int64_t *out)
{
    walker_state *st = (walker_state *)state_ptr;
    batch_tally tally = {0, 0, 0, 0, 0, 0, 0};
    walk_runs(
        st, cpu, n_runs,
        lines, l1_idx, l2_idx, write_any, store_fill, run_owners,
        use_table, n_table, table_base, table_size, table_pow2,
        way_table, way_rows, now,
        flags, l1_victim_owner, l2_victim_owner, &tally);
    int64_t stall =
        (tally.l1_misses - tally.store_fills) * st->l2_hit_cycles
        + tally.dram_reads * st->dram_access
        + tally.read_conflicts * st->bank_penalty;
    int64_t bus = bus_price(st, cpu, tally.transfers, now);
    out[0] = (int64_t)llrint((double)instructions * st->issue_cpi)
             + stall + bus;
    out[1] = tally.l1_misses;
    out[2] = tally.dram_reads;
    out[3] = tally.dram_writes;
    out[4] = bus;
    out[5] = tally.store_fills;
    out[6] = tally.read_conflicts;
    out[7] = tally.write_conflicts;
}

/* Compiled hierarchy walker: the whole per-op walk of repro.mem.hierarchy
 * in C.
 *
 * Compiled on demand by repro.mem.cwalker with the system C compiler
 * and loaded through ctypes; when no compiler is available the
 * reference walk in hierarchy.py runs instead.  This is the C tier of
 * the "compiled" engine: `walker_state_new` builds a persistent state
 * handle that keeps the L1s of every CPU, the shared L2
 * (set-associative LRU/FIFO *or* the way-managed column cache), the
 * DRAM bank timers, the shared-bus demand model and one seen-set per
 * cache resident in C between calls, so every op, whatever its size,
 * walks in one `walk_batch` call over its runs.
 *
 * One op takes three steps:
 *
 *   1. `walker_coalesce` turns the batch's raw addresses and write
 *      flags into runs (maximal stretches on one cache line).  It
 *      touches no state, so the caller can keep the runs of a batch it
 *      walks again;
 *   2. `walker_bind` stores the interval, set and way tables and the
 *      per-owner counters in the state, only when one of them changed;
 *   3. `walk_batch` walks the runs.  It resolves each run's owner
 *      through the interval table and checks that every run can be
 *      walked -- all before touching any state -- then executes
 *      exactly the state sequence of the reference engine:
 *
 *        L1 probe -> (miss) L1 fill + eviction -> dirty-victim
 *        writeback probe into the L2 -> L2 probe (demand or store fill)
 *        -> L2 fill + eviction -> DRAM bank timing;
 *
 *      counts per-owner statistics as it goes (accesses, misses,
 *      first-touch ("cold") misses, evictions suffered, writebacks and
 *      the (evictor, victim) eviction matrix of every cache level), and
 *      prices the batch with the reference engine's cycle formula.
 *
 * Cache state lives in flat arrays (one row of `ways` slots per set,
 * slot 0 = MRU, parallel owner/dirty arrays, per-set lengths); the
 * caller rebuilds the Python-side dict/list state from the mutated
 * arrays when it needs that view.  The counters are caller-owned
 * arrays the caller folds into its per-owner statistics; the seen-sets
 * are C-owned, and the caller collects the lines added since its last
 * look with `walker_seen_fresh` / `walker_seen_take`.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define L2_MODE_LRU 0
#define L2_MODE_FIFO 1
#define L2_MODE_WAY 2

/* walk_batch results (repro.mem.cwalker.WALK_*).  Every result but
 * WALK_OK leaves the state untouched.  1 is unused: walker_coalesce
 * reports a negative address. */
#define WALK_OK 0
#define WALK_NEGATIVE_OWNER 2
#define WALK_GROW 3             /* out[0] = the owner id to make room for */
#define WALK_NO_MEMORY 4

/* A run is two int64: its line, then count << 2 | sfill << 1 |
 * write_any (walker_coalesce). */
#define RUN_COUNT(info) ((info) >> 2)
#define RUN_SFILL(info) ((int)((info) >> 1 & 1))
#define RUN_WRITE(info) ((int)((info) & 1))

/* Per-owner counter rows of one cache (repro.mem.hierarchy). */
#define N_FIELDS 5
#define F_ACCESSES 0
#define F_MISSES 1
#define F_COLD 2
#define F_EVICTED 3
#define F_WRITEBACKS 4

/* ====================================================================
 * Seen-sets: the lines each cache has ever missed on
 * ==================================================================== */

/* Open-addressing hash set of non-negative line addresses (-1 marks an
 * empty slot), plus its members in insertion order, so the caller can
 * collect exactly the lines added since it last looked. */
typedef struct {
    int64_t *slots;
    int64_t capacity;       /* slots, a power of two */
    int64_t *keys;
    int64_t room;           /* keys allocated */
    int64_t count;          /* members */
    int64_t exported;       /* keys[0..exported) the caller has seen */
} line_set;

static inline uint64_t slot_of(int64_t line, int64_t capacity) {
    return ((uint64_t)line * 0x9E3779B97F4A7C15ULL) >> 17
           & (uint64_t)(capacity - 1);
}

static inline void slot_put(int64_t *slots, int64_t capacity,
                            int64_t line) {
    uint64_t i = slot_of(line, capacity);
    while (slots[i] != -1) i = (i + 1) & (uint64_t)(capacity - 1);
    slots[i] = line;
}

/* Make room for `extra` more members at load <= 1/2.  Returns 0, or 1
 * when an allocation failed (the members are unchanged either way). */
static int set_reserve(line_set *s, int64_t extra) {
    int64_t need = s->count + extra;
    if (need > s->room) {
        int64_t room = 16;
        while (room < need) room <<= 1;
        int64_t *keys = (int64_t *)realloc(s->keys, room * sizeof(int64_t));
        if (keys == NULL) return 1;
        s->keys = keys;
        s->room = room;
    }
    if (2 * need > s->capacity) {
        int64_t capacity = 32;
        while (capacity < 2 * need) capacity <<= 1;
        int64_t *slots = (int64_t *)malloc(capacity * sizeof(int64_t));
        if (slots == NULL) return 1;
        memset(slots, 0xff, capacity * sizeof(int64_t)); /* all -1 */
        for (int64_t k = 0; k < s->count; k++) {
            slot_put(slots, capacity, s->keys[k]);
        }
        free(s->slots);
        s->slots = slots;
        s->capacity = capacity;
    }
    return 0;
}

/* Add `line` (room reserved); returns 1 when it was not a member yet. */
static inline int set_insert(line_set *s, int64_t line) {
    uint64_t i = slot_of(line, s->capacity);
    for (;;) {
        int64_t entry = s->slots[i];
        if (entry == line) return 0;
        if (entry == -1) {
            s->slots[i] = line;
            s->keys[s->count++] = line;
            return 1;
        }
        i = (i + 1) & (uint64_t)(s->capacity - 1);
    }
}

/* ====================================================================
 * Persistent state
 * ==================================================================== */

/* One bank-model update; mirrors MainMemory.access timing exactly. */
static inline int bank_touch(double *bank_free, int64_t bank, double now,
                             int64_t bank_busy) {
    double free_at = bank_free[bank];
    int conflict = now < free_at;
    bank_free[bank] = (free_at > now ? free_at : now) + (double)bank_busy;
    return conflict;
}

/* The whole memory system as flat state.  `walker_state_new` mallocs
 * one and the caller keeps it across calls (the array pointers
 * reference numpy-owned arrays the Python side keeps alive). */
typedef struct {
    int64_t n_cpus;
    int64_t line_shift;
    int64_t l1_sets, l1_ways;
    int64_t *l1_lines, *l1_owners;
    uint8_t *l1_dirty;
    int32_t *l1_len;
    int64_t l2_ways, l2_mode;      /* L2 set indices come from set tables */
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
    /* seen-sets: every L1 by cpu id, then the L2 */
    line_set *seen;
    /* per-call inputs, stored by walker_bind (caller-owned arrays) */
    const int64_t *intervals;   /* 3 rows of n_intervals: bases, ends, owners */
    int64_t n_intervals;
    const int64_t *set_table;   /* owner -> (base, n_sets) rows */
    int64_t n_table;
    const int64_t *way_table;   /* owner -> allocation ways (way mode) */
    int64_t way_rows;
    int64_t *counts, *matrix;   /* per-owner counters, eviction matrices */
    int64_t n_owners;
} walker_state;

void walker_state_free(void *state) {
    walker_state *st = (walker_state *)state;
    if (st == NULL) return;
    if (st->seen != NULL) {
        for (int64_t c = 0; c <= st->n_cpus; c++) {
            free(st->seen[c].slots);
            free(st->seen[c].keys);
        }
        free(st->seen);
    }
    free(st);
}

/* `seen_lines` holds the members of every seen-set, cache after cache
 * (every L1 by cpu id, then the L2), `seen_counts[c]` how many belong
 * to cache c.  Returns NULL when an allocation fails. */
void *walker_state_new(
    int64_t n_cpus, int64_t line_shift,
    int64_t l1_sets, int64_t l1_ways,
    int64_t *l1_lines, int64_t *l1_owners, uint8_t *l1_dirty,
    int32_t *l1_len,
    int64_t l2_ways, int64_t l2_mode,
    int64_t *l2_lines, int64_t *l2_owners, uint8_t *l2_dirty,
    int32_t *l2_len,
    int64_t *l2_stamp, int64_t *way_clock,
    int64_t bank_mask, int64_t bank_busy, int64_t dram_access,
    int64_t bank_penalty, double *bank_free,
    int64_t bus_transfer_cycles, double bus_lines_per_cycle,
    double bus_decay, double bus_max_surcharge,
    double *bus_demand, double *bus_last,
    int64_t *bus_transfers_total, double *bus_surcharge_total,
    double issue_cpi, int64_t l2_hit_cycles,
    const int64_t *seen_lines, const int64_t *seen_counts)
{
    walker_state *st = (walker_state *)calloc(1, sizeof(walker_state));
    if (st == NULL) return NULL;
    st->n_cpus = n_cpus;
    st->line_shift = line_shift;
    st->l1_sets = l1_sets;
    st->l1_ways = l1_ways;
    st->l1_lines = l1_lines;
    st->l1_owners = l1_owners;
    st->l1_dirty = l1_dirty;
    st->l1_len = l1_len;
    st->l2_ways = l2_ways;
    st->l2_mode = l2_mode;
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
    st->seen = (line_set *)calloc(n_cpus + 1, sizeof(line_set));
    if (st->seen == NULL) {
        walker_state_free(st);
        return NULL;
    }
    for (int64_t c = 0; c <= n_cpus; c++) {
        line_set *s = &st->seen[c];
        if (set_reserve(s, seen_counts[c])) {
            walker_state_free(st);
            return NULL;
        }
        for (int64_t k = 0; k < seen_counts[c]; k++) {
            set_insert(s, seen_lines[k]);
        }
        seen_lines += seen_counts[c];
        s->exported = s->count;
    }
    return st;
}

/* Lines cache `cache` added to its seen-set since the last take. */
int64_t walker_seen_fresh(void *state, int64_t cache) {
    line_set *s = &((walker_state *)state)->seen[cache];
    return s->count - s->exported;
}

/* Copy those lines into `out` (walker_seen_fresh slots) and mark them
 * taken. */
void walker_seen_take(void *state, int64_t cache, int64_t *out) {
    line_set *s = &((walker_state *)state)->seen[cache];
    memcpy(out, s->keys + s->exported,
           (s->count - s->exported) * sizeof(int64_t));
    s->exported = s->count;
}

/* ====================================================================
 * The per-batch walk
 * ==================================================================== */

/* Interval-table owner resolution (OwnerResolver.resolve): the owner of
 * the interval holding `addr`, else the task's.  Consecutive runs
 * mostly stay in one interval (or one gap between intervals), so the
 * last resolved stretch is tried before the binary search. */
typedef struct {
    const int64_t *base, *end, *owner;
    int64_t n, task_owner;
    int64_t lo, hi, cached;     /* every addr in [lo, hi) -> cached */
} resolver;

static inline int64_t resolve(resolver *r, int64_t addr) {
    if (addr >= r->lo && addr < r->hi) return r->cached;
    int64_t a = 0, b = r->n;    /* a := first interval with base > addr */
    while (a < b) {
        int64_t m = (a + b) >> 1;
        if (r->base[m] <= addr) a = m + 1;
        else b = m;
    }
    int64_t k = a - 1;
    if (k >= 0 && addr < r->end[k]) {
        r->lo = r->base[k];
        r->hi = r->end[k];
        r->cached = r->owner[k];
    } else {
        r->lo = k >= 0 ? r->end[k] : INT64_MIN;
        r->hi = a < r->n ? r->base[a] : INT64_MAX;
        r->cached = r->task_owner;
    }
    return r->cached;
}

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

/* What one batch walks against besides the state. */
typedef struct {
    int64_t *l1_lines, *l1_owners;      /* the batch CPU's L1 */
    uint8_t *l1_dirty;
    int32_t *l1_len;
    line_set *l1_seen, *l2_seen;
    int64_t *l1_stats, *l2_stats;       /* N_FIELDS rows of n_owners */
    int64_t *l1_matrix, *l2_matrix;     /* n_owners x n_owners */
    int64_t n_owners;
    /* owner -> (base, n_sets) rows; owners >= n_table use row n_table */
    const int64_t *set_table;
    int64_t n_table;
    /* owner -> allocation ways; owners >= way_rows use row way_rows */
    const int64_t *way_table;
    int64_t way_rows;
    double now;
    batch_tally tally;
} walk_ctx;

/* SetPartition.translate through the owner's set-table row. */
static inline int64_t l2_index(const walk_ctx *c, int64_t owner,
                               int64_t line) {
    const int64_t *row =
        c->set_table + 2 * (owner < c->n_table ? owner : c->n_table);
    int64_t size = row[1];
    return row[0] + ((size & (size - 1)) ? line % size
                                         : (line & (size - 1)));
}

static inline void count_eviction(int64_t *stats, int64_t *matrix,
                                  int64_t n_owners, int64_t evictor,
                                  int64_t victim, int dirty) {
    stats[F_EVICTED * n_owners + victim]++;
    if (dirty) stats[F_WRITEBACKS * n_owners + victim]++;
    matrix[evictor * n_owners + victim]++;
}

/* THE replay body: walk one run -- `count` accesses to `line` by
 * `owner` -- against the state.  l2_mode picks the set-associative
 * LRU/FIFO walk or the way-managed column cache (hit on any way,
 * allocate only into the owner's columns, LRU by global stamp). */
static void walk_run(walker_state *st, walk_ctx *c, int64_t line,
                     int64_t count, int write, int sfill, int64_t owner)
{
    const int64_t n_owners = c->n_owners;
    const int64_t l1_ways = st->l1_ways;
    const int64_t l2_ways = st->l2_ways;
    int64_t si = line & (st->l1_sets - 1);
    int64_t *row = c->l1_lines + si * l1_ways;
    int64_t *orow = c->l1_owners + si * l1_ways;
    uint8_t *drow = c->l1_dirty + si * l1_ways;
    int32_t len = c->l1_len[si];
    int64_t k;

    c->l1_stats[F_ACCESSES * n_owners + owner] += count;

    /* ---- L1 probe (always LRU) ------------------------------------- */
    for (k = 0; k < len; k++) {
        if (row[k] == line) break;
    }
    if (k < len) {
        if (k > 0) {
            int64_t own = orow[k];
            uint8_t dir = drow[k];
            memmove(row + 1, row, k * sizeof(int64_t));
            memmove(orow + 1, orow, k * sizeof(int64_t));
            memmove(drow + 1, drow, k * sizeof(uint8_t));
            row[0] = line;
            orow[0] = own;
            drow[0] = dir;
        }
        if (write) drow[0] = 1;
        return;
    }

    /* ---- L1 miss + fill -------------------------------------------- */
    c->l1_stats[F_MISSES * n_owners + owner]++;
    if (set_insert(c->l1_seen, line)) {
        c->l1_stats[F_COLD * n_owners + owner]++;
    }
    c->tally.l1_misses++;
    c->tally.transfers++;
    int64_t wb_line = -1, wb_owner = 0;
    if (len >= l1_ways) {
        int dirty = drow[len - 1];
        count_eviction(c->l1_stats, c->l1_matrix, n_owners, owner,
                       orow[len - 1], dirty);
        if (dirty) {
            wb_line = row[len - 1];
            wb_owner = orow[len - 1];
            c->tally.transfers++;
        }
        len--;
    }
    memmove(row + 1, row, len * sizeof(int64_t));
    memmove(orow + 1, orow, len * sizeof(int64_t));
    memmove(drow + 1, drow, len * sizeof(uint8_t));
    row[0] = line;
    orow[0] = owner;
    drow[0] = (uint8_t)write;
    c->l1_len[si] = len + 1;

    /* ---- dirty L1 victim written back through the L2 --------------- */
    if (wb_line >= 0) {
        int64_t wb_si = l2_index(c, wb_owner, wb_line);
        int64_t *wrow = st->l2_lines + wb_si * l2_ways;
        int64_t j, wlen;
        wlen = st->l2_mode == L2_MODE_WAY ? l2_ways : st->l2_len[wb_si];
        for (j = 0; j < wlen; j++) {
            if (wrow[j] == wb_line) break;
        }
        if (j < wlen) {
            /* probe_writeback: dirty in place, no recency change */
            st->l2_dirty[wb_si * l2_ways + j] = 1;
        } else {
            c->tally.write_conflicts += bank_touch(
                st->bank_free, wb_line & st->bank_mask, c->now,
                st->bank_busy);
            c->tally.dram_writes++;
        }
    }

    /* ---- L2 probe (demand access or store fill) -------------------- */
    c->l2_stats[F_ACCESSES * n_owners + owner]++;
    if (sfill) c->tally.store_fills++;
    int64_t l2i = l2_index(c, owner, line);
    int64_t *row2 = st->l2_lines + l2i * l2_ways;
    int64_t *orow2 = st->l2_owners + l2i * l2_ways;
    uint8_t *drow2 = st->l2_dirty + l2i * l2_ways;
    int64_t victim_line = -1;   /* the L2 fill's victim, if any */
    int victim_dirty = 0;

    if (st->l2_mode == L2_MODE_WAY) {
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
            return;
        }
        const int64_t *ways_row = c->way_table
            + (owner < c->way_rows ? owner : c->way_rows) * l2_ways;
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
            victim_line = row2[victim_way];
            victim_dirty = drow2[victim_way];
            count_eviction(c->l2_stats, c->l2_matrix, n_owners, owner,
                           orow2[victim_way], victim_dirty);
        }
        row2[victim_way] = line;
        orow2[victim_way] = owner;
        srow2[victim_way] = clock;
        drow2[victim_way] = (uint8_t)write;
    } else {
        /* set-associative L2 (LRU or FIFO) */
        int32_t len2 = st->l2_len[l2i];
        for (k = 0; k < len2; k++) {
            if (row2[k] == line) break;
        }
        if (k < len2) {
            if (st->l2_mode == L2_MODE_LRU && k > 0) {
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
            return;
        }
        if (len2 >= l2_ways) {
            victim_line = row2[len2 - 1];
            victim_dirty = drow2[len2 - 1];
            count_eviction(c->l2_stats, c->l2_matrix, n_owners, owner,
                           orow2[len2 - 1], victim_dirty);
            len2--;
        }
        memmove(row2 + 1, row2, len2 * sizeof(int64_t));
        memmove(orow2 + 1, orow2, len2 * sizeof(int64_t));
        memmove(drow2 + 1, drow2, len2 * sizeof(uint8_t));
        row2[0] = line;
        orow2[0] = owner;
        drow2[0] = (uint8_t)write;
        st->l2_len[l2i] = len2 + 1;
    }

    /* ---- L2 miss: seen-set, DRAM writeback, then the demand read ---- */
    int fresh = set_insert(c->l2_seen, line);
    if (victim_dirty) {
        c->tally.write_conflicts += bank_touch(
            st->bank_free, victim_line & st->bank_mask, c->now,
            st->bank_busy);
        c->tally.dram_writes++;
    }
    if (!sfill) {
        /* A store fill is a write-validated allocation: an access and
         * a hit, never a (cold) miss, though it marks the line seen. */
        c->l2_stats[F_MISSES * n_owners + owner]++;
        if (fresh) c->l2_stats[F_COLD * n_owners + owner]++;
        c->tally.dram_reads++;
        c->tally.read_conflicts += bank_touch(
            st->bank_free, line & st->bank_mask, c->now, st->bank_busy);
    }
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

/* Coalesce `n` accesses -- byte addresses `addrs` and one flag byte per
 * access in `writes` (any non-zero byte is a store) -- into runs:
 * maximal stretches on one line.  `runs` has room for `n` runs (2n
 * int64); run k is the line, then count << 2 | sfill << 1 | write_any.
 * A write-only run touching a whole line's worth of words
 * (`full_line_count`) is a store fill: it fills the line without a
 * fetch (write-validate).  Touches no state.  Returns the run count,
 * or -1 when an address is negative. */
int64_t walker_coalesce(const int64_t *addrs, const uint8_t *writes,
                        int64_t n, int64_t line_shift,
                        int64_t full_line_count, int64_t *runs)
{
    int64_t n_runs = 0, i, j;
    for (i = 0; i < n; i = j) {
        int64_t line = addrs[i] >> line_shift;
        if (line < 0) return -1;
        int write_any = writes[i] != 0;
        int write_all = write_any;
        for (j = i + 1; j < n && (addrs[j] >> line_shift) == line; j++) {
            int w = writes[j] != 0;
            write_any |= w;
            write_all &= w;
        }
        int sfill = write_all && j - i >= full_line_count;
        runs[2 * n_runs] = line;
        runs[2 * n_runs + 1] = (j - i) << 2 | sfill << 1 | write_any;
        n_runs++;
    }
    return n_runs;
}

/* Store the walk's per-call inputs in the state; they stay in use until
 * the next bind.  `intervals` is the interval table as three rows of
 * `n_intervals`: sorted bases, ends, owners.  `set_table` has
 * `n_table + 1` (base, n_sets) rows; owners >= n_table use the last.
 * `way_table` has `way_rows + 1` rows of l2_ways allocation ways, -1
 * padded (read in way mode only); owners >= way_rows use the last.
 * `counts` holds N_FIELDS rows of `n_owners` counters per cache and
 * `matrix` one n_owners x n_owners eviction matrix per cache, every L1
 * by cpu id, then the L2; the walk adds to both. */
void walker_bind(void *state, const int64_t *intervals,
                 int64_t n_intervals, const int64_t *set_table,
                 int64_t n_table, const int64_t *way_table, int64_t way_rows,
                 int64_t *counts, int64_t *matrix, int64_t n_owners)
{
    walker_state *st = (walker_state *)state;
    st->intervals = intervals;
    st->n_intervals = n_intervals;
    st->set_table = set_table;
    st->n_table = n_table;
    st->way_table = way_table;
    st->way_rows = way_rows;
    st->counts = counts;
    st->matrix = matrix;
    st->n_owners = n_owners;
}

/* Walk one batch -- its `n_runs` runs (walker_coalesce), issued by
 * `cpu` on behalf of `task_owner` at time `now`, plus `instructions`
 * of issue time -- against the state and its bound inputs, and price
 * it.
 *
 * Returns WALK_OK, or one of the other WALK_* results before touching
 * any state.  On WALK_OK, out[0..7] = cycles, L1 misses, DRAM line
 * reads (L2 demand misses), DRAM line writes, bus cycles, store fills,
 * read bank conflicts, write bank conflicts.
 */
int walk_batch(
    void *state_ptr, int64_t cpu, int64_t task_owner, int64_t instructions,
    double now, const int64_t *runs, int64_t n_runs, int64_t *out)
{
    walker_state *st = (walker_state *)state_ptr;
    const int64_t shift = st->line_shift;
    const int64_t n_owners = st->n_owners;
    const int64_t n_intervals = st->n_intervals;
    resolver res = {
        st->intervals, st->intervals + n_intervals,
        st->intervals + 2 * n_intervals,
        n_intervals, task_owner, 0, 0, 0,
    };
    int64_t i;

    /* ---- pass 1: every run must be walkable before anything moves -- */
    int64_t lo_owner = 0, hi_owner = 0;
    for (i = 0; i < n_runs; i++) {
        int64_t owner = resolve(&res, runs[2 * i] << shift);
        if (i == 0 || owner < lo_owner) lo_owner = owner;
        if (i == 0 || owner > hi_owner) hi_owner = owner;
    }
    if (lo_owner < 0) return WALK_NEGATIVE_OWNER;
    if (hi_owner >= n_owners) {
        out[0] = hi_owner;
        return WALK_GROW;
    }
    /* Each run adds at most one line to each seen-set it touches. */
    if (set_reserve(&st->seen[cpu], n_runs)
            || set_reserve(&st->seen[st->n_cpus], n_runs)) {
        return WALK_NO_MEMORY;
    }

    /* ---- pass 2: walk run by run ---------------------------------- */
    int64_t l1_span = st->l1_sets * st->l1_ways;
    walk_ctx c = {
        st->l1_lines + cpu * l1_span, st->l1_owners + cpu * l1_span,
        st->l1_dirty + cpu * l1_span, st->l1_len + cpu * st->l1_sets,
        &st->seen[cpu], &st->seen[st->n_cpus],
        st->counts + cpu * N_FIELDS * n_owners,
        st->counts + st->n_cpus * N_FIELDS * n_owners,
        st->matrix + cpu * n_owners * n_owners,
        st->matrix + st->n_cpus * n_owners * n_owners,
        n_owners, st->set_table, st->n_table, st->way_table, st->way_rows,
        now, {0, 0, 0, 0, 0, 0, 0},
    };
    for (i = 0; i < n_runs; i++) {
        int64_t line = runs[2 * i], info = runs[2 * i + 1];
        walk_run(st, &c, line, RUN_COUNT(info), RUN_WRITE(info),
                 RUN_SFILL(info), resolve(&res, line << shift));
    }

    batch_tally *tally = &c.tally;
    int64_t stall =
        (tally->l1_misses - tally->store_fills) * st->l2_hit_cycles
        + tally->dram_reads * st->dram_access
        + tally->read_conflicts * st->bank_penalty;
    int64_t bus = bus_price(st, cpu, tally->transfers, now);
    out[0] = (int64_t)llrint((double)instructions * st->issue_cpi)
             + stall + bus;
    out[1] = tally->l1_misses;
    out[2] = tally->dram_reads;
    out[3] = tally->dram_writes;
    out[4] = bus;
    out[5] = tally->store_fills;
    out[6] = tally->read_conflicts;
    out[7] = tally->write_conflicts;
    return WALK_OK;
}

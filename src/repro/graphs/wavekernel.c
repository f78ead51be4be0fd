/*
 * Compiled multi-source BFS wave kernel behind
 * repro.graphs.fast.accumulate_path_shard.
 *
 * One call runs one wave: up to 64 * words BFS sources advance together over
 * a CSR graph, each node carrying `words` bit-packed uint64 frontier words
 * (source j owns bit j % 64 of word j / 64).  Every level fuses the
 * neighbour gather, the OR, the `& ~visited` mask, the popcount and the
 * per-node accumulator update into one pass over the rows it touches:
 *
 *   ecc[v]    = max(ecc[v], d)        for every row v first reached at d,
 *   totals[v] += d * popcount(new bits of v at level d).
 *
 * Two level kinds give identical results (Then et al., "The More the
 * Merrier", VLDB 2014; Beamer et al., "Direction-Optimizing BFS", SC 2012):
 *
 *   dense  -- every unsaturated row ORs its neighbours' frontier words
 *             (rows already holding every source bit are skipped);
 *   sparse -- only the rows of the live frontier scatter their words into
 *             their neighbours, for thin levels (high-diameter graphs, and
 *             the first and last levels of every wave).
 *
 * The kernel allocates nothing: the caller passes every buffer, so one set
 * serves all the waves of a campaign and concurrent calls on distinct
 * buffers are independent.  Sizes: visited/frontier/next hold n * words
 * uint64, active/fresh hold n int64, touched holds n bytes.
 */
#include <stdint.h>
#include <string.h>

#define MODE_ADAPTIVE 0
#define MODE_DENSE 1
#define MODE_SPARSE 2

/* A level takes the sparse step when the live frontier's edges, times this
 * divisor, fit inside the total edge count. */
#define SPARSE_EDGE_DIVISOR 12

/* tallies[] slots: this wave's level count, levels per step kind, and
 * newly reached rows summed over levels. */
#define TALLY_LEVELS 0
#define TALLY_DENSE 1
#define TALLY_SPARSE 2
#define TALLY_ROWS 3

#if defined(__GNUC__)
#define POPCOUNT64(x) ((int64_t)__builtin_popcountll(x))
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
static int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & UINT64_C(0x5555555555555555));
    x = (x & UINT64_C(0x3333333333333333)) + ((x >> 2) & UINT64_C(0x3333333333333333));
    x = (x + (x >> 4)) & UINT64_C(0x0f0f0f0f0f0f0f0f);
    return (int64_t)((x * UINT64_C(0x0101010101010101)) >> 56);
}
#define POPCOUNT64(x) popcount64(x)
#define ALWAYS_INLINE static inline
#endif

/* Masks the gathered words of row v by ~visited, folds the new bits into
 * visited and returns their popcount (0 when the row gained nothing). */
ALWAYS_INLINE int64_t settle_row(uint64_t *nv, uint64_t *vv, int64_t words)
{
    int64_t count = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t x = nv[w] & ~vv[w];
        nv[w] = x;
        vv[w] |= x;
        count += POPCOUNT64(x);
    }
    return count;
}

ALWAYS_INLINE int row_saturated(const uint64_t *vv, int64_t words, uint64_t last)
{
    for (int64_t w = 0; w < words - 1; w++) {
        if (vv[w] != ~UINT64_C(0)) {
            return 0;
        }
    }
    return vv[words - 1] == last;
}

ALWAYS_INLINE void run_wave(
    int64_t n, const int64_t *indptr, const int32_t *indices,
    const int64_t *sources, int64_t batch, int64_t mode, int64_t words,
    uint64_t *visited, uint64_t *frontier, uint64_t *next,
    int64_t *active, int64_t *fresh, uint8_t *touched,
    int64_t *ecc, int64_t *totals, int64_t *tallies)
{
    const int64_t m = indptr[n];
    const uint64_t last = (batch % 64) ? ((UINT64_C(1) << (batch % 64)) - 1) : ~UINT64_C(0);
    const size_t row_bytes = (size_t)words * sizeof(uint64_t);
    memset(visited, 0, (size_t)n * row_bytes);
    memset(frontier, 0, (size_t)n * row_bytes);
    memset(next, 0, (size_t)n * row_bytes);
    memset(touched, 0, (size_t)n);
    memset(tallies, 0, 4 * sizeof(int64_t));

    /* Seed: every source sets its own bit; `active` lists each source row
     * once, whatever the duplicates. */
    int64_t n_active = 0;
    for (int64_t j = 0; j < batch; j++) {
        const int64_t s = sources[j];
        const uint64_t bit = UINT64_C(1) << (j & 63);
        visited[s * words + (j >> 6)] |= bit;
        frontier[s * words + (j >> 6)] |= bit;
        if (!touched[s]) {
            touched[s] = 1;
            active[n_active++] = s;
        }
    }
    for (int64_t i = 0; i < n_active; i++) {
        touched[active[i]] = 0;
    }
    /* (source, node) pairs not yet visited: the wave stops at zero. */
    int64_t remaining = n * batch - batch;

    for (int64_t depth = 1; remaining > 0; depth++) {
        int64_t frontier_edges = 0;
        for (int64_t i = 0; i < n_active; i++) {
            frontier_edges += indptr[active[i] + 1] - indptr[active[i]];
        }
        if (frontier_edges == 0) {
            break;
        }
        const int sparse = mode == MODE_SPARSE
            || (mode == MODE_ADAPTIVE && frontier_edges * SPARSE_EDGE_DIVISOR <= m);
        int64_t n_fresh = 0;
        int64_t newly = 0;
        if (sparse) {
            /* Scatter the frontier rows into their neighbours, listing each
             * touched row once, then settle the touched rows in place. */
            int64_t n_touched = 0;
            for (int64_t i = 0; i < n_active; i++) {
                const int64_t u = active[i];
                const uint64_t *fu = frontier + u * words;
                for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                    const int64_t v = indices[e];
                    uint64_t *nv = next + v * words;
                    if (!touched[v]) {
                        touched[v] = 1;
                        fresh[n_touched++] = v;
                    }
                    for (int64_t w = 0; w < words; w++) {
                        nv[w] |= fu[w];
                    }
                }
            }
            for (int64_t i = 0; i < n_touched; i++) {
                const int64_t v = fresh[i];
                touched[v] = 0;
                const int64_t count = settle_row(next + v * words, visited + v * words, words);
                if (count) {
                    fresh[n_fresh++] = v;
                    totals[v] += depth * count;
                    if (ecc[v] < depth) {
                        ecc[v] = depth;
                    }
                    newly += count;
                }
            }
        } else {
            for (int64_t v = 0; v < n; v++) {
                uint64_t *vv = visited + v * words;
                if (indptr[v] == indptr[v + 1] || row_saturated(vv, words, last)) {
                    continue;
                }
                uint64_t *nv = next + v * words;
                for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                    const uint64_t *fu = frontier + (int64_t)indices[e] * words;
                    for (int64_t w = 0; w < words; w++) {
                        nv[w] |= fu[w];
                    }
                }
                const int64_t count = settle_row(nv, vv, words);
                if (count) {
                    fresh[n_fresh++] = v;
                    totals[v] += depth * count;
                    if (ecc[v] < depth) {
                        ecc[v] = depth;
                    }
                    newly += count;
                }
            }
        }
        if (n_fresh == 0) {
            break;
        }
        /* The old frontier becomes the next level's all-zero scratch. */
        for (int64_t i = 0; i < n_active; i++) {
            memset(frontier + active[i] * words, 0, row_bytes);
        }
        uint64_t *swap_words = frontier;
        frontier = next;
        next = swap_words;
        int64_t *swap_rows = active;
        active = fresh;
        fresh = swap_rows;
        n_active = n_fresh;
        remaining -= newly;
        tallies[TALLY_LEVELS] += 1;
        tallies[sparse ? TALLY_SPARSE : TALLY_DENSE] += 1;
        tallies[TALLY_ROWS] += n_fresh;
    }
}

/* Runs one wave of `batch` sources (0 < batch; every source in [0, n)),
 * folds its levels into ecc/totals and writes its tallies. */
void repro_wave_accumulate(
    int64_t n, const int64_t *indptr, const int32_t *indices,
    const int64_t *sources, int64_t batch, int64_t mode,
    uint64_t *visited, uint64_t *frontier, uint64_t *next,
    int64_t *active, int64_t *fresh, uint8_t *touched,
    int64_t *ecc, int64_t *totals, int64_t *tallies)
{
    const int64_t words = (batch + 63) / 64;
    /* Constant word counts let the compiler unroll the per-row loops. */
    if (words == 2) {
        run_wave(n, indptr, indices, sources, batch, mode, 2, visited, frontier,
                 next, active, fresh, touched, ecc, totals, tallies);
    } else if (words == 1) {
        run_wave(n, indptr, indices, sources, batch, mode, 1, visited, frontier,
                 next, active, fresh, touched, ecc, totals, tallies);
    } else {
        run_wave(n, indptr, indices, sources, batch, mode, words, visited, frontier,
                 next, active, fresh, touched, ecc, totals, tallies);
    }
}

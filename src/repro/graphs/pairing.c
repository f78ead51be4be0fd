/*
 * Compiled pairing model behind repro.graphs.generators.k_regular_graph.
 *
 * Runs the attempt loop of generators._try_pairing_model -- shuffle the
 * n * k stubs, pop the last live stub u, draw a uniform live stub v, reject
 * self-loops and duplicate edges (each stub gets `live` tries), restart on
 * a stuck stub -- on a replay of CPython's random.Random, so every draw is
 * the one the Python code takes and the rng ends where it would end.
 *
 * The generator is MT19937 (Matsumoto & Nishimura, ACM TOMACS 8(1), 1998)
 * exactly as CPython's _randommodule.c runs it; `state` holds the 624
 * words and the position of Random.getstate() and is updated in place.
 * On top of it the Python-level draws:
 *
 *   getrandbits(b), b <= 32  -- genrand_uint32() >> (32 - b)
 *   _randbelow(m)            -- getrandbits(m.bit_length()), redrawn
 *                               while >= m
 *   shuffle(x)               -- for i = len-1 down to 1:
 *                               swap x[i], x[_randbelow(i + 1)]
 *   randrange(m)             -- _randbelow(m)
 *
 * The live stubs are the shuffled array minus the popped ones, in array
 * order; a Fenwick tree over positions (1 = live) finds the index-th live
 * stub and removes one in O(log nk), like generators._StubList.
 *
 * The caller passes every buffer: stubs and tree hold n * k int32, rows
 * holds n * k int32 and degree n int32.  On success rows[u * k .. + k)
 * lists u's neighbours in the order the edges were made.  Needs
 * n * k < 2^31 (32-bit positions, one 32-bit word per draw).
 */
#include <stdint.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

static uint32_t genrand_uint32(uint32_t *state)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = state;
    uint32_t y;

    if (state[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        state[MT_N] = 0;
    }
    y = mt[state[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow(m) for 0 < m < 2^31. */
static int32_t randbelow(uint32_t *state, uint32_t m)
{
    int bits = 0;
    uint32_t r;
    while ((m >> bits) != 0)
        bits++;
    do {
        r = genrand_uint32(state) >> (32 - bits);
    } while (r >= m);
    return (int32_t)r;
}

/* randbelow() for the other sources of the library (soap.c's tie-breaks);
 * pairing's own draws keep the static, inlinable one. */
int32_t repro_mt_randbelow(uint32_t *state, uint32_t m)
{
    return randbelow(state, m);
}

/* Position of the index-th live stub (0-based); `top` is the largest power
 * of two <= size. */
static int32_t fenwick_find(const int32_t *tree, int32_t size, int32_t top, int32_t index)
{
    int32_t position = 0;
    for (int32_t step = top; step; step >>= 1) {
        int32_t probe = position + step;
        if (probe <= size && tree[probe - 1] <= index) {
            position = probe;
            index -= tree[probe - 1];
        }
    }
    return position;
}

static void fenwick_remove(int32_t *tree, int32_t size, int32_t position)
{
    for (int32_t probe = position + 1; probe <= size; probe += probe & -probe)
        tree[probe - 1] -= 1;
}

/* One attempt; 1 when every stub was paired, 0 when one got stuck. */
static int attempt(int32_t n, int32_t k, uint32_t *state, int32_t *stubs,
                   int32_t *tree, int32_t *rows, int32_t *degree)
{
    const int32_t size = n * k;
    int32_t top = 1;

    for (int32_t node = 0, i = 0; node < n; node++) {
        degree[node] = 0;
        for (int32_t copy = 0; copy < k; copy++)
            stubs[i++] = node;
    }
    for (int32_t i = size - 1; i > 0; i--) {
        int32_t j = randbelow(state, (uint32_t)i + 1);
        int32_t swap = stubs[i];
        stubs[i] = stubs[j];
        stubs[j] = swap;
    }
    /* All positions live: each tree slot counts its own low-bit range. */
    for (int32_t probe = 1; probe <= size; probe++)
        tree[probe - 1] = probe & -probe;
    while (top <= size / 2)
        top <<= 1;

    int32_t live = size;
    int32_t last = size - 1;
    while (live > 0) {
        /* pop(): the last live stub. */
        int32_t u = stubs[last];
        stubs[last] = -1;
        fenwick_remove(tree, size, last);
        live--;
        while (last >= 0 && stubs[last] < 0)
            last--;

        int placed = 0;
        for (int32_t tries = live; tries > 0; tries--) {
            int32_t index = randbelow(state, (uint32_t)live);
            int32_t position = fenwick_find(tree, size, top, index);
            int32_t v = stubs[position];
            if (v == u)
                continue;
            const int32_t *row = rows + u * k;
            int32_t seen = 0;
            for (int32_t d = 0; d < degree[u]; d++) {
                if (row[d] == v) {
                    seen = 1;
                    break;
                }
            }
            if (seen)
                continue;
            stubs[position] = -1;
            fenwick_remove(tree, size, position);
            live--;
            while (last >= 0 && stubs[last] < 0)
                last--;
            rows[u * k + degree[u]++] = v;
            rows[v * k + degree[v]++] = u;
            placed = 1;
            break;
        }
        if (!placed)
            return 0;
    }
    for (int32_t node = 0; node < n; node++) {
        if (degree[node] != k)
            return 0;
    }
    return 1;
}

/*
 * Up to `attempts` attempts from the rng `state`; returns the 1-based
 * number of the attempt that succeeded, or 0 when every one got stuck.
 * Either way `state` is where the same Python attempts leave the rng.
 */
int64_t repro_pair_stubs(int64_t n, int64_t k, int64_t attempts, uint32_t *state,
                         int32_t *stubs, int32_t *tree, int32_t *rows, int32_t *degree)
{
    for (int64_t number = 1; number <= attempts; number++) {
        if (attempt((int32_t)n, (int32_t)k, state, stubs, tree, rows, degree))
            return number;
    }
    return 0;
}

/*
 * Compiled deletion loop behind repro.core.ddsr.DDSROverlay.remove_nodes.
 *
 * Runs DDSROverlay.remove_node for each victim of a batch -- drop the node,
 * join its repr-sorted former neighbours into a clique, then let each of
 * them, in that order, drop the peer of highest (or lowest) degree while it
 * is over d_max, repr-sorted ties broken by rng.choice -- on the MT19937
 * replay of pairing.c, so every tie-break draws what the Python loop draws
 * and the rng ends where it would end.  rng.choice(seq) is
 * seq[_randbelow(len(seq))]: the draw depends on the tie's size only.
 *
 * Nodes are the indices of the caller's CSR snapshot.  Every decision
 * depends on memberships, degrees and repr order only, never on the order
 * of a peer list, so each node's peers live unordered in a fixed-width row
 * (rows[i * width ..], degree[i] of them; -1 once removed).  At the start
 * of a removal no degree exceeds width = max(d_max, the snapshot's largest
 * degree): only the victim's former neighbours (the survivors) gain edges,
 * at most width - 1 each, and they are pruned back to d_max before the
 * next removal.  So while a removal runs, its survivors' rows move to
 * spilled[], one row of 2 * width slots per survivor, and come home after.
 *
 * Repr order of two nodes is the order of their key[] entries: the caller
 * gives every label a distinct integer that sorts where its repr sorts.
 *
 * The decisions come back as ops[], int32 pairs in the order the Python
 * loop makes the matching mutations:
 *
 *   (v, ~i)   remove node v, the batch's i-th victim
 *   (u, w)    add the repair edge u-w
 *   (~u, w)   u prunes its peer w
 *
 * Scalars travel in io[] (the DDSR_* slots below); the caller passes every
 * buffer.
 */
#include <stdint.h>
#include <string.h>

/* pairing.c */
int32_t repro_mt_randbelow(uint32_t *state, uint32_t m);

enum {
    DDSR_NODES,    /* rows in the snapshot */
    DDSR_WIDTH,    /* slots per row */
    DDSR_D_MAX,
    DDSR_HIGHEST,  /* 1: HIGHEST_DEGREE, 0: LOWEST_DEGREE */
    DDSR_VICTIMS,  /* entries of victims[] */
    DDSR_NEXT,     /* in/out: first victim not handled yet (0: fill rows) */
    DDSR_OPS,      /* pairs ops[] holds */
    DDSR_REMOVED,  /* out, summed over calls: nodes removed */
    DDSR_REPAIRS,  /* removals that left two or more survivors */
    DDSR_EDGES,    /* repair edges added */
    DDSR_PRUNES,   /* peers pruned */
};

struct overlay {
    int32_t *rows;
    int32_t *degree;
    int32_t *slot;    /* slot[node]: its row of spilled[], or -1 */
    int32_t *spilled;
    int64_t width;
    const int64_t *key;
};

static int32_t *row_of(const struct overlay *o, int32_t node)
{
    int32_t s = o->slot[node];
    return s < 0 ? o->rows + node * o->width : o->spilled + s * 2 * o->width;
}

/* Insertion sort of nodes[0 .. count) by repr (keys are distinct). */
static void sort_by_repr(const struct overlay *o, int32_t *nodes, int64_t count)
{
    for (int64_t i = 1; i < count; i++) {
        int32_t node = nodes[i];
        int64_t j = i;
        while (j > 0 && o->key[node] < o->key[nodes[j - 1]]) {
            nodes[j] = nodes[j - 1];
            j--;
        }
        nodes[j] = node;
    }
}

/* Drops peer from node's row; 0 when the row does not hold it, which only
 * an asymmetric snapshot can cause (the caller then gives up with -1). */
static int unlink_peer(struct overlay *o, int32_t node, int32_t peer)
{
    int32_t *row = row_of(o, node);
    const int32_t count = o->degree[node];
    for (int32_t j = 0; j < count; j++) {
        if (row[j] == peer) {
            row[j] = row[count - 1];
            o->degree[node] = count - 1;
            return 1;
        }
    }
    return 0;
}

static int linked(const struct overlay *o, int32_t node, int32_t peer)
{
    const int32_t *row = row_of(o, node);
    for (int32_t j = 0; j < o->degree[node]; j++) {
        if (row[j] == peer)
            return 1;
    }
    return 0;
}

/* The peer `node` prunes: the extreme degree, a repr-sorted tie by rng. */
static int32_t prune_victim(const struct overlay *o, int32_t node, int highest,
                            uint32_t *state, int32_t *tie)
{
    const int32_t *row = row_of(o, node);
    int32_t count = o->degree[node], extreme = o->degree[row[0]], ties = 0;
    for (int32_t j = 1; j < count; j++) {
        int32_t d = o->degree[row[j]];
        if (highest ? d > extreme : d < extreme)
            extreme = d;
    }
    for (int32_t j = 0; j < count; j++) {
        if (o->degree[row[j]] == extreme)
            tie[ties++] = row[j];
    }
    if (ties == 1)
        return tie[0];
    int32_t pick = repro_mt_randbelow(state, (uint32_t)ties);
    sort_by_repr(o, tie, ties);
    return tie[pick];
}

/*
 * Removes victims[io[DDSR_NEXT] ..] in order (an entry < 0 or a node
 * already removed is skipped) until the batch ends or ops[] has no room
 * for the next removal's worst case; a later call carries on from
 * io[DDSR_NEXT].  The call with io[DDSR_NEXT] == 0 first fills the rows
 * and slot[] from the CSR snapshot (indptr, indices).  scratch[] holds
 * the survivors (width), a tie (2 * width) and spilled[] (width rows of
 * 2 * width).  Returns the number of op pairs written, or -1 when a row
 * would overflow, ops[] cannot hold one removal or a row lacks a peer that
 * lists it (an asymmetric snapshot).
 */
int64_t repro_ddsr_remove(int64_t *io, uint32_t *state, const int64_t *key,
                          int32_t *rows, int32_t *degree, int32_t *slot,
                          const int32_t *victims, int32_t *ops, int32_t *scratch,
                          const int64_t *indptr, const int32_t *indices)
{
    const int64_t width = io[DDSR_WIDTH];
    const int64_t d_max = io[DDSR_D_MAX];
    const int highest = io[DDSR_HIGHEST] != 0;
    const int64_t room = io[DDSR_OPS];
    int32_t *survivors = scratch, *tie = scratch + width;
    struct overlay o = {rows, degree, slot, scratch + 3 * width, width, key};
    int64_t next = io[DDSR_NEXT], n_ops = 0;

    if (next == 0) {
        for (int64_t node = 0; node < io[DDSR_NODES]; node++) {
            int64_t count = indptr[node + 1] - indptr[node];
            if (count > width)
                return -1;
            degree[node] = (int32_t)count;
            slot[node] = -1;
            memcpy(rows + node * width, indices + indptr[node], (size_t)count * sizeof *rows);
        }
    }
    for (; next < io[DDSR_VICTIMS]; next++) {
        int32_t victim = victims[next];
        if (victim < 0 || degree[victim] < 0)
            continue;
        int64_t count = degree[victim];
        /* The removal, its clique and at most 2 * width prunes per survivor. */
        if (n_ops + 1 + count * (count - 1) / 2 + count * 2 * width > room) {
            if (n_ops == 0)
                return -1;
            break;
        }
        const int32_t *row = row_of(&o, victim);
        for (int64_t j = 0; j < count; j++) {
            survivors[j] = row[j];
            if (!unlink_peer(&o, row[j], victim))
                return -1;
        }
        degree[victim] = -1;
        ops[2 * n_ops] = victim;
        ops[2 * n_ops + 1] = ~(int32_t)next;
        n_ops++;
        io[DDSR_REMOVED]++;
        sort_by_repr(&o, survivors, count);
        if (count >= 2)
            io[DDSR_REPAIRS]++;
        for (int64_t i = 0; i < count; i++) {
            int32_t u = survivors[i];
            memcpy(o.spilled + i * 2 * width, rows + u * width, (size_t)degree[u] * sizeof *rows);
            slot[u] = (int32_t)i;
        }
        for (int64_t i = 0; i < count; i++) {
            int32_t u = survivors[i];
            for (int64_t j = i + 1; j < count; j++) {
                int32_t w = survivors[j];
                if (linked(&o, u, w))
                    continue;
                if (degree[u] >= 2 * width || degree[w] >= 2 * width)
                    return -1;
                row_of(&o, u)[degree[u]++] = w;
                row_of(&o, w)[degree[w]++] = u;
                ops[2 * n_ops] = u;
                ops[2 * n_ops + 1] = w;
                n_ops++;
                io[DDSR_EDGES]++;
            }
        }
        for (int64_t i = 0; i < count; i++) {
            int32_t u = survivors[i];
            while (degree[u] > d_max) {
                int32_t w = prune_victim(&o, u, highest, state, tie);
                if (!unlink_peer(&o, u, w) || !unlink_peer(&o, w, u))
                    return -1;
                ops[2 * n_ops] = ~u;
                ops[2 * n_ops + 1] = w;
                n_ops++;
                io[DDSR_PRUNES]++;
            }
        }
        for (int64_t i = 0; i < count; i++) {
            int32_t u = survivors[i];
            memcpy(rows + u * width, o.spilled + i * 2 * width, (size_t)degree[u] * sizeof *rows);
            slot[u] = -1;
        }
    }
    io[DDSR_NEXT] = next;
    return n_ops;
}
